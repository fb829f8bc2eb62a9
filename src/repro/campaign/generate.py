"""The campaign's generation stage: per-prefix 6Gen over a process pool.

This is the implementation behind
:func:`repro.analysis.grouping.run_per_prefix` (which stays as the
public thin wrapper, with the data types): run 6Gen on every routed
prefix's seed group, serially or across a process pool, with failure
isolation and per-prefix progress events.  The campaign pipeline calls
it directly as its first stage; targets leave as packed ``(hi, lo)``
column chunks per prefix, never as a materialised union.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

from ..core.sixgen import SixGen, SixGenConfig, SixGenResult, run_6gen
from ..ipv6.prefix import Prefix
from ..telemetry.spans import Telemetry, ensure
from ..analysis.grouping import (
    BudgetPolicy,
    MultiPrefixRun,
    PrefixRun,
    static_budget,
)


def _run_in_process(
    item: tuple[Prefix, list[int], int, bool, str, int | None],
    telemetry: Telemetry | None,
    paused: "dict[Prefix, SixGen] | None",
) -> SixGenResult:
    """One prefix's 6Gen in this process.

    Without ``paused`` this is a fresh :func:`run_6gen`.  With it, the
    prefix's paused run is extended to the new budget (equal to a fresh
    run, :meth:`SixGen.extend`), or started when there is none, and put
    back for the next call.  The run is taken out first, so one that
    raises is dropped and the retry starts fresh.
    """
    prefix, seeds, prefix_budget, loose, ledger, rng_seed = item
    if paused is None:
        return run_6gen(
            seeds, prefix_budget, loose=loose, ledger=ledger,
            rng_seed=rng_seed, telemetry=telemetry,
        )
    run = paused.pop(prefix, None)
    if run is None:
        config = SixGenConfig(
            budget=prefix_budget, loose=loose, ledger=ledger, rng_seed=rng_seed
        )
        run = SixGen(seeds, config, telemetry=telemetry)
        result = run.run()
    else:
        result = run.extend(prefix_budget)
    paused[prefix] = run
    return result


#: Below this many column bytes a worker ships arrays in the result
#: pickle directly; above it, through a shared-memory segment (two raw
#: uint64 buffers copy through shm far cheaper than pickling them into
#: the executor's result pipe).
_COLUMN_SHM_MIN_BYTES = 1 << 16


def _run_one_columns(
    args: tuple[Prefix, list[int], int, bool, str, int | None],
) -> tuple[Prefix, list[int], int, SixGenResult, tuple]:
    """Pool worker that also materialises packed target columns.

    The expensive part of a prefix run after clustering — expanding the
    winning ranges into concrete addresses — happens *here*, in the
    worker, so it parallelises with the other prefixes instead of
    serialising in the parent.  The result is stripped of its covered
    columns and any boxed-int target set before pickling (the shipped
    columns are the targets), and the columns travel back through the
    scan path's shared-memory transport in the reverse direction
    (:func:`~repro.scanner.shm.publish_arrays`) when large, or inline
    in the result pickle when small.
    """
    from ..scanner.shm import publish_arrays

    prefix, seeds, prefix_budget, loose, ledger, rng_seed = args
    result = run_6gen(
        seeds, prefix_budget, loose=loose, ledger=ledger, rng_seed=rng_seed
    )
    hi, lo = result.target_columns_by_density()
    result._targets = None
    result._covered = None
    result._columns = None
    if hi.nbytes + lo.nbytes >= _COLUMN_SHM_MIN_BYTES:
        try:
            spec = publish_arrays({"hi": hi, "lo": lo})
        except OSError:  # pragma: no cover - /dev/shm unavailable
            pass
        else:
            return prefix, seeds, prefix_budget, result, ("shm", spec)
    return prefix, seeds, prefix_budget, result, ("raw", hi, lo)


def _adopt_columns(result: SixGenResult, payload: tuple) -> None:
    """Parent-side: reattach a worker's shipped columns to its result."""
    if payload[0] == "shm":
        from ..scanner.shm import consume_arrays

        arrays = consume_arrays(payload[1])
        result._columns = (arrays["hi"], arrays["lo"])
    else:
        result._columns = (payload[1], payload[2])


def generate_per_prefix(
    groups: Mapping[Prefix, Sequence[int]],
    budget: int,
    *,
    loose: bool = True,
    ledger: str = "exact",
    budget_policy: BudgetPolicy = static_budget,
    min_seeds: int = 1,
    rng_seed: int | None = 0,
    processes: int | None = None,
    telemetry: Telemetry | None = None,
    isolate_failures: bool = True,
    progress_sink=None,
    paused: "dict[Prefix, SixGen] | None" = None,
) -> MultiPrefixRun:
    """Run 6Gen on every routed prefix's seed group.

    ``budget_policy`` decides each prefix's budget from the base value;
    prefixes with fewer than ``min_seeds`` seeds are skipped (the paper
    omits <10-seed prefixes from some analyses but still scans them, so
    the default keeps everything).

    ``processes`` > 1 runs prefixes in a process pool — the
    parallelisation axis §5.6 mentions ("we could parallelize execution
    across different prefixes").  Results are identical to the serial
    path because every prefix run is independently seeded.

    ``telemetry`` records a ``generate`` span, per-prefix ``progress``
    events, and aggregate counters.  In the process-pool path the
    per-run counters still aggregate (in the parent, from each
    returned result); only the in-process per-prefix ``sixgen`` spans
    are unavailable, since telemetry objects stay in the parent.

    With ``isolate_failures`` (the default) a prefix whose 6Gen run
    raises does not kill the campaign: the run is retried once
    (deterministic inputs, so this only papers over environmental
    faults like a killed pool worker), then recorded in
    ``MultiPrefixRun.failures`` / telemetry and skipped with a
    :class:`RuntimeWarning`.  ``progress_sink`` (an optional
    :class:`~repro.telemetry.sinks.Sink`, e.g. a campaign checkpoint
    file) receives one ``prefix_generated`` event per completed prefix
    and one ``prefix_failed`` event per skipped prefix.

    ``paused`` keeps runs across calls at rising budgets (a phased
    campaign's cumulative quotas): the serial path extends each
    prefix's run from the dict instead of re-running it from the seeds,
    and stores new ones in it.  The budgets must not fall between
    calls.  The process pool ignores it and runs fresh, because a
    paused run is not shipped between processes.
    """
    tele = ensure(telemetry)
    work = []
    for prefix in sorted(groups):
        seeds = [int(s) for s in groups[prefix]]
        if len(seeds) < min_seeds:
            continue
        prefix_budget = budget_policy(prefix, seeds, budget)
        work.append((prefix, seeds, prefix_budget, loose, ledger, rng_seed))

    out = MultiPrefixRun()
    started = time.perf_counter()
    targets_total = 0
    targets_known = True
    with tele.span("generate", prefixes=len(work), budget=budget):
        if processes and processes > 1 and len(work) > 1:
            from concurrent.futures import ProcessPoolExecutor

            # Seed-count distributions are heavy-tailed (Figure 4): a few
            # prefixes dominate the runtime.  Submit largest-first (one
            # future per prefix) so a giant prefix never queues behind a
            # chunk of small ones at the tail of the pool — with the
            # default (sorted-by-prefix, auto-chunked) layout the whole
            # run waits on whichever worker happened to draw the biggest
            # group last.  Per-prefix futures also isolate failures: one
            # poisoned prefix surfaces from exactly its own future.
            work.sort(key=lambda item: (-len(item[1]), item[0]))
            with ProcessPoolExecutor(max_workers=processes) as pool:
                futures = [
                    (item, pool.submit(_run_one_columns, item))
                    for item in work
                ]
                for item, future in futures:
                    try:
                        prefix, seeds, prefix_budget, result, payload = (
                            future.result()
                        )
                    except Exception:
                        if not isolate_failures:
                            raise
                        # Retry once, in the parent — same args, same
                        # seed, so a success is the run the worker
                        # would have produced.
                        tele.count("generate.prefix_retries")
                        try:
                            prefix, seeds, prefix_budget, result, payload = (
                                _run_one_columns(item)
                            )
                        except Exception as exc2:
                            _record_prefix_failure(
                                tele, out, item[0], exc2, len(work),
                                progress_sink,
                            )
                            continue
                    _adopt_columns(result, payload)
                    out.runs[prefix] = PrefixRun(
                        prefix=prefix, seeds=seeds, budget=prefix_budget,
                        result=result,
                    )
                    # Per-prefix attribution: in-process sixgen spans
                    # cannot cross the pool, so the worker's wall time
                    # and target count ride on this collection-side
                    # span instead.
                    targets = len(result._columns[0])
                    targets_total += targets
                    if tele.enabled:
                        tele.count("generate.targets_total", targets)
                        with tele.span(
                            "generate.prefix",
                            prefix=str(prefix),
                            seeds=len(seeds),
                            targets=targets,
                            worker_elapsed=result.elapsed_seconds,
                        ):
                            pass
                    _record_prefix_run(
                        tele, out.runs[prefix], len(work), progress_sink,
                        targets=targets,
                    )
        else:
            for item in work:
                prefix, seeds, prefix_budget = item[:3]
                # The per-prefix span wraps the whole attempt (retry
                # included) so `repro report` can attribute generation
                # time prefix by prefix; run_6gen's own sixgen span —
                # which carries generate.targets_total — nests inside.
                try:
                    with tele.span(
                        "generate.prefix",
                        prefix=str(prefix), seeds=len(seeds),
                    ):
                        try:
                            result = _run_in_process(item, telemetry, paused)
                        except Exception:
                            if not isolate_failures:
                                raise
                            tele.count("generate.prefix_retries")
                            result = _run_in_process(item, telemetry, paused)
                except Exception as exc2:
                    if not isolate_failures:
                        raise
                    _record_prefix_failure(
                        tele, out, prefix, exc2, len(work), progress_sink
                    )
                    continue
                out.runs[prefix] = PrefixRun(
                    prefix=prefix, seeds=seeds, budget=prefix_budget,
                    result=result,
                )
                if result._covered is not None:
                    targets = result.target_count()
                    targets_total += targets
                else:
                    targets = None
                    targets_known = False
                _record_prefix_run(
                    tele, out.runs[prefix], len(work), progress_sink,
                    targets=targets,
                )
    elapsed = time.perf_counter() - started
    if tele.enabled and targets_known and out.runs and elapsed > 0:
        # Campaign-level rate; overwrites any per-run gauge from the
        # serial path's nested run_6gen calls (last write wins), which
        # is the value `repro report` should show.
        tele.gauge("generate.targets_per_sec", targets_total / elapsed)
    return out


def _record_prefix_run(
    telemetry: Telemetry,
    run: PrefixRun,
    total: int,
    sink=None,
    *,
    targets: int | None = None,
) -> None:
    """Per-prefix progress accounting (no-op for null telemetry).

    ``targets`` is the prefix's distinct generated-target count when the
    caller knows it (exact ledger or column path); ``None`` means
    unknown (range-sum ledger, where materialising the set just to
    count it would defeat the ledger's purpose).
    """
    if sink is not None:
        sink.emit(
            {
                "event": "prefix_generated",
                "prefix": str(run.prefix),
                "seeds": len(run.seeds),
                "budget_used": run.result.budget_used,
            }
        )
    if not telemetry.enabled:
        return
    telemetry.count("generate.prefixes")
    telemetry.count("generate.budget_used", run.result.budget_used)
    telemetry.count("generate.clusters", len(run.result.clusters))
    event = {
        "stage": "6gen",
        "prefix": str(run.prefix),
        "seeds": len(run.seeds),
        "budget_used": run.result.budget_used,
        "iterations": run.result.iterations,
        "total_prefixes": total,
    }
    if targets is not None:
        event["targets"] = targets
    telemetry.event("progress", event)


def _record_prefix_failure(
    telemetry: Telemetry,
    out: MultiPrefixRun,
    prefix: Prefix,
    exc: BaseException,
    total: int,
    sink=None,
) -> None:
    """Record a twice-failed prefix and warn; the campaign continues."""
    import warnings

    detail = f"{type(exc).__name__}: {exc}"
    out.failures[prefix] = detail
    warnings.warn(
        f"6Gen failed twice for {prefix}; skipping its targets ({detail})",
        RuntimeWarning,
        stacklevel=3,
    )
    if sink is not None:
        sink.emit(
            {"event": "prefix_failed", "prefix": str(prefix), "error": detail}
        )
    if telemetry.enabled:
        telemetry.count("generate.failed_prefixes")
        telemetry.event(
            "prefix_failed",
            {"prefix": str(prefix), "error": detail, "total_prefixes": total},
        )
