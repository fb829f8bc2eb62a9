"""The campaign's generation stage: 6Gen per routed prefix.

The paper groups seeds by BGP routed prefix and runs 6Gen on each
prefix independently at a static per-prefix probe budget, leaving
cross-network allocation open (§6, §8).  :func:`generate_per_prefix`
is the one entry point for that stage: it runs 6Gen on every routed
prefix's seed group, serially or across a process pool, with failure
isolation and per-prefix progress events, and returns the runs as a
:class:`MultiPrefixRun`.  The campaign pipeline calls it as its first
stage; targets leave as packed ``(hi, lo)`` column chunks per prefix,
never as a materialised union.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.sixgen import SixGen, SixGenConfig, SixGenResult, run_6gen
from ..ipv6.prefix import Prefix
from ..telemetry.spans import Telemetry, ensure

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass
class PrefixRun:
    """6Gen output for one routed prefix."""

    prefix: Prefix
    seeds: list[int]
    budget: int
    result: SixGenResult

    def iter_targets(self) -> Iterator[int]:
        """Stream this prefix's generated targets (distinct, unordered)."""
        return self.result.iter_targets()

    def target_columns(self) -> "tuple[np.ndarray, np.ndarray]":
        """This prefix's targets as packed ``(hi, lo)`` uint64 columns.

        Densest-cluster-first order (the paper's probing priority);
        cached on the result, so repeated calls are free.
        """
        return self.result.target_columns_by_density()


@dataclass
class MultiPrefixRun:
    """6Gen outputs across all routed prefixes of one experiment.

    ``failures`` maps prefixes whose 6Gen run raised (twice — every
    failure is retried once) to a short error description; their
    targets are simply absent from the campaign.
    """

    runs: dict[Prefix, PrefixRun] = field(default_factory=dict)
    failures: dict[Prefix, str] = field(default_factory=dict)

    def results(self) -> dict[Prefix, SixGenResult]:
        return {prefix: run.result for prefix, run in self.runs.items()}

    def all_targets(self) -> set[int]:
        """Union of generated targets across prefixes."""
        targets: set[int] = set()
        for run in self.runs.values():
            targets |= run.result.target_set()
        return targets

    def iter_targets(self) -> Iterator[int]:
        """Stream targets prefix by prefix (sorted) without materialising
        the union.

        Distinct routed prefixes can overlap (more- and less-specific
        routes), so an address may appear more than once; consumers
        that need uniqueness dedupe downstream — :meth:`Scanner.scan`
        already does.
        """
        for prefix in sorted(self.runs):
            yield from self.runs[prefix].iter_targets()

    def iter_target_columns(
        self,
    ) -> "Iterator[tuple[np.ndarray, np.ndarray]]":
        """Stream packed ``(hi, lo)`` column chunks prefix by prefix.

        The column analogue of :meth:`iter_targets`: one chunk per
        prefix, in sorted prefix order, each in densest-cluster-first
        order, never materialising the campaign union.  Overlapping
        routed prefixes can repeat an address across chunks;
        :meth:`Scanner.scan` dedupes streamed column chunks with its
        fused-key pass, so feeding this straight in is correct.
        """
        for prefix in sorted(self.runs):
            yield self.runs[prefix].target_columns()


def _run_in_process(
    item: tuple[Prefix, list[int], int, bool],
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
    prefix, seeds, prefix_budget, loose = item
    if paused is None:
        return run_6gen(seeds, prefix_budget, loose=loose, telemetry=telemetry)
    run = paused.pop(prefix, None)
    if run is None:
        config = SixGenConfig(budget=prefix_budget, loose=loose)
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
    args: tuple[Prefix, list[int], int, bool],
) -> tuple[SixGenResult, tuple]:
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

    _, seeds, prefix_budget, loose = args
    result = run_6gen(seeds, prefix_budget, loose=loose)
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
            return result, ("shm", spec)
    return result, ("raw", hi, lo)


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
    budget: int | Mapping[Prefix, int],
    *,
    loose: bool = True,
    processes: int | None = None,
    telemetry: Telemetry | None = None,
    isolate_failures: bool = True,
    progress_sink=None,
    paused: "dict[Prefix, SixGen] | None" = None,
) -> MultiPrefixRun:
    """Run 6Gen on every routed prefix's seed group.

    ``budget`` is either one probe budget for every prefix (the paper's
    static allocation) or a mapping from each prefix to its own budget
    (a phased campaign's quotas, or the §8 seed-proportional split).
    Prefixes without seeds are skipped.

    ``processes`` > 1 runs prefixes in a process pool — the
    parallelisation axis §5.6 mentions ("we could parallelize execution
    across different prefixes").  Results are identical to the serial
    path because every prefix run is independently seeded.

    ``telemetry`` records a ``generate`` span (its ``budget`` is the
    sum of the per-prefix budgets), per-prefix ``progress`` events, and
    aggregate counters.  In the process-pool path the per-run counters
    still aggregate (in the parent, from each returned result); only
    the in-process per-prefix ``sixgen`` spans are unavailable, since
    telemetry objects stay in the parent.

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
        if seeds:
            prefix_budget = (
                budget[prefix] if isinstance(budget, Mapping) else budget
            )
            work.append((prefix, seeds, prefix_budget, loose))

    out = MultiPrefixRun()
    started = time.perf_counter()
    targets_total = 0
    with tele.span(
        "generate",
        prefixes=len(work),
        budget=sum(item[2] for item in work),
    ):
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
                    prefix, seeds, prefix_budget = item[:3]
                    try:
                        result, payload = future.result()
                    except Exception:
                        if not isolate_failures:
                            raise
                        # Retry once, in the parent — same args, same
                        # seed, so a success is the run the worker
                        # would have produced.
                        tele.count("generate.prefix_retries")
                        try:
                            result, payload = _run_one_columns(item)
                        except Exception as exc2:
                            _record_prefix_failure(
                                tele, out, prefix, exc2, len(work),
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
                targets = result.target_count()
                targets_total += targets
                _record_prefix_run(
                    tele, out.runs[prefix], len(work), progress_sink,
                    targets=targets,
                )
    elapsed = time.perf_counter() - started
    if tele.enabled and out.runs and elapsed > 0:
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
    targets: int,
) -> None:
    """Per-prefix progress accounting (no-op for null telemetry).

    ``targets`` is the prefix's distinct generated-target count.
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
    telemetry.event(
        "progress",
        {
            "stage": "6gen",
            "prefix": str(run.prefix),
            "seeds": len(run.seeds),
            "budget_used": run.result.budget_used,
            "iterations": run.result.iterations,
            "total_prefixes": total,
            "targets": targets,
        },
    )


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
