"""End-to-end benchmark: one workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload classic|rescan \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/`` directory.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  Lines before it are for people.  A failed output
check makes the exit code 1.  README.md describes the workloads and
every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import sys
import tempfile
import time

import calibration

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Set-up runs this many times before the first pass, and once more
#: for every pass; the median of all of them is reported.
SETUP_REPEATS = 7
#: A run makes at least this many passes, however long they take.
MIN_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("classic", "rescan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_setup(setup_fn, seeds, workdir, samples, tracer=None):
    start = time.perf_counter()
    state = setup_fn(seeds, workdir, tracer)
    samples.append(time.perf_counter() - start)
    return state


def run_pass(workloads, name, seeds, workdir, samples, tracer=None):
    """Build fresh inputs, then run one timed pass over them."""
    setup_fn, run_fn = workloads.WORKLOADS[name]
    state = timed_setup(setup_fn, seeds, workdir, samples, tracer)
    inputs = {
        "prefixes": len(state.groups),
        "seeds": len(state.seed_addrs),
        "targets": len(state.targets[0]) if state.targets is not None else 0,
        "hosts": state.truth.host_count(workloads.PORT),
    }
    gc.collect()
    try:
        result = run_fn(state, workloads.Timer(tracer, kernel=calibration.measure))
    finally:
        state.close()
    result.inputs = inputs
    print(
        f"pass {name}: {result.wall:.3f} s raw, "
        f"kernel {statistics.median(result.readings):.4f} s, {result.probes} probes"
    )
    return result


def end_to_end(passes, setup_samples) -> dict:
    """Times are in reference-host seconds (see calibration.py)."""
    ops = passes[0].ops
    factor = calibration.factor([k for p in passes for k in p.readings])
    walls = [p.wall * factor for p in passes]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_samples) * factor, "s"),
        "probes_per_s": (statistics.median(p.probes / w for p, w in zip(passes, walls)), "probes/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "coverage": (sum(op.coverage for op in ops) / len(ops), "fraction"),
    }


def run_untraced(workloads, args, seeds, tmp):
    """At least two whole passes, and more while the next should fit.

    After ``MIN_PASSES``, a run starts another pass only if the passes
    so far say it would end within ``--seconds`` of raw timed work, so
    a slow host runs fewer passes instead of a longer run.
    """
    setup_fn, _ = workloads.WORKLOADS[args.workload]
    setup_samples: list[float] = []
    for i in range(SETUP_REPEATS):
        timed_setup(setup_fn, seeds, os.path.join(tmp, f"setup-{i}"), setup_samples).close()
    passes = []
    while len(passes) < MIN_PASSES or (
        sum(p.wall for p in passes) + statistics.median(p.wall for p in passes) <= args.seconds
    ):
        workdir = os.path.join(tmp, f"pass-{len(passes)}")
        passes.append(run_pass(workloads, args.workload, seeds, workdir, setup_samples))
    return passes, end_to_end(passes, setup_samples)


def run_traced(workloads, tracer_mod, args, seeds, tmp):
    """An untraced reference pass, then the same pass traced."""
    samples: list[float] = []
    reference = run_pass(workloads, args.workload, seeds, os.path.join(tmp, "ref"), samples)
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    try:
        traced = run_pass(
            workloads, args.workload, seeds, os.path.join(tmp, "traced"), samples, tracer
        )
    finally:
        tracer.restore()
    for ref_op, op in zip(reference.ops, traced.ops):
        if op.error is None and op.digest != ref_op.digest:
            op.error = "tracing changed the campaign's hits or stats"
    return [reference, traced], tracer_mod.layer_metrics(tracer, traced, reference), tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracer_mod
    import workloads

    seeds = workloads.derive_seeds(args.seed)
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("seeds: " + json.dumps(seeds))
    # A fresh directory per run for state files, inside the checkout.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            passes, metrics, tracer = run_traced(workloads, tracer_mod, args, seeds, tmp)
        else:
            passes, metrics = run_untraced(workloads, args, seeds, tmp)
    print("inputs: " + json.dumps(passes[0].inputs))
    ops = [op for p in passes for op in p.ops]
    failed = sum(op.error is not None for op in ops)
    for op in ops:
        status = "ok" if op.error is None else f"FAILED: {op.error}"
        over = f" over-budget={op.overshoot} (known defect)" if op.overshoot else ""
        print(f"  {op.name}: probes={op.probes} coverage={op.coverage:.4f}{over} {status}")
    if args.trace:
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
        print(f"spans -> {spans_path.relative_to(ROOT)}")
    else:
        factor = calibration.factor([k for p in passes for k in p.readings])
        waits = [w * factor for p in passes for w in p.waits]
        max_wait = f"{max(waits)} s" if waits else "n/a (no scheduler in this workload)"
        print(f"  max_wait_s {max_wait}")
        print(f"  error_rate {failed / len(ops)} fraction ({failed} of {len(ops)} failed)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
