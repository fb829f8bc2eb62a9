"""Kernel benchmark: vectorised 6Gen hot path vs the reference path.

Runs a Figure-2-style seed-count sweep, timing each tier on both the
vectorised kernel (``use_vector_kernel=True``) and the reference
implementation (reference clustering plus the scalar exact budget
ledger), verifying on every run that the two produce the same run
signature — clusters, targets, sampled addresses in order, budget used
and iterations — and writes the medians and speedups to
``benchmarks/results/BENCH_sixgen.json`` (see DESIGN.md "Performance"
for how to read it).  Each tier also gets an extend row: on both paths
one run goes to ¼ then ½ of the budget and is extended to all of it
(``SixGen.extend``), and every rung's signature must equal a fresh
run's at that budget.

Standalone script, not a pytest benchmark — CI runs it with ``--quick``
and fails the build if the paths ever diverge:

    python benchmarks/bench_kernel.py [--quick] [--out BENCH_sixgen.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import statistics
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import experiments as ex  # noqa: E402
from repro.core.sixgen import SixGen, SixGenConfig, run_6gen  # noqa: E402
from repro.telemetry.timer import time_call  # noqa: E402

FULL_TIERS = (30, 100, 300, 1000, 2000)
QUICK_TIERS = (30, 100, 300)
BUDGET = 10_000
SCALE = 0.3


def run_signature(result) -> tuple:
    """Everything the two paths must agree on."""
    return (
        sorted((c.range.masks, c.seed_count) for c in result.clusters),
        frozenset(result.target_set()),
        tuple(result.sampled),
        result.budget_used,
        result.iterations,
    )


def bench_tier(pool: list[int], n: int, repeats: int) -> dict:
    """Median runtime of both paths on one deterministic n-seed subset."""
    subset = random.Random(1000 * n).sample(pool, n)
    timings: dict[bool, list[float]] = {True: [], False: []}
    identical = True
    for _ in range(repeats):
        results = {}
        for vector in (True, False):
            results[vector], elapsed = time_call(
                lambda v=vector: run_6gen(subset, BUDGET, use_vector_kernel=v)
            )
            timings[vector].append(elapsed)
        if run_signature(results[True]) != run_signature(results[False]):
            identical = False
    baseline = statistics.median(timings[False])
    vectorised = statistics.median(timings[True])
    return {
        "seeds": n,
        "baseline_median_s": round(baseline, 4),
        "vector_median_s": round(vectorised, 4),
        "speedup": round(baseline / vectorised, 2) if vectorised else None,
        "identical": identical,
    }


def extend_tier(pool: list[int], n: int, repeats: int) -> dict:
    """Extend one run along ¼, ½ and all of ``BUDGET``, against fresh runs.

    Both paths walk the ladder; the timings are the vector path's whole
    ladder, extended against run fresh at every rung.
    """
    subset = random.Random(1000 * n).sample(pool, n)
    rungs = (BUDGET // 4, BUDGET // 2, BUDGET)
    timings: dict[str, list[float]] = {"extend": [], "fresh": []}
    identical = True
    for _ in range(repeats):
        for vector in (True, False):
            config = SixGenConfig(budget=rungs[0], use_vector_kernel=vector)
            gen = SixGen(subset, config)
            extended, fresh = [], []
            for budget in rungs:
                result, elapsed = time_call(lambda b=budget: gen.extend(b))
                extended.append(result)
                if vector:
                    timings["extend"].append(elapsed)
                result, elapsed = time_call(
                    lambda b=budget: run_6gen(subset, b, use_vector_kernel=vector)
                )
                fresh.append(result)
                if vector:
                    timings["fresh"].append(elapsed)
            if [run_signature(r) for r in extended] != [
                run_signature(r) for r in fresh
            ]:
                identical = False
    ladder = {key: sum(times) / repeats for key, times in timings.items()}
    return {
        "seeds": n,
        "budgets": list(rungs),
        "fresh_ladder_s": round(ladder["fresh"], 4),
        "extend_ladder_s": round(ladder["extend"], 4),
        "identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small tiers / fewer repeats (CI divergence gate)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=REPO_ROOT / "benchmarks" / "results" / "BENCH_sixgen.json",
        help="output JSON path (default: benchmarks/results/BENCH_sixgen.json)",
    )
    args = parser.parse_args(argv)
    if not args.out.parent.is_dir():
        parser.error(f"output directory does not exist: {args.out.parent}")

    tiers = QUICK_TIERS if args.quick else FULL_TIERS
    repeats = 2 if args.quick else 3
    pool = sorted(int(a) for a in ex.standard_context(SCALE).seed_addresses)

    rows = []
    for n in tiers:
        row = bench_tier(pool, n, repeats)
        rows.append(row)
        print(
            f"seeds={row['seeds']:>5}  baseline={row['baseline_median_s']:.3f}s  "
            f"vector={row['vector_median_s']:.3f}s  speedup={row['speedup']}x  "
            f"identical={row['identical']}"
        )

    extend_rows = []
    for n in tiers:
        row = extend_tier(pool, n, repeats)
        extend_rows.append(row)
        print(
            f"seeds={row['seeds']:>5}  ladder {row['budgets']}: "
            f"fresh={row['fresh_ladder_s']:.3f}s  "
            f"extended={row['extend_ladder_s']:.3f}s  identical={row['identical']}"
        )

    payload = {
        "benchmark": "sixgen_vector_kernel",
        "scale": SCALE,
        "budget": BUDGET,
        "repeats": repeats,
        "quick": args.quick,
        "tiers": rows,
        "extend": extend_rows,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")

    if not all(row["identical"] for row in rows):
        print("DIVERGENCE: vectorised kernel output differs from reference")
        return 1
    if not all(row["identical"] for row in extend_rows):
        print("DIVERGENCE: an extended run differs from a fresh run")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
