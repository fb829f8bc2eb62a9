"""Scan-pipeline benchmark: the array plane vs the reference path.

Builds one target pool from the standard per-prefix 6Gen run, then
scans growing tiers of it with (a) the sequential per-address reference
path and (b) the batched *array* plane (packed uint64 hi/lo columns,
vectorised lookups), verifying on every tier that both produce
identical hits *and* identical ``ScanStats`` — the parity contract the
engine promises for a fixed ``rng_seed``.  A lossy tier exercises the
order-independent loss PRF, and a multi-worker run checks that
shared-memory process sharding reproduces the reference hit set.  A
parity-only case scans a blacklist whose prefixes nest (/128s inside a
/64 inside a /56) through all three paths.
Medians and speedups land in ``benchmarks/results/BENCH_scan.json``
(see docs/performance.md for how to read the tiers).

Standalone script, not a pytest benchmark — CI runs it with ``--quick``
and fails the build if the paths ever diverge, and the ``scan-speedup``
job additionally gates on ``--min-array-speedup``:

    python benchmarks/bench_scan.py [--quick] [--out BENCH_scan.json]
                                    [--min-array-speedup X.Y]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from collections import Counter

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import experiments as ex  # noqa: E402
from repro.campaign import generate_per_prefix  # noqa: E402
from repro.scanner.blacklist import Blacklist  # noqa: E402
from repro.scanner.engine import ScanConfig, Scanner  # noqa: E402
from repro.ipv6.prefix import Prefix  # noqa: E402
from repro.telemetry import (  # noqa: E402
    NULL_TELEMETRY,
    JsonlSink,
    RunManifest,
    Telemetry,
)
from repro.telemetry.timer import time_call  # noqa: E402

FULL_TIERS = (10_000, 50_000, 200_000, 500_000)
QUICK_TIERS = (10_000, 50_000)
BUDGET = 20_000
SCALE = 0.3
RNG_SEED = 5

DEFAULT_OUT = REPO_ROOT / "benchmarks" / "results" / "BENCH_scan.json"


def build_pool(limit: int) -> list[int]:
    """Target pool from the standard 6Gen run (streamed, deterministic)."""
    context = ex.standard_context(SCALE)
    run = generate_per_prefix(context.groups, BUDGET)
    pool: list[int] = []
    seen: set[int] = set()
    for target in run.iter_targets():
        if target not in seen:
            seen.add(target)
            pool.append(target)
            if len(pool) >= limit:
                break
    return pool


def make_blacklist(pool: list[int]) -> Blacklist:
    """Blacklist a slice of target space so that path gets exercised."""
    blacklist = Blacklist()
    for target in pool[:: max(1, len(pool) // 50)]:
        blacklist.add(Prefix(int(target), 128))
    return blacklist


def make_nested_blacklist(pool: list[int]) -> tuple[Blacklist, int]:
    """:func:`make_blacklist` plus a /64 and a /56 that nest its /128s.

    The /64 is the one holding the most of the /128 entries, and the
    /56 holds that /64.  Returns the blacklist and how many /128s the
    /64 holds.
    """
    blacklist = make_blacklist(pool)
    per_64 = Counter(prefix.network >> 64 for prefix in blacklist.prefixes())
    busiest, nested = max(per_64.items(), key=lambda item: (item[1], item[0]))
    blacklist.add(Prefix(busiest << 64, 64))
    blacklist.add(Prefix((busiest >> 8) << 72, 56))
    return blacklist, nested


def bench_tier(
    truth, blacklist: Blacklist, pool: list[int], n: int,
    repeats: int, loss_rate: float, telemetry: Telemetry = NULL_TELEMETRY,
) -> dict:
    targets = pool[:n]
    configs = {
        "reference": ScanConfig(use_batched=False),
        "arrays": ScanConfig(),
    }
    timings: dict[str, list[float]] = {name: [] for name in configs}
    identical = True
    for _ in range(repeats):
        results = {}
        for name, config in configs.items():
            # Only the array (production) path is instrumented, so the
            # JSONL records one pipeline's counters per tier run.
            scanner = Scanner(
                truth, blacklist=blacklist, loss_rate=loss_rate,
                rng_seed=RNG_SEED, config=config,
                telemetry=telemetry if name == "arrays" else None,
            )
            results[name], elapsed = time_call(lambda s=scanner: s.scan(targets))
            timings[name].append(elapsed)
        if (
            results["arrays"].hits != results["reference"].hits
            or results["arrays"].stats != results["reference"].stats
        ):
            identical = False
    baseline = statistics.median(timings["reference"])
    arrays = statistics.median(timings["arrays"])
    return {
        "targets": n,
        "loss_rate": loss_rate,
        "baseline_median_s": round(baseline, 4),
        "arrays_median_s": round(arrays, 4),
        "arrays_speedup": round(baseline / arrays, 2) if arrays else None,
        "identical": identical,
    }


def check_workers(
    truth, blacklist: Blacklist, pool: list[int],
    telemetry: Telemetry = NULL_TELEMETRY,
) -> dict:
    """Multi-worker scans must reproduce the reference hit set and stats."""
    targets = pool[: min(len(pool), 100_000)]
    reference = Scanner(
        truth, blacklist=blacklist, loss_rate=0.1, rng_seed=RNG_SEED,
        config=ScanConfig(use_batched=False),
    ).scan(targets)
    arrays_scanner = Scanner(
        truth, blacklist=blacklist, loss_rate=0.1, rng_seed=RNG_SEED,
        config=ScanConfig(workers=2), telemetry=telemetry,
    )
    pooled, arrays_s = time_call(lambda: arrays_scanner.scan(targets))
    return {
        "targets": len(targets),
        "workers": 2,
        "arrays_pool_s": round(arrays_s, 4),
        "identical": (
            pooled.hits == reference.hits and pooled.stats == reference.stats
        ),
    }


def check_nested_blacklist(truth, pool: list[int], n: int) -> dict:
    """Reference, array and ``workers=2`` scans under a nested blacklist."""
    blacklist, nested = make_nested_blacklist(pool)
    targets = pool[:n]
    results = [
        Scanner(
            truth, blacklist=blacklist, loss_rate=0.1, rng_seed=RNG_SEED,
            config=config,
        ).scan(targets)
        for config in (
            ScanConfig(use_batched=False), ScanConfig(), ScanConfig(workers=2)
        )
    ]
    reference = results[0]
    return {
        "targets": len(targets),
        "blacklist_prefixes": len(blacklist),
        "nested_128s_in_64": nested,
        "blacklisted": reference.stats.blacklisted,
        "hits": len(reference.hits),
        "identical": all(
            r.hits == reference.hits and r.stats == reference.stats
            for r in results[1:]
        ),
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
        default=DEFAULT_OUT,
        help="output JSON path (default: benchmarks/results/BENCH_scan.json)",
    )
    parser.add_argument(
        "--min-array-speedup",
        type=float,
        metavar="X.Y",
        help="fail unless the array plane beats the reference path by at "
             "least this factor on the largest lossless tier (CI "
             "scan-speedup gate)",
    )
    parser.add_argument(
        "--telemetry",
        type=pathlib.Path,
        metavar="FILE",
        help="also append a telemetry JSONL (manifest + per-tier events + "
             "scan metrics) for the array path",
    )
    args = parser.parse_args(argv)
    if not args.out.parent.is_dir():
        parser.error(f"output directory does not exist: {args.out.parent}")

    tiers = QUICK_TIERS if args.quick else FULL_TIERS
    repeats = 2 if args.quick else 3
    telemetry = (
        Telemetry(JsonlSink(args.telemetry)) if args.telemetry
        else NULL_TELEMETRY
    )
    RunManifest.create(
        "bench_scan",
        {"quick": args.quick, "scale": SCALE, "budget": BUDGET,
         "repeats": repeats},
        rng_seed=RNG_SEED,
    ).emit(telemetry)
    pool = build_pool(max(tiers))
    tiers = tuple(n for n in tiers if n <= len(pool)) or (len(pool),)
    blacklist = make_blacklist(pool)
    truth = ex.standard_context(SCALE).internet.truth

    rows = []
    for n in tiers:
        row = bench_tier(truth, blacklist, pool, n, repeats, 0.0, telemetry)
        rows.append(row)
        telemetry.event("progress", {"stage": "bench_tier", **row})
        print(
            f"targets={row['targets']:>7}  baseline={row['baseline_median_s']:.3f}s  "
            f"arrays={row['arrays_median_s']:.3f}s  "
            f"arrays_speedup={row['arrays_speedup']}x  "
            f"identical={row['identical']}"
        )
    # One lossy tier: the loss PRF must stay order-independent.
    lossy = bench_tier(truth, blacklist, pool, tiers[0], repeats, 0.2, telemetry)
    rows.append(lossy)
    telemetry.event("progress", {"stage": "bench_tier", **lossy})
    print(
        f"targets={lossy['targets']:>7}  loss=0.2  "
        f"baseline={lossy['baseline_median_s']:.3f}s  "
        f"arrays={lossy['arrays_median_s']:.3f}s  "
        f"identical={lossy['identical']}"
    )
    workers = check_workers(truth, blacklist, pool, telemetry)
    telemetry.event("progress", {"stage": "workers_check", **workers})
    print(
        f"workers={workers['workers']}  targets={workers['targets']}  "
        f"arrays_pool={workers['arrays_pool_s']:.3f}s  "
        f"identical={workers['identical']}"
    )
    nested = check_nested_blacklist(truth, pool, tiers[-1])
    telemetry.event("progress", {"stage": "nested_blacklist_check", **nested})
    print(
        f"nested blacklist  targets={nested['targets']}  "
        f"prefixes={nested['blacklist_prefixes']}  "
        f"blacklisted={nested['blacklisted']}  hits={nested['hits']}  "
        f"identical={nested['identical']}"
    )
    telemetry.close()

    payload = {
        "benchmark": "scan_batched_pipeline",
        "scale": SCALE,
        "budget": BUDGET,
        "rng_seed": RNG_SEED,
        "repeats": repeats,
        "quick": args.quick,
        "tiers": rows,
        "workers_check": workers,
        "nested_blacklist_check": nested,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")

    if (
        not all(row["identical"] for row in rows)
        or not workers["identical"]
        or not nested["identical"]
    ):
        print("DIVERGENCE: batched scan output differs from reference")
        return 1
    if args.min_array_speedup is not None:
        # Gate on the largest lossless tier (the first rows are the
        # lossless ladder; the lossy tier is appended after them).
        gate_row = rows[len(tiers) - 1]
        measured = gate_row["arrays_speedup"]
        if measured is None or measured < args.min_array_speedup:
            print(
                f"SPEEDUP GATE FAILED: arrays over reference path "
                f"{measured}x < {args.min_array_speedup}x "
                f"at {gate_row['targets']} targets"
            )
            return 1
        print(
            f"speedup gate OK: {measured}x >= {args.min_array_speedup}x "
            f"at {gate_row['targets']} targets"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
