"""Resume-parity gate: kill a scan campaign mid-run, resume, compare.

Runs the same deterministic campaign three ways:

1. **uninterrupted** — the baseline hits and ``ScanStats``;
2. **crashed** — the identical campaign with an injected
   :class:`~repro.faults.WorkerCrash` that raises partway through the
   probe stream while checkpoints land in a crash-safe JSONL file;
3. **resumed** — a fresh campaign restored from that checkpoint file.

The gate fails (exit 1) unless the resumed run's hits and stats are
*bit-identical* to the uninterrupted baseline — the checkpoint/resume
contract documented in ``docs/fault_tolerance.md``.  Crash points are
swept across round-0 batches and a retry round, at one and two workers,
so both the in-process and pool merge paths are covered.

A second case sweeps the living hitlist's log and snapshot.  A store
takes a few epochs of this campaign's scan outcomes, with a snapshot
after each epoch but the last.  Each kill point is rebuilt from the
uninterrupted run's files as the disk held them at that moment: the
log cut at a record boundary or inside a record, and the snapshot
before or after its ``os.replace`` (a half-written temp file left
behind).  The store is reopened, must equal the uninterrupted store
after the records that survived, then finishes the remaining observes
and snapshots.  After one more reopen its ``state_digest()`` must equal
the uninterrupted store's, and its log, past the header, the
uninterrupted log.

Standalone script, not a pytest benchmark — CI runs it with ``--quick``
and fails the build on any divergence:

    python benchmarks/bench_resume.py [--quick] [--out BENCH_resume.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import experiments as ex  # noqa: E402
from repro.campaign import generate_per_prefix  # noqa: E402
from repro.faults import InjectedWorkerCrash, WorkerCrash  # noqa: E402
from repro.hitlist import LivingHitlist  # noqa: E402
from repro.ipv6.addrplane import pack  # noqa: E402
from repro.scanner.checkpoint import (  # noqa: E402
    ScanCheckpointer,
    load_scan_checkpoint,
)
from repro.scanner.engine import ScanConfig, Scanner  # noqa: E402
from repro.telemetry import JsonlSink  # noqa: E402

SCALE = 0.2
BUDGET = 10_000
RNG_SEED = 5
LOSS_RATE = 0.2
BATCH_SIZE = 256
RETRIES = 2
#: Hitlist case: epochs of outcomes, each observed as two tenants' halves.
HITLIST_EPOCHS = 3
HITLIST_TENANTS = 2


def build_campaign():
    """Deterministic truth + target pool from the standard 6Gen run."""
    context = ex.standard_context(SCALE)
    run = generate_per_prefix(context.groups, BUDGET)
    targets = list(dict.fromkeys(run.iter_targets()))
    return context.internet.truth, targets


def scan_once(truth, targets, workers, *, checkpoint=None, resume=None,
              crash=None):
    scanner = Scanner(
        truth, loss_rate=LOSS_RATE, rng_seed=RNG_SEED,
        config=ScanConfig(
            batch_size=BATCH_SIZE, workers=workers, retries=RETRIES
        ),
    )
    return scanner.scan(
        targets, checkpoint=checkpoint, resume=resume, crash=crash
    )


def run_case(truth, targets, workers, crash, workdir) -> dict:
    """One crash/resume cycle; returns the parity verdict."""
    baseline = scan_once(truth, targets, workers)

    path = workdir / f"ckpt_w{workers}_r{crash.at_round}_b{crash.at_batch}.jsonl"
    sink = JsonlSink(path)
    crashed = False
    try:
        scan_once(
            truth, targets, workers,
            checkpoint=ScanCheckpointer(sink, every_batches=2), crash=crash,
        )
    except InjectedWorkerCrash:
        crashed = True
    finally:
        sink.close()

    state = load_scan_checkpoint(path)
    sink = JsonlSink(path)
    try:
        resumed = scan_once(
            truth, targets, workers,
            checkpoint=ScanCheckpointer(sink, every_batches=2), resume=state,
        )
    finally:
        sink.close()

    return {
        "workers": workers,
        "crash_round": crash.at_round,
        "crash_batch": crash.at_batch,
        "crashed": crashed,
        "resumed_from_round": state.round if state else None,
        "resumed_from_batch": state.next_batch if state else None,
        "hits_match": resumed.hits == baseline.hits,
        "stats_match": resumed.stats == baseline.stats,
        "baseline_hits": len(baseline.hits),
        "resumed_hits": len(resumed.hits),
    }


def hitlist_observations(truth, targets) -> list[tuple]:
    """Per-epoch scan outcomes as ``(epoch, probed columns, hits)`` observes.

    Every epoch re-scans the whole target list under its own loss seed,
    so the hit sets differ between epochs; each tenant observes its
    share of the targets and the hits among them.
    """
    shares = [targets[i::HITLIST_TENANTS] for i in range(HITLIST_TENANTS)]
    columns = [pack(share) for share in shares]
    observes = []
    for epoch in range(HITLIST_EPOCHS):
        scanner = Scanner(
            truth, loss_rate=LOSS_RATE, rng_seed=RNG_SEED + epoch,
            config=ScanConfig(batch_size=BATCH_SIZE, retries=RETRIES),
        )
        hits = scanner.scan(targets).hits
        for share, probed in zip(shares, columns):
            observes.append((epoch, probed, hits.intersection(share)))
    return observes


def hitlist_plan(observes) -> list:
    """The operations: every observe, with a snapshot after each epoch but the last."""
    ops = []
    for index, (epoch, _, _) in enumerate(observes):
        ops.append(index)
        last_of_epoch = index + 1 == len(observes) or observes[index + 1][0] != epoch
        if last_of_epoch and epoch < HITLIST_EPOCHS - 1:
            ops.append("snapshot")
    return ops


def run_hitlist_ops(store, observes, ops) -> None:
    for op in ops:
        if op == "snapshot":
            store.snapshot()
        else:
            store.observe(*observes[op])


def _hitlist_ok(point: dict) -> bool:
    return point["reopened_match"] and point["finished_match"] and point["log_match"]


def run_hitlist_case(truth, targets, workdir, quick) -> dict:
    """Kill the hitlist at every record boundary, inside records, and
    around each snapshot's ``os.replace``; reopen and finish each time."""
    observes = hitlist_observations(truth, targets)
    ops = hitlist_plan(observes)

    # The uninterrupted run, noting the disk after each operation: the
    # log's length, the digest after its records, and the snapshot dump.
    base = workdir / "hitlist"
    base.mkdir()
    path = base / "store.hitlist"
    store = LivingHitlist(path=path)
    ends = [path.stat().st_size]  # ends[k]: log length after k records
    digests = [store.state_digest()]  # digests[k]: state after k records
    dumps = [None]  # dumps[k]: the snapshot on disk while record k+1 is written
    snapshots = []  # (records covered, dump before, dump after)
    for op in ops:
        if op == "snapshot":
            before = dumps[-1]
            store.snapshot()
            dumps[-1] = pathlib.Path(f"{path}.snap.npz").read_bytes()
            snapshots.append((len(ends) - 1, before, dumps[-1]))
            continue
        store.observe(*observes[op])
        ends.append(path.stat().st_size)
        digests.append(store.state_digest())
        dumps.append(dumps[-1])
    final = store.state_digest()
    store.close()
    log = path.read_bytes()
    shutil.rmtree(base)

    kills = []
    for k in range(len(ends)):
        kills.append(("boundary", k, ends[k], dumps[k], None))
        if k + 1 < len(ends):
            inside = [(ends[k] + ends[k + 1]) // 2]
            if not quick:
                inside = [ends[k] + 10, *inside, ends[k + 1] - 1]
            kills += [("inside", k, cut, dumps[k], None) for cut in inside]
    for k, before, after in snapshots:
        half = after[: len(after) // 2]
        kills.append(("before_replace", k, ends[k], before, half))
        kills.append(("after_replace", k, ends[k], after, None))

    points = []
    for kind, k, cut, dump, temp in kills:
        case = workdir / f"hitlist-{len(points)}"
        case.mkdir()
        path = case / "store.hitlist"
        path.write_bytes(log[:cut])
        if dump is not None:
            pathlib.Path(f"{path}.snap.npz").write_bytes(dump)
        if temp is not None:
            pathlib.Path(f"{path}.snap.npz.tmp").write_bytes(temp)
        with LivingHitlist.open(path) as back:
            reopened = back.state_digest() == digests[k]
            # Finish what the killed run had not done: the operations
            # after record k, less a snapshot already on disk.
            rest = ops[ops.index(k - 1) + 1 :] if k else ops
            if rest and rest[0] == "snapshot" and kind != "before_replace":
                rest = rest[1:]
            run_hitlist_ops(back, observes, rest)
        with LivingHitlist.open(path) as back:
            finished = back.state_digest() == final
        # The records past the header (whose log_id is random) must be
        # the uninterrupted log's: no torn bytes left behind.
        same_log = path.read_bytes()[ends[0] :] == log[ends[0] :]
        shutil.rmtree(case)
        points.append(
            {
                "kill": kind,
                "records": k,
                "log_bytes": cut,
                "reopened_match": reopened,
                "finished_match": finished,
                "log_match": same_log,
            }
        )
    return {
        "epochs": HITLIST_EPOCHS,
        "observes": len(observes),
        "rows": sum(len(o[1][0]) for o in observes),
        "log_bytes": len(log),
        "snapshots": len(snapshots),
        "kill_points": points,
        "failures": sum(not _hitlist_ok(p) for p in points),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer crash points (the CI gate configuration)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the JSON report here (default: benchmarks/results/)",
    )
    args = parser.parse_args()

    truth, targets = build_campaign()
    n_batches = (len(targets) + BATCH_SIZE - 1) // BATCH_SIZE
    print(f"campaign: {len(targets)} targets, {n_batches} round-0 batches")

    if args.quick:
        crashes = [
            WorkerCrash(at_batch=max(1, n_batches // 2)),
            WorkerCrash(at_batch=0, at_round=1),
        ]
        worker_counts = (1, 2)
    else:
        crashes = [
            WorkerCrash(at_batch=1),
            WorkerCrash(at_batch=max(1, n_batches // 2)),
            WorkerCrash(at_batch=max(1, n_batches - 1)),
            WorkerCrash(at_batch=0, at_round=1),
            WorkerCrash(at_batch=0, at_round=RETRIES),
        ]
        worker_counts = (1, 2)

    cases = []
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        for workers in worker_counts:
            for crash in crashes:
                case = run_case(truth, targets, workers, crash, workdir)
                cases.append(case)
                ok = case["crashed"] and case["hits_match"] and case["stats_match"]
                if not ok:
                    failures += 1
                print(
                    f"  workers={workers} crash=({crash.at_round},"
                    f"{crash.at_batch:>3}) resumed_from=({case['resumed_from_round']},"
                    f"{case['resumed_from_batch']}) "
                    f"hits={case['resumed_hits']}/{case['baseline_hits']} "
                    f"{'OK' if ok else 'DIVERGED'}"
                )

    with tempfile.TemporaryDirectory() as tmp:
        hitlist = run_hitlist_case(truth, targets, pathlib.Path(tmp), args.quick)
    by_kind: dict[str, list[int]] = {}
    for point in hitlist["kill_points"]:
        by_kind.setdefault(point["kill"], [0, 0])[_hitlist_ok(point)] += 1
    print(
        f"hitlist: {hitlist['observes']} observes, {hitlist['rows']} rows, "
        f"{hitlist['snapshots']} snapshots, {hitlist['log_bytes']} log bytes"
    )
    for kind, (bad, good) in by_kind.items():
        print(f"  kill {kind}: {good}/{good + bad} OK")
    failures += hitlist["failures"]

    report = {
        "benchmark": "resume_parity",
        "quick": args.quick,
        "scale": SCALE,
        "budget": BUDGET,
        "targets": len(targets),
        "retries": RETRIES,
        "cases": cases,
        "hitlist": hitlist,
        "failures": failures,
    }
    out = pathlib.Path(
        args.out
        or REPO_ROOT / "benchmarks" / "results" / "BENCH_resume.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report -> {out}")

    if failures:
        print(f"RESUME PARITY FAILED: {failures} diverging case(s)")
        return 1
    print("resume parity holds on every case")
    return 0


if __name__ == "__main__":
    sys.exit(main())
