"""The benchmark's workloads: inputs, timed passes and output checks.

Every workload runs on the standard experiment world's networks (the
scale-0.3 specs of ``default_internet``), re-drawn from seeds derived
from the one ``--seed`` argument.  Keeping the network structure fixed
keeps the amount of work nearly constant across seeds, while the
addresses, seeds, churn, faults and target list all change with it.
README.md says why each workload exists and which layers it loads.

A pass is one complete run of a workload.  Only the code inside
``with timer():`` counts towards ``wall_s``; output checks that need
the world at a given epoch run between timed segments, and so do the
host-speed readings that scale the timed seconds (see calibration.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.experiments import DEFAULT_BUDGET, DEFAULT_SCALE
from repro.campaign import Campaign, CampaignSpec
from repro.faults import BurstyLoss, FaultyGroundTruth
from repro.hitlist import LivingHitlist
from repro.ipv6.addrplane import fuse, pack
from repro.predictive import PredictiveAllocator
from repro.scanner.engine import ScanConfig
from repro.service import CampaignService, TenantPolicy
from repro.simnet.bgp import group_by_routed_prefix
from repro.simnet.dns import collect_seeds
from repro.simnet.dynamics import DynamicWorld
from repro.simnet.ground_truth import GroundTruth, assemble_internet, default_internet

# Modules the workloads import lazily inside the program; loading them
# here keeps their compile time in the untimed import phase.
import repro.scanner.checkpoint  # noqa: E402,F401
import repro.scanner.execution  # noqa: E402,F401

#: World seed whose network structure every benchmark world reuses.
STANDARD_WORLD_SEED = 42
PORT = 80
#: rescan: addresses generated (about 200 per seed), churn epochs scanned,
#: and the service tenants that share the list.
RESCAN_TARGETS = 490_000
RESCAN_EPOCHS = (1, 2, 3)
RESCAN_TENANTS = ("tenant-a", "tenant-b", "tenant-c")
RESCAN_SCAN = ScanConfig(retries=1)
RESCAN_QUANTUM = 4
#: rescan: each epoch, a fourth tenant runs one phased predictive
#: campaign over the routed prefixes holding the most seeds, at this
#: per-prefix budget.  README.md says why these prefixes.
EXPLORER = "explorer"
EXPLORE_PREFIXES = 8
EXPLORE_BUDGET = 500
EXPLORE_PHASES = 3

SEED_NAMES = ("world", "dns", "churn", "fault", "targets")


def derive_seeds(seed: int) -> dict[str, int]:
    """Every input seed of a run, derived from the one ``--seed``."""
    out = {}
    for name in SEED_NAMES:
        digest = hashlib.sha256(f"perfbench/{seed}/{name}".encode()).digest()
        out[name] = int.from_bytes(digest[:4], "big")
    return out


def rescan_targets(seed_addrs, targets_seed: int, total: int = RESCAN_TARGETS):
    """The rescan target list as sorted, distinct ``(hi, lo)`` columns.

    ``total`` addresses are shared out evenly over the seeds, so the
    list's size does not move with the seed count.  Per seed, half sit
    in the seed's /112: the seed itself and random values of its low 16
    bits.  The other half are random interface identifiers in the
    seed's /64.
    """
    rng = np.random.Generator(np.random.PCG64(targets_seed))
    hi, lo = pack(sorted(seed_addrs))
    per_seed = np.full(len(hi), total // len(hi))
    per_seed[: total % len(hi)] += 1
    near = per_seed // 2 - 1  # the seed itself makes up the half
    far = per_seed - per_seed // 2
    near_lo = (np.repeat(lo, near) & ~np.uint64(0xFFFF)) | rng.integers(
        0, 1 << 16, size=int(near.sum()), dtype=np.uint64
    )
    far_lo = rng.integers(0, 1 << 64, size=int(far.sum()), dtype=np.uint64)
    all_hi = np.concatenate([hi, np.repeat(hi, near), np.repeat(hi, far)])
    all_lo = np.concatenate([lo, near_lo, far_lo])
    _, first = np.unique(fuse(all_hi, all_lo), return_index=True)
    return all_hi[first], all_lo[first]


class CheckFailed(Exception):
    """An output check did not hold."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation (a campaign) of a pass, and what its checks found."""

    name: str
    probes: int = 0
    coverage: float = 0.0
    digest: str = ""
    error: str | None = None
    #: Probes charged beyond the campaign's budget (phased campaigns).
    overshoot: int = 0


@dataclass
class Pass:
    #: Raw timed seconds.
    wall: float
    ops: list[Op]
    #: Host-speed kernel seconds read around the timed segments.
    readings: list[float] = field(default_factory=list)
    #: rescan: each job's wait for its next service turn, in seconds.
    waits: list[float] = field(default_factory=list)
    #: rescan: bytes of state written (checkpoints, hitlist log).
    checkpoint_bytes: int = 0
    hitlist_log_bytes: int = 0
    #: Input sizes: prefixes, seeds, rescan targets, TCP/80 hosts.
    inputs: dict = field(default_factory=dict)

    @property
    def probes(self) -> int:
        return sum(op.probes for op in self.ops)


class Timer:
    """Accumulates the timed segments of a pass.

    With ``kernel`` (a host-speed reading, ``calibration.measure``),
    the kernel is read before every segment and once more by
    :meth:`finish`, outside the timed part.  With a tracer, each segment
    is also a ``workload`` root span, so the self time of those spans
    is the timed work no wrapped layer entry point accounts for.
    """

    def __init__(self, tracer=None, kernel=None):
        self.seconds = 0.0
        self.readings: list[float] = []
        self.tracer = tracer
        self.kernel = kernel

    @contextlib.contextmanager
    def __call__(self):
        if self.kernel is not None:
            self.readings.append(self.kernel())
        index = self.tracer.open("workload", "pass") if self.tracer else None
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - start
            if index is not None:
                self.tracer.close(index)

    def finish(self) -> None:
        if self.kernel is not None:
            self.readings.append(self.kernel())


@contextlib.contextmanager
def charged_to(op: Op):
    """Record an exception or failed check in the block as ``op``'s failure."""
    try:
        yield op
    except Exception as exc:  # the pass goes on; the failure is reported
        op.error = op.error or f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)


def operation(ops: list[Op], name: str):
    """Start recording one operation of a pass."""
    ops.append(Op(name))
    return charged_to(ops[-1])


def check_campaign(op: Op, result, truth, hosts: int) -> None:
    """Hits are real at this epoch; fill in probes, coverage and digest."""
    raw, clean = result.raw_hits, result.clean_hits
    require(clean <= raw, f"{op.name}: a clean hit is not a raw hit")
    base = truth.base if isinstance(truth, FaultyGroundTruth) else truth
    if raw:
        hi, lo = pack(sorted(raw))
        live = GroundTruth.responsive_many_arr(base, hi, lo, PORT)
        require(bool(live.all()), f"{op.name}: {int((~live).sum())} raw hits not responsive")
    op.probes = result.probes_sent
    op.coverage = len(clean) / hosts
    digest = hashlib.sha256()
    for part in (sorted(raw), sorted(clean), result.scan.stats.as_dict()):
        digest.update(json.dumps(part).encode())
    op.digest = digest.hexdigest()


def check_budget(op: Op, budget: int, groups) -> None:
    limit = budget * len(groups)
    require(op.probes <= limit, f"{op.name}: {op.probes} probes > budget {limit}")


def note_overshoot(op: Op, budget: int, groups) -> None:
    """Record, without failing, how far a phased campaign overran its budget.

    A phased campaign charges the §6.2 alias tests of its last phase
    after that phase has spent the remaining budget, so it can end
    over ``budget * prefixes`` (README.md, *Known program defect*).
    """
    op.overshoot = max(0, op.probes - budget * len(groups))


def last_event(path: str) -> str | None:
    last = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                last = line
    return json.loads(last).get("event") if last else None


@dataclass
class Setup:
    """A workload's inputs, built fresh for every pass."""

    internet: object
    seed_addrs: list[int]
    groups: dict
    workdir: str
    targets: tuple | None = None
    truth: object = None
    dynamic: DynamicWorld | None = None
    store: LivingHitlist | None = None
    service: CampaignService | None = None
    #: rescan: the explorer's prefixes and their seeds.
    explore: dict | None = None

    def close(self) -> None:
        if self.store is not None:
            self.store.close()


def build_world(seeds: dict[str, int], tracer=None):
    index = tracer.open("world_build", "setup") if tracer else None
    try:
        standard = default_internet(scale=DEFAULT_SCALE, rng_seed=STANDARD_WORLD_SEED)
        internet = assemble_internet(
            [network.spec for network in standard.networks],
            standard.registry,
            rng_seed=seeds["world"],
        )
    finally:
        if index is not None:
            tracer.close(index)
    seed_addrs = collect_seeds(internet, rng_seed=seeds["dns"]).addresses()
    groups = group_by_routed_prefix(seed_addrs, internet.bgp)
    return internet, seed_addrs, groups


# -- classic -----------------------------------------------------------


def setup_classic(seeds, workdir, tracer=None) -> Setup:
    internet, seed_addrs, groups = build_world(seeds, tracer)
    return Setup(internet, seed_addrs, groups, workdir, truth=internet.truth)


def run_classic(setup: Setup, timer: Timer) -> Pass:
    """The paper's §6 pass, as ``repro6 experiment`` runs it."""
    ops: list[Op] = []
    with operation(ops, "classic") as op:
        with timer():
            campaign = Campaign(
                setup.truth, setup.internet.bgp, setup.groups,
                CampaignSpec(budget=DEFAULT_BUDGET), name="classic",
            )
            result = campaign.run()
        check_campaign(op, result, setup.truth, setup.truth.host_count(PORT))
        check_budget(op, DEFAULT_BUDGET, setup.groups)
    timer.finish()
    return Pass(timer.seconds, ops, timer.readings)


# -- rescan ------------------------------------------------------------


def setup_rescan(seeds, workdir, tracer=None) -> Setup:
    internet, seed_addrs, groups = build_world(seeds, tracer)
    os.makedirs(workdir, exist_ok=True)
    truth = FaultyGroundTruth(internet.truth, BurstyLoss(seed=seeds["fault"]))
    service = CampaignService(truth, internet.bgp)
    for tenant in (*RESCAN_TENANTS, EXPLORER):
        service.register_tenant(tenant, TenantPolicy(quantum=RESCAN_QUANTUM))
    largest = sorted(groups, key=lambda p: (-len(groups[p]), str(p)))[:EXPLORE_PREFIXES]
    return Setup(
        internet, seed_addrs, groups, workdir,
        targets=rescan_targets(seed_addrs, seeds["targets"]),
        truth=truth,
        dynamic=DynamicWorld(internet, churn_seed=seeds["churn"]),
        store=LivingHitlist(path=os.path.join(workdir, "hitlist.jsonl")),
        service=service,
        explore={prefix: groups[prefix] for prefix in largest},
    )


def drain(service: CampaignService, jobs, waits: list[float]) -> None:
    """Step the service until idle, recording each job's wait for its turns.

    After every ``step()`` the job whose public state moved is the one
    that had the turn.  Its wait is the time from its submission, or
    from the end of its previous turn, to the start of this one.
    """
    def state(job_id):
        return service.progress(job_id), service.jobs[job_id].campaign.probes_sent

    last_turn = dict.fromkeys(jobs, time.perf_counter())
    before = {job_id: state(job_id) for job_id in jobs}
    while True:
        start = time.perf_counter()
        if not service.step():
            return
        end = time.perf_counter()
        for job_id in jobs:
            now = state(job_id)
            if now != before[job_id]:
                waits.append(start - last_turn[job_id])
                last_turn[job_id] = end
                before[job_id] = now


def run_rescan(setup: Setup, timer: Timer) -> Pass:
    """A longitudinal hitlist re-scan shared by service tenants.

    Each churn epoch advances the world, then each re-scan tenant
    re-scans its third of the target list as a checkpointed campaign
    while the explorer runs a phased predictive campaign; the service
    interleaves the four, and every re-scan outcome lands in the
    hitlist.
    """
    ops: list[Op] = []
    store, service = setup.store, setup.service
    hi, lo = setup.targets
    shares = {
        tenant: (hi[i :: len(RESCAN_TENANTS)].copy(), lo[i :: len(RESCAN_TENANTS)].copy())
        for i, tenant in enumerate(RESCAN_TENANTS)
    }
    waits: list[float] = []
    checkpoints = []
    rescan_op = None  # the hitlist check is charged to the last re-scan
    for epoch in RESCAN_EPOCHS:
        jobs = {}
        with timer():
            setup.dynamic.advance_to(epoch)
            for tenant, share in shares.items():
                path = os.path.join(setup.workdir, f"{tenant}-epoch-{epoch}.ckpt.jsonl")
                checkpoints.append(path)
                job_id = service.submit(
                    tenant, {}, CampaignSpec(budget=len(share[0]), scan_config=RESCAN_SCAN),
                    name=f"{tenant}-epoch-{epoch}", targets=share, checkpoint_path=path,
                )
                jobs[job_id] = (tenant, path)
            job_id = service.submit(
                EXPLORER, setup.explore,
                CampaignSpec(budget=EXPLORE_BUDGET, scan_config=RESCAN_SCAN),
                name=f"{EXPLORER}-epoch-{epoch}",
                allocation=PredictiveAllocator(phases=EXPLORE_PHASES),
            )
            jobs[job_id] = (EXPLORER, None)
            drain(service, jobs, waits)
            for job_id, (tenant, _) in jobs.items():
                result = service.jobs[job_id].campaign.result
                if tenant in shares and result is not None:
                    store.observe(epoch, shares[tenant], result.clean_hits)
        hosts = setup.truth.host_count(PORT)
        for job_id, (tenant, path) in jobs.items():
            job = service.jobs[job_id]
            with operation(ops, job.campaign.name) as op:
                if tenant != EXPLORER:
                    rescan_op = op
                require(job.state == "finished", f"{op.name}: job ended {job.state} ({job.error})")
                check_campaign(op, job.campaign.result, setup.truth, hosts)
                if tenant == EXPLORER:
                    note_overshoot(op, EXPLORE_BUDGET, setup.explore)
                    continue
                stats = job.campaign.result.scan.stats
                n = len(shares[tenant][0])
                require(
                    stats.probes_sent + stats.blacklisted == n,
                    f"{op.name}: {stats.probes_sent} first probes + "
                    f"{stats.blacklisted} blacklisted != {n} targets",
                )
                require(last_event(path) == "scan_complete", f"{op.name}: checkpoint incomplete")
    with charged_to(rescan_op) as op:
        with timer():
            store.snapshot()
            reopened = LivingHitlist.open(store.path)
        try:
            require(
                reopened.state_digest() == store.state_digest(),
                "hitlist: reopened store differs from the written one",
            )
        finally:
            reopened.close()
        op.digest += store.state_digest()
    timer.finish()
    return Pass(
        timer.seconds, ops, timer.readings, waits=waits,
        checkpoint_bytes=sum(os.path.getsize(p) for p in checkpoints if os.path.exists(p)),
        hitlist_log_bytes=os.path.getsize(store.path),
    )


WORKLOADS = {
    "classic": (setup_classic, run_classic),
    "rescan": (setup_rescan, run_rescan),
}
