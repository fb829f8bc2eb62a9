"""§8 exploration drivers: the paper's explicitly posed open questions.

The paper's Future Work section asks three concrete questions this
module answers experimentally against the simulation:

* **Cross-protocol seeding** — "how do 6Gen and Entropy/IP perform when
  seeking SMTP or SSH servers?"  We seed from TCP/80-responsive hosts
  and scan the generated targets on a different port.
* **Seed prefiltering** — "do their predictions differ when run on only
  active seeds (seeds freshly probed for responsiveness), or on seeds
  that are first dealiased?"
* **Budget allocation** — "a routed prefix's budget could be dependent
  on the number of seeds within … What the most suitable budget
  allocation policy is … is still an open question."  We compare the
  static policy against seed-proportional allocation at equal total
  budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..campaign import generate_per_prefix
from ..core.feedback import run_adaptive
from ..scanner.dealias import dealias
from ..scanner.engine import Scanner
from ..simnet.bgp import group_by_routed_prefix
from .experiments import (
    DEFAULT_BUDGET,
    DEFAULT_SCALE,
    run_full_scan,
    standard_context,
    standard_outcome,
)


# ---------------------------------------------------------------------------
# Cross-protocol seeding
# ---------------------------------------------------------------------------


@dataclass
class CrossProtocolResult:
    seed_port: int
    target_port: int
    seed_count: int
    targets_generated: int
    hits_on_target_port: int
    true_hosts_on_target_port: int

    @property
    def coverage(self) -> float:
        """Fraction of the target-port population discovered."""
        if not self.true_hosts_on_target_port:
            return 0.0
        return self.hits_on_target_port / self.true_hosts_on_target_port


def cross_protocol_experiment(
    seed_port: int = 80,
    target_port: int = 443,
    budget: int = DEFAULT_BUDGET,
    scale: float = DEFAULT_SCALE,
) -> CrossProtocolResult:
    """Seed from one service's hosts, hunt another service (§8).

    Seeds are the simulation's DNS-visible hosts that respond on
    ``seed_port``; generated targets are scanned on ``target_port``.
    Because dual-stack services cluster in the same subnets, coverage
    should stay high — the paper's §6.7.1 finding generalised.
    """
    context = standard_context(scale)
    truth = context.internet.truth
    seeds = [
        a for a in context.seed_addresses if truth.is_responsive(a, seed_port)
    ]
    groups = group_by_routed_prefix(seeds, context.internet.bgp)
    run = generate_per_prefix(groups, budget)
    scanner = Scanner(truth)
    scan = scanner.scan(run.all_targets(), port=target_port)
    report = dealias(scan.hits, scanner, context.internet.bgp, port=target_port)
    return CrossProtocolResult(
        seed_port=seed_port,
        target_port=target_port,
        seed_count=len(seeds),
        targets_generated=len(run.all_targets()),
        hits_on_target_port=len(report.clean_hits),
        true_hosts_on_target_port=truth.host_count(target_port),
    )


def format_cross_protocol(result: CrossProtocolResult) -> str:
    return "\n".join(
        [
            f"§8 cross-protocol: TCP/{result.seed_port} seeds -> "
            f"TCP/{result.target_port} scan",
            f"  seeds: {result.seed_count}",
            f"  targets: {result.targets_generated}",
            f"  dealiased TCP/{result.target_port} hits: "
            f"{result.hits_on_target_port} of "
            f"{result.true_hosts_on_target_port} real hosts "
            f"({result.coverage:.1%} coverage)",
        ]
    )


# ---------------------------------------------------------------------------
# Probe-type comparison (TCP/80 vs ICMPv6)
# ---------------------------------------------------------------------------


@dataclass
class ProbeTypeRow:
    probe: str
    raw_hits: int
    dealiased_hits: int
    true_population: int

    @property
    def coverage(self) -> float:
        if not self.true_population:
            return 0.0
        return self.dealiased_hits / self.true_population


def probe_type_experiment(
    budget: int = DEFAULT_BUDGET, scale: float = DEFAULT_SCALE
) -> list[ProbeTypeRow]:
    """TCP/80 SYN scanning vs ICMPv6 echo scanning on the same targets.

    The Entropy/IP authors evaluated with ICMPv6 pings, the 6Gen paper
    with TCP/80 SYNs; this driver quantifies the difference in the
    simulation: ping reaches every active host (a larger population),
    TCP/80 only web hosts, with aliased regions answering both.
    """
    from ..simnet.ground_truth import ICMPV6

    context = standard_context(scale)
    truth = context.internet.truth
    rows = []
    for label, port in (("TCP/80", 80), ("ICMPv6", ICMPV6)):
        outcome = (
            standard_outcome(budget, scale)
            if port == 80
            else run_full_scan(context, budget, port=port)
        )
        rows.append(
            ProbeTypeRow(
                probe=label,
                raw_hits=len(outcome.raw_hits),
                dealiased_hits=len(outcome.clean_hits),
                true_population=truth.host_count(port),
            )
        )
    return rows


def format_probe_types(rows: Sequence[ProbeTypeRow]) -> str:
    lines = ["probe-type comparison (same targets, different probes)"]
    lines.append(
        f"{'probe':<8} {'raw hits':>9} {'dealiased':>10} "
        f"{'population':>11} {'coverage':>9}"
    )
    for row in rows:
        lines.append(
            f"{row.probe:<8} {row.raw_hits:>9} {row.dealiased_hits:>10} "
            f"{row.true_population:>11} {row.coverage:>9.1%}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Host-type seed slices (§6.7.1 generalised)
# ---------------------------------------------------------------------------


@dataclass
class SeedTypeRow:
    record_type: str
    seed_count: int
    raw_hits: int
    dealiased_hits: int


def seed_type_experiment(
    budget: int = DEFAULT_BUDGET, scale: float = DEFAULT_SCALE
) -> list[SeedTypeRow]:
    """Run 6Gen on per-record-type seed slices (NS, MX, full AAAA).

    Generalises the paper's §6.7.1 name-server experiment: seeds of a
    single host type still discover hosts of other types, with smaller
    slices finding proportionally fewer.
    """
    from ..simnet.dns import seeds_of_type

    context = standard_context(scale)
    all_seeds = context.seed_addresses
    rows = []
    for record_type, seeds in (
        ("AAAA (all)", all_seeds),
        ("NS", context.seeds.ns_addresses()),
        ("MX", seeds_of_type(context.seeds, ["MX"])),
    ):
        if not seeds:
            rows.append(SeedTypeRow(record_type, 0, 0, 0))
            continue
        outcome = (
            standard_outcome(budget, scale)
            if seeds is all_seeds
            else run_full_scan(context, budget, seed_addrs=seeds)
        )
        rows.append(
            SeedTypeRow(
                record_type=record_type,
                seed_count=len(seeds),
                raw_hits=len(outcome.raw_hits),
                dealiased_hits=len(outcome.clean_hits),
            )
        )
    return rows


def format_seed_types(rows: Sequence[SeedTypeRow]) -> str:
    lines = ["§6.7.1 generalised: seeds sliced by DNS record type"]
    lines.append(f"{'record type':<12} {'seeds':>7} {'raw hits':>9} {'dealiased':>10}")
    for row in rows:
        lines.append(
            f"{row.record_type:<12} {row.seed_count:>7} {row.raw_hits:>9} "
            f"{row.dealiased_hits:>10}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Seed prefiltering
# ---------------------------------------------------------------------------


@dataclass
class PrefilterRow:
    variant: str
    seed_count: int
    raw_hits: int
    dealiased_hits: int
    new_dealiased_hits: int


def seed_prefilter_experiment(
    budget: int = DEFAULT_BUDGET, scale: float = DEFAULT_SCALE
) -> list[PrefilterRow]:
    """Compare raw, liveness-filtered, and dealiased seed inputs (§8)."""
    context = standard_context(scale)
    truth = context.internet.truth
    all_seeds = context.seed_addresses

    active = [a for a in all_seeds if truth.is_responsive(a, 80)]
    dealiased_active = [a for a in active if not truth.is_aliased(a, 80)]

    rows = []
    for variant, seeds in (
        ("all seeds", all_seeds),
        ("active seeds", active),
        ("active+dealiased", dealiased_active),
    ):
        outcome = (
            standard_outcome(budget, scale)
            if seeds is all_seeds
            else run_full_scan(context, budget, seed_addrs=seeds)
        )
        rows.append(
            PrefilterRow(
                variant=variant,
                seed_count=len(seeds),
                raw_hits=len(outcome.raw_hits),
                dealiased_hits=len(outcome.clean_hits),
                new_dealiased_hits=len(outcome.clean_hits - set(seeds)),
            )
        )
    return rows


def format_prefilter(rows: Sequence[PrefilterRow]) -> str:
    lines = ["§8 seed prefiltering"]
    lines.append(
        f"{'variant':<18} {'seeds':>7} {'raw hits':>9} {'dealiased':>10} {'new':>7}"
    )
    for row in rows:
        lines.append(
            f"{row.variant:<18} {row.seed_count:>7} {row.raw_hits:>9} "
            f"{row.dealiased_hits:>10} {row.new_dealiased_hits:>7}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Budget allocation policies
# ---------------------------------------------------------------------------


@dataclass
class AllocationRow:
    policy: str
    total_budget: int
    raw_hits: int
    dealiased_hits: int


def budget_allocation_experiment(
    budget_per_prefix: int = DEFAULT_BUDGET // 4,
    scale: float = DEFAULT_SCALE,
) -> list[AllocationRow]:
    """Static vs seed-proportional budget allocation at equal totals (§8)."""
    context = standard_context(scale)
    groups = context.groups
    prefix_count = len(groups)
    seed_total = sum(len(v) for v in groups.values())
    total_budget = budget_per_prefix * prefix_count
    per_seed = max(1, total_budget // seed_total)

    scanner = Scanner(context.internet.truth)
    rows = []
    for policy_name, run in (
        ("static", generate_per_prefix(groups, budget_per_prefix)),
        (
            "seed-proportional",
            generate_per_prefix(
                groups,
                {prefix: per_seed * len(seeds) for prefix, seeds in groups.items()},
            ),
        ),
    ):
        scan = scanner.scan(run.all_targets())
        report = dealias(scan.hits, scanner, context.internet.bgp)
        rows.append(
            AllocationRow(
                policy=policy_name,
                total_budget=sum(r.budget for r in run.runs.values()),
                raw_hits=len(scan.hits),
                dealiased_hits=len(report.clean_hits),
            )
        )
    return rows


def format_allocation(rows: Sequence[AllocationRow]) -> str:
    lines = ["§8 budget allocation policies (equal total budget)"]
    lines.append(f"{'policy':<19} {'total budget':>13} {'raw hits':>9} {'dealiased':>10}")
    for row in rows:
        lines.append(
            f"{row.policy:<19} {row.total_budget:>13} {row.raw_hits:>9} "
            f"{row.dealiased_hits:>10}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Adaptive (feedback) vs classic pipeline
# ---------------------------------------------------------------------------


@dataclass
class AdaptiveComparisonRow:
    pipeline: str
    probes: int
    real_hits: int
    aliased_responses: int

    @property
    def efficiency(self) -> float:
        """Real hosts discovered per probe."""
        return self.real_hits / self.probes if self.probes else 0.0


def adaptive_vs_classic_experiment(
    budget: int = 8_000, scale: float = 0.15, asn: int = 20940
) -> list[AdaptiveComparisonRow]:
    """§8 scanner integration: feedback loop vs generate-then-scan.

    Runs both pipelines on one partly aliased network with the same
    probe budget and compares probe efficiency.
    """
    from ..core.sixgen import run_6gen
    from ..simnet.dns import collect_seeds
    from ..simnet.ground_truth import default_internet

    internet = default_internet(scale=scale)
    truth = internet.truth
    network = internet.network_for_asn(asn)[0]
    seeds = [
        s
        for s in collect_seeds(internet).addresses()
        if network.spec.routed_prefix.contains(s)
    ]

    scanner = Scanner(truth)
    classic = run_6gen(seeds, budget)
    scan = scanner.scan(classic.new_targets(seeds))
    classic_real = {h for h in scan.hits if not truth.is_aliased(h)}

    scanner2 = Scanner(truth)
    adaptive = run_adaptive(seeds, scanner2, budget, rounds=2)
    adaptive_real = {h for h in adaptive.hits if not truth.is_aliased(h)}

    return [
        AdaptiveComparisonRow(
            pipeline="classic",
            probes=scan.stats.probes_sent,
            real_hits=len(classic_real),
            aliased_responses=len(scan.hits) - len(classic_real),
        ),
        AdaptiveComparisonRow(
            pipeline="adaptive",
            probes=adaptive.probes_used,
            real_hits=len(adaptive_real),
            aliased_responses=len(adaptive.hits) - len(adaptive_real),
        ),
    ]


def format_adaptive_comparison(rows: Sequence[AdaptiveComparisonRow]) -> str:
    lines = ["§8 scanner integration: classic vs adaptive pipeline"]
    lines.append(
        f"{'pipeline':<10} {'probes':>8} {'real hits':>10} "
        f"{'aliased resp.':>14} {'hits/probe':>11}"
    )
    for row in rows:
        lines.append(
            f"{row.pipeline:<10} {row.probes:>8} {row.real_hits:>10} "
            f"{row.aliased_responses:>14} {row.efficiency:>11.4f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Predictive (phased, budget-aware) vs classic allocation
# ---------------------------------------------------------------------------


@dataclass
class PredictiveRow:
    """One (policy, budget-fraction) point on the probes-vs-coverage curve."""

    policy: str
    budget_fraction: float
    total_budget: int
    probes_sent: int
    raw_hits: int
    dealiased_hits: int
    coverage: float


def predictive_allocation_experiment(
    budget_per_prefix: int = DEFAULT_BUDGET // 4,
    scale: float = DEFAULT_SCALE,
    phases: int = 3,
    fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    port: int = 80,
) -> list[PredictiveRow]:
    """Classic static split vs predictive re-allocation, per budget point.

    At every budget fraction both pipelines get the same total budget;
    the predictive one runs the phased campaign loop (uniform pilot,
    then re-split by modelled hit rate).  Coverage is dealiased hits
    over the world's responsive hosts — the §8 question is how much
    coverage a budget buys, and how much budget a coverage level needs.
    """
    from ..campaign import Campaign, CampaignSpec
    from ..predictive import PredictiveAllocator, policy_labels

    context = standard_context(scale)
    internet = context.internet
    hosts = internet.truth.host_count(port)
    labels = policy_labels(internet)
    rows = []
    for fraction in fractions:
        budget = max(1, int(budget_per_prefix * fraction))
        for policy_name, allocation in (
            ("classic", None),
            (
                "predictive",
                PredictiveAllocator(phases=phases, policy_labels=labels),
            ),
        ):
            spec = CampaignSpec(budget=budget, port=port)
            campaign = Campaign(
                internet.truth, internet.bgp, context.groups, spec,
                allocation=allocation,
            )
            result = campaign.run()
            prefixes = len(campaign.progress) if allocation else len(
                context.groups
            )
            rows.append(
                PredictiveRow(
                    policy=policy_name,
                    budget_fraction=fraction,
                    total_budget=budget * prefixes,
                    probes_sent=result.probes_sent,
                    raw_hits=len(result.raw_hits),
                    dealiased_hits=len(result.clean_hits),
                    coverage=len(result.clean_hits) / hosts if hosts else 0.0,
                )
            )
    return rows


def format_predictive(rows: Sequence[PredictiveRow]) -> str:
    lines = ["§8 predictive allocation: probes vs coverage (equal budgets)"]
    lines.append(
        f"{'policy':<11} {'fraction':>8} {'budget':>8} {'probes':>8} "
        f"{'dealiased':>10} {'coverage':>9}"
    )
    for row in rows:
        lines.append(
            f"{row.policy:<11} {row.budget_fraction:>8.2f} "
            f"{row.total_budget:>8} {row.probes_sent:>8} "
            f"{row.dealiased_hits:>10} {row.coverage:>9.2%}"
        )
    return "\n".join(lines)
