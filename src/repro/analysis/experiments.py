"""Experiment drivers: one function per paper table and figure.

Each driver reproduces one evaluation artifact from the paper over the
simulated Internet (see DESIGN.md §4 for the full index).  Drivers
return structured row objects with a ``format_*`` helper that prints
the same rows/series the paper reports; the benchmark harness under
``benchmarks/`` and the CLI both call these functions.

Heavy shared work (building the simulation, the full per-prefix
6Gen + scan + dealias pass) is cached per parameter set so the figure
drivers can share one run the way the paper's sections share one scan.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass
from typing import Sequence

from ..campaign import Campaign, CampaignResult, CampaignSpec
from ..core.sixgen import run_6gen
from ..datasets.cdn import all_cdns
from ..ipv6.prefix import Prefix
from ..scanner.dealias import dealias
from ..scanner.engine import Scanner
from ..simnet.bgp import group_by_routed_prefix
from ..simnet.dns import SeedCollection, collect_seeds
from ..simnet.ground_truth import SimInternet, default_internet
from .metrics import (
    SEED_BUCKETS,
    AsShare,
    ClusterCensus,
    asn_cdf,
    bucket_label,
    cluster_census,
    dynamic_nybble_histogram,
    hits_per_prefix,
    quantiles,
    top_ases,
)
from .traintest import (
    TrainTestPoint,
    entropyip_generator,
    inverse_kfold,
    sixgen_generator,
)

#: Default per-prefix probe budget for the simulated runs.  The paper
#: uses 1 M per routed prefix against the real Internet; the simulation
#: is ~100× smaller, so 20 K preserves the budget-to-network ratio.
DEFAULT_BUDGET = 20_000

#: Default simulation scale (see :func:`repro.simnet.default_internet`).
DEFAULT_SCALE = 0.3


# ---------------------------------------------------------------------------
# Shared context and the full scan pipeline
# ---------------------------------------------------------------------------


@dataclass
class ExperimentContext:
    """The simulated Internet plus its seed snapshot and prefix groups."""

    internet: SimInternet
    seeds: SeedCollection
    groups: dict[Prefix, list[int]]

    @property
    def seed_addresses(self) -> list[int]:
        return self.seeds.addresses()


@functools.lru_cache(maxsize=4)
def standard_context(
    scale: float = DEFAULT_SCALE, rng_seed: int = 42, dns_seed: int = 7
) -> ExperimentContext:
    """Build (and cache) the standard simulation context."""
    internet = default_internet(scale=scale, rng_seed=rng_seed)
    seeds = collect_seeds(internet, rng_seed=dns_seed)
    groups = group_by_routed_prefix(seeds.addresses(), internet.bgp)
    return ExperimentContext(internet=internet, seeds=seeds, groups=groups)


def run_full_scan(
    context: ExperimentContext,
    budget: int,
    *,
    loose: bool = True,
    seed_addrs: Sequence[int] | None = None,
    port: int = 80,
) -> CampaignResult:
    """One §6 pass: 6Gen per routed prefix, a scan of one port, dealiasing.

    A :class:`~repro.campaign.Campaign` at default settings over the
    context's world.  ``seed_addrs`` replaces the context's seeds
    (regrouped by routed prefix); ``loose`` picks the range granularity
    (§6.3) and ``port`` the probed service.  Build the campaign
    yourself for scan configs, telemetry, checkpoints or generation
    workers.
    """
    if seed_addrs is None:
        groups = context.groups
    else:
        groups = group_by_routed_prefix(seed_addrs, context.internet.bgp)
    spec = CampaignSpec(budget=budget, port=port, loose=loose)
    return Campaign(
        context.internet.truth, context.internet.bgp, groups, spec
    ).run()


@functools.lru_cache(maxsize=4)
def standard_outcome(
    budget: int = DEFAULT_BUDGET, scale: float = DEFAULT_SCALE
) -> CampaignResult:
    """The cached standard run shared by Figures 3/5/6/7 and Table 1."""
    return run_full_scan(standard_context(scale), budget)


# ---------------------------------------------------------------------------
# Figure 2 — runtime vs number of seeds per routed prefix
# ---------------------------------------------------------------------------


@dataclass
class RuntimeRow:
    seed_count: int
    median_seconds: float
    runs: int


def fig2_runtime(
    seed_counts: Sequence[int] = (30, 100, 300, 1000),
    *,
    budget: int = 10_000,
    repeats: int = 3,
    scale: float = DEFAULT_SCALE,
) -> list[RuntimeRow]:
    """Median 6Gen execution time for prefixes of varying seed counts.

    Mirrors Figure 2: runtime grows with seeds but depends heavily on
    the seed structure.  Seed sets are drawn from the simulation's real
    prefixes when available and synthesised otherwise.
    """
    import random as random_mod

    context = standard_context(scale)
    pool = sorted(context.seed_addresses)
    rows = []
    for count in seed_counts:
        times = []
        for r in range(repeats):
            # Uniform random samples of the requested size approximate
            # the paper's median across prefixes of similar size while
            # keeping seed *structure* comparable between sizes.
            rng = random_mod.Random(1000 * count + r)
            subset = rng.sample(pool, min(count, len(pool)))
            start = time.perf_counter()
            run_6gen(subset, budget)
            times.append(time.perf_counter() - start)
        rows.append(
            RuntimeRow(
                seed_count=count,
                median_seconds=statistics.median(times),
                runs=repeats,
            )
        )
    return rows


def format_fig2(rows: Sequence[RuntimeRow]) -> str:
    lines = ["Figure 2: median 6Gen runtime vs seeds per prefix"]
    lines.append(f"{'seeds':>8} {'median (s)':>12} {'runs':>5}")
    for row in rows:
        lines.append(f"{row.seed_count:>8} {row.median_seconds:>12.4f} {row.runs:>5}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 3 — ASN CDFs; Table 1 — top ASes
# ---------------------------------------------------------------------------


@dataclass
class AsnCdfSeries:
    label: str
    points: list[tuple[int, float]]  # (rank, cumulative fraction)


def fig3_asn_cdf(
    budget: int = DEFAULT_BUDGET, scale: float = DEFAULT_SCALE
) -> list[AsnCdfSeries]:
    """Seed / aliased-hit / clean-hit distributions across ASNs (Fig. 3)."""
    context = standard_context(scale)
    outcome = standard_outcome(budget, scale)
    bgp = context.internet.bgp
    return [
        AsnCdfSeries("Seed Addresses", asn_cdf(context.seed_addresses, bgp)),
        AsnCdfSeries("Aliased Hits", asn_cdf(outcome.aliased_hits, bgp)),
        AsnCdfSeries("Non-Aliased Hits", asn_cdf(outcome.clean_hits, bgp)),
    ]


def format_fig3(series: Sequence[AsnCdfSeries]) -> str:
    lines = ["Figure 3: CDF of addresses across ASNs (rank -> cumulative %)"]
    for s in series:
        marks = [1, 2, 5, 10, 20, 50, 100]
        parts = []
        for rank, frac in s.points:
            if rank in marks:
                parts.append(f"top{rank}:{frac:5.1%}")
        lines.append(f"  {s.label:<18} {'  '.join(parts)}")
    return "\n".join(lines)


@dataclass
class Table1:
    seeds: list[AsShare]
    aliased: list[AsShare]
    clean: list[AsShare]


def table1_top_ases(
    budget: int = DEFAULT_BUDGET, scale: float = DEFAULT_SCALE, k: int = 10
) -> Table1:
    """Top-10 ASes for seeds, aliased hits, and dealiased hits (Table 1)."""
    context = standard_context(scale)
    outcome = standard_outcome(budget, scale)
    bgp = context.internet.bgp
    registry = context.internet.registry
    return Table1(
        seeds=top_ases(context.seed_addresses, bgp, registry, k),
        aliased=top_ases(outcome.aliased_hits, bgp, registry, k),
        clean=top_ases(outcome.clean_hits, bgp, registry, k),
    )


def format_table1(table: Table1) -> str:
    lines = []
    for title, rows in (
        ("(a) Seed Addresses", table.seeds),
        ("(b) Aliased Hits", table.aliased),
        ("(c) Non-Aliased Hits", table.clean),
    ):
        lines.append(f"Table 1{title}")
        lines.append(f"{'AS Name':<16} {'ASN':<9} {'count':>9}  {'share':>6}")
        lines.extend(str(r) for r in rows)
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# §6.3 — tight vs loose ranges
# ---------------------------------------------------------------------------


@dataclass
class TightLooseRow:
    mode: str
    raw_hits: int
    dealiased_hits: int


def tight_vs_loose(
    budget: int = DEFAULT_BUDGET, scale: float = DEFAULT_SCALE
) -> list[TightLooseRow]:
    """Raw and dealiased hit counts for both range granularities (§6.3).

    The paper: loose 56.7 M vs tight 55.9 M raw; 1.0 M vs 973 K after
    dealiasing — loose wins slightly on both and becomes the default.
    """
    context = standard_context(scale)
    rows = []
    for mode, loose in (("loose", True), ("tight", False)):
        outcome = (
            standard_outcome(budget, scale)
            if loose
            else run_full_scan(context, budget, loose=False)
        )
        rows.append(
            TightLooseRow(
                mode=mode,
                raw_hits=len(outcome.raw_hits),
                dealiased_hits=len(outcome.clean_hits),
            )
        )
    return rows


def format_tight_vs_loose(rows: Sequence[TightLooseRow]) -> str:
    lines = ["§6.3: tight vs loose cluster ranges"]
    lines.append(f"{'mode':<8} {'raw hits':>10} {'dealiased':>10}")
    for row in rows:
        lines.append(f"{row.mode:<8} {row.raw_hits:>10} {row.dealiased_hits:>10}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 4 — hits vs budget
# ---------------------------------------------------------------------------


@dataclass
class BudgetSweepRow:
    budget: int
    raw_hits: int
    dealiased_hits: int


def fig4_budget_sweep(
    budgets: Sequence[int] = (1_000, 2_500, 5_000, 10_000, 20_000, 40_000),
    scale: float = DEFAULT_SCALE,
) -> list[BudgetSweepRow]:
    """Hits vs per-prefix budget, with and without dealiasing (Fig. 4).

    The paper's shape: raw hits keep growing with budget (aliased
    regions absorb any budget) while dealiased hits plateau.
    """
    context = standard_context(scale)
    rows = []
    for budget in budgets:
        outcome = run_full_scan(context, budget)
        rows.append(
            BudgetSweepRow(
                budget=budget,
                raw_hits=len(outcome.raw_hits),
                dealiased_hits=len(outcome.clean_hits),
            )
        )
    return rows


def format_fig4(rows: Sequence[BudgetSweepRow]) -> str:
    lines = ["Figure 4: TCP/80 hits vs per-prefix budget"]
    lines.append(f"{'budget':>8} {'w/o dealiasing':>15} {'w/ dealiasing':>14}")
    for row in rows:
        lines.append(f"{row.budget:>8} {row.raw_hits:>15} {row.dealiased_hits:>14}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 5 — cluster censuses
# ---------------------------------------------------------------------------


@dataclass
class ClusterCdfBucket:
    bucket: str
    prefix_count: int
    singleton_quartiles: list[float]
    grown_quartiles: list[float]
    no_grown_fraction: float


def fig5_cluster_census(
    budget: int = DEFAULT_BUDGET, scale: float = DEFAULT_SCALE
) -> list[ClusterCdfBucket]:
    """Singleton/grown cluster distributions per seed bucket (Fig. 5)."""
    outcome = standard_outcome(budget, scale)
    census = cluster_census(outcome.run.results())
    buckets = []
    for low, high in SEED_BUCKETS:
        rows: list[ClusterCensus] = [
            c for c in census if low <= c.seed_count < high
        ]
        if not rows:
            continue
        singles = [c.singleton_clusters for c in rows]
        grown = [c.grown_clusters for c in rows]
        buckets.append(
            ClusterCdfBucket(
                bucket=bucket_label((low, high)),
                prefix_count=len(rows),
                singleton_quartiles=quantiles(singles),
                grown_quartiles=quantiles(grown),
                no_grown_fraction=sum(1 for g in grown if g == 0) / len(rows),
            )
        )
    return buckets


def format_fig5(buckets: Sequence[ClusterCdfBucket]) -> str:
    lines = ["Figure 5: cluster counts per routed prefix, by seed bucket"]
    lines.append(
        f"{'bucket':<14} {'prefixes':>8}  {'singletons q25/50/75':>22}"
        f"  {'grown q25/50/75':>18}  {'no-grown %':>10}"
    )
    for b in buckets:
        sq = "/".join(f"{int(v)}" for v in b.singleton_quartiles)
        gq = "/".join(f"{int(v)}" for v in b.grown_quartiles)
        lines.append(
            f"{b.bucket:<14} {b.prefix_count:>8}  {sq:>22}  {gq:>18}"
            f"  {b.no_grown_fraction:>10.1%}"
        )
    return "\n".join(lines)


@dataclass
class ClusterCdfSeries:
    """One Figure 5 curve: CDF of cluster counts for one seed bucket."""

    bucket: str
    kind: str  # "singleton" | "grown"
    points: list[tuple[float, float]]  # (cluster count, fraction of prefixes)


def fig5_cluster_cdfs(
    budget: int = DEFAULT_BUDGET, scale: float = DEFAULT_SCALE
) -> list[ClusterCdfSeries]:
    """The actual Figure 5 form: per-bucket CDFs of cluster counts."""
    from .metrics import cdf

    outcome = standard_outcome(budget, scale)
    census = cluster_census(outcome.run.results())
    series: list[ClusterCdfSeries] = []
    for low, high in SEED_BUCKETS:
        rows = [c for c in census if low <= c.seed_count < high]
        if not rows:
            continue
        label = bucket_label((low, high))
        for kind, values in (
            ("singleton", [c.singleton_clusters for c in rows]),
            ("grown", [c.grown_clusters for c in rows]),
        ):
            series.append(
                ClusterCdfSeries(
                    bucket=label,
                    kind=kind,
                    points=[(float(v), f) for v, f in cdf(values)],
                )
            )
    return series


# ---------------------------------------------------------------------------
# Figure 6 — dynamic nybble histogram
# ---------------------------------------------------------------------------


def fig6_dynamic_nybbles(
    budget: int = DEFAULT_BUDGET, scale: float = DEFAULT_SCALE
) -> list[float]:
    """Portion of prefixes with each nybble dynamic (Fig. 6, 0-indexed)."""
    outcome = standard_outcome(budget, scale)
    return dynamic_nybble_histogram(outcome.run.results())


def format_fig6(portions: Sequence[float]) -> str:
    lines = ["Figure 6: portion of routed prefixes with nybble dynamic"]
    lines.append("(1-based nybble index, as in the paper)")
    for i, portion in enumerate(portions, start=1):
        bar = "#" * int(portion * 50)
        lines.append(f"  nybble {i:>2}: {portion:6.1%} {bar}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 7 — hits per prefix by seed bucket
# ---------------------------------------------------------------------------


@dataclass
class HitsBucketRow:
    bucket: str
    prefix_count: int
    hit_quartiles: list[float]
    zero_hit_fraction: float


def fig7_hits_by_seeds(
    budget: int = DEFAULT_BUDGET, scale: float = DEFAULT_SCALE
) -> list[HitsBucketRow]:
    """Distribution of dealiased hits per prefix by seed bucket (Fig. 7)."""
    groups = standard_context(scale).groups
    counts = hits_per_prefix(standard_outcome(budget, scale).clean_hits, groups)
    rows = []
    for low, high in SEED_BUCKETS:
        values = [
            counts[prefix]
            for prefix, seeds in groups.items()
            if low <= len(seeds) < high
        ]
        if not values:
            continue
        rows.append(
            HitsBucketRow(
                bucket=bucket_label((low, high)),
                prefix_count=len(values),
                hit_quartiles=quantiles(values),
                zero_hit_fraction=sum(1 for v in values if v == 0) / len(values),
            )
        )
    return rows


def format_fig7(rows: Sequence[HitsBucketRow]) -> str:
    lines = ["Figure 7: dealiased hits per routed prefix, by seed bucket"]
    lines.append(
        f"{'bucket':<14} {'prefixes':>8}  {'hits q25/50/75':>16}  {'zero-hit %':>10}"
    )
    for row in rows:
        hq = "/".join(f"{int(v)}" for v in row.hit_quartiles)
        lines.append(
            f"{row.bucket:<14} {row.prefix_count:>8}  {hq:>16}"
            f"  {row.zero_hit_fraction:>10.1%}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 2 — seed downsampling
# ---------------------------------------------------------------------------


@dataclass
class DownsampleRow:
    level: float
    raw_hits: int
    raw_vs_all: float
    dealiased_hits: int
    dealiased_vs_all: float


def table2_downsampling(
    levels: Sequence[float] = (0.01, 0.10, 0.25, 1.0),
    budget: int = DEFAULT_BUDGET,
    scale: float = DEFAULT_SCALE,
) -> list[DownsampleRow]:
    """Hits when 6Gen runs on downsampled seed sets (Table 2).

    The paper's headline: degradation is sub-linear — a 10 % sample
    still finds 71 % of the dealiased hits of the full set.
    """
    context = standard_context(scale)
    results: dict[float, tuple[int, int]] = {}
    for level in sorted(set(levels) | {1.0}):
        if level == 1.0:
            outcome = standard_outcome(budget, scale)
        else:
            sample_addrs = context.seeds.downsample(level).addresses()
            outcome = run_full_scan(context, budget, seed_addrs=sample_addrs)
        results[level] = (len(outcome.raw_hits), len(outcome.clean_hits))
    full_raw, full_clean = results[1.0]
    rows = []
    for level in levels:
        raw, clean = results[level]
        rows.append(
            DownsampleRow(
                level=level,
                raw_hits=raw,
                raw_vs_all=raw / full_raw if full_raw else 0.0,
                dealiased_hits=clean,
                dealiased_vs_all=clean / full_clean if full_clean else 0.0,
            )
        )
    return rows


def format_table2(rows: Sequence[DownsampleRow]) -> str:
    lines = ["Table 2: seed downsampling"]
    lines.append(
        f"{'level':>6}  {'raw hits':>9} {'% vs all':>9}  "
        f"{'dealiased':>9} {'% vs all':>9}"
    )
    for row in rows:
        lines.append(
            f"{row.level:>6.0%}  {row.raw_hits:>9} {row.raw_vs_all:>9.1%}  "
            f"{row.dealiased_hits:>9} {row.dealiased_vs_all:>9.1%}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# §6.7.1 — name-server seeds
# ---------------------------------------------------------------------------


@dataclass
class NsSeedResult:
    ns_seed_count: int
    full_seed_count: int
    ns_raw_hits: int
    ns_dealiased_hits: int
    full_raw_hits: int
    full_dealiased_hits: int

    @property
    def raw_ratio(self) -> float:
        """How many times more raw hits the full seed set finds."""
        return self.full_raw_hits / self.ns_raw_hits if self.ns_raw_hits else float("inf")

    @property
    def dealiased_ratio(self) -> float:
        return (
            self.full_dealiased_hits / self.ns_dealiased_hits
            if self.ns_dealiased_hits
            else float("inf")
        )


def ns_seed_experiment(
    budget: int = DEFAULT_BUDGET, scale: float = DEFAULT_SCALE
) -> NsSeedResult:
    """Run 6Gen on name-server seeds only (§6.7.1).

    The paper: NS-only seeds still find many hosts of *other* types,
    though the full seed set finds ~5× more dealiased and ~19× more
    raw hits.
    """
    context = standard_context(scale)
    ns_addrs = context.seeds.ns_addresses()
    ns_outcome = run_full_scan(context, budget, seed_addrs=ns_addrs)
    full_outcome = standard_outcome(budget, scale)
    return NsSeedResult(
        ns_seed_count=len(ns_addrs),
        full_seed_count=len(context.seed_addresses),
        ns_raw_hits=len(ns_outcome.raw_hits),
        ns_dealiased_hits=len(ns_outcome.clean_hits),
        full_raw_hits=len(full_outcome.raw_hits),
        full_dealiased_hits=len(full_outcome.clean_hits),
    )


def format_ns_experiment(result: NsSeedResult) -> str:
    return "\n".join(
        [
            "§6.7.1: name-server seeds vs full seed set",
            f"  NS seeds: {result.ns_seed_count} (full: {result.full_seed_count})",
            f"  NS-only   raw hits: {result.ns_raw_hits:>8}   dealiased: {result.ns_dealiased_hits:>8}",
            f"  full-set  raw hits: {result.full_raw_hits:>8}   dealiased: {result.full_dealiased_hits:>8}",
            f"  full/NS ratios: raw {result.raw_ratio:.1f}x, dealiased {result.dealiased_ratio:.1f}x",
        ]
    )


# ---------------------------------------------------------------------------
# §6.6 — churn analysis
# ---------------------------------------------------------------------------


@dataclass
class ChurnAnalysis:
    """Per-prefix comparison of hits against inactive seeds (§6.6)."""

    prefixes_considered: int
    prefixes_net_positive: int
    total_inactive_seeds: int
    total_clean_hits: int

    @property
    def net_positive_fraction(self) -> float:
        """Share of prefixes whose hits exceed their inactive seeds.

        The paper: positive for a quarter of prefixes — proof 6Gen finds
        genuinely new addresses, not just churned ones.
        """
        if not self.prefixes_considered:
            return 0.0
        return self.prefixes_net_positive / self.prefixes_considered


def churn_analysis(
    budget: int = DEFAULT_BUDGET, scale: float = DEFAULT_SCALE
) -> ChurnAnalysis:
    """§6.6's churn check: subtract inactive seeds from hits per prefix."""
    context = standard_context(scale)
    outcome = standard_outcome(budget, scale)
    truth = context.internet.truth
    counts = hits_per_prefix(outcome.clean_hits, context.groups)
    considered = 0
    net_positive = 0
    total_inactive = 0
    for prefix, seeds in context.groups.items():
        inactive = sum(1 for s in seeds if not truth.is_responsive(s))
        total_inactive += inactive
        considered += 1
        if counts[prefix] - inactive > 0:
            net_positive += 1
    return ChurnAnalysis(
        prefixes_considered=considered,
        prefixes_net_positive=net_positive,
        total_inactive_seeds=total_inactive,
        total_clean_hits=len(outcome.clean_hits),
    )


def format_churn(analysis: ChurnAnalysis) -> str:
    return "\n".join(
        [
            "§6.6: churn analysis (hits minus inactive seeds, per prefix)",
            f"  prefixes considered: {analysis.prefixes_considered}",
            f"  inactive (churned) seeds: {analysis.total_inactive_seeds}",
            f"  dealiased hits: {analysis.total_clean_hits}",
            f"  prefixes with net-new discovery: "
            f"{analysis.prefixes_net_positive} "
            f"({analysis.net_positive_fraction:.0%})",
        ]
    )


# ---------------------------------------------------------------------------
# §6.2 — aliasing census
# ---------------------------------------------------------------------------


@dataclass
class AliasingCensus:
    hit_prefixes_96: int
    aliased_prefixes_96: int
    aliased_hit_fraction: float
    aliased_asns: list[str]
    top_aliased_shares: list[AsShare]
    #: §6.2 roll-up: "the /96 prefixes corresponded to N routed
    #: prefixes in M ASes".
    aliased_routed_prefixes: int = 0
    aliased_as_count: int = 0


def aliasing_census(
    budget: int = DEFAULT_BUDGET, scale: float = DEFAULT_SCALE
) -> AliasingCensus:
    """The §6.2 numbers: /96 aliasing rate, AS concentration."""
    outcome = standard_outcome(budget, scale)
    internet = standard_context(scale).internet
    from ..scanner.dealias import summarize_aliased_prefixes

    summary = summarize_aliased_prefixes(
        outcome.report.aliased_prefixes, internet.bgp
    )
    return AliasingCensus(
        hit_prefixes_96=outcome.report.prefixes_tested,
        aliased_prefixes_96=len(outcome.report.aliased_prefixes),
        aliased_hit_fraction=outcome.report.aliased_fraction(),
        aliased_asns=sorted(
            internet.as_name(asn) for asn in outcome.report.aliased_asns
        ),
        top_aliased_shares=top_ases(
            outcome.aliased_hits, internet.bgp, internet.registry, 5
        ),
        aliased_routed_prefixes=len(summary.routed_prefixes),
        aliased_as_count=len(summary.asns | set(outcome.report.aliased_asns)),
    )


def format_aliasing_census(census: AliasingCensus) -> str:
    lines = [
        "§6.2: aliasing census",
        f"  /96 prefixes with hits: {census.hit_prefixes_96}",
        f"  of which aliased:       {census.aliased_prefixes_96}",
        f"  aliased share of hits:  {census.aliased_hit_fraction:.1%}",
        f"  aliased space spans {census.aliased_routed_prefixes} routed "
        f"prefixes in {census.aliased_as_count} ASes",
        f"  ASes aliased finer than /96: {', '.join(census.aliased_asns) or '(none)'}",
        "  top ASes by aliased hits:",
    ]
    lines.extend("    " + str(r) for r in census.top_aliased_shares)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figures 8 & 9 — 6Gen vs Entropy/IP on the CDN datasets
# ---------------------------------------------------------------------------

#: Budget sweep for the CDN comparisons; the paper sweeps to 1 M, the
#: scaled datasets saturate by ~100 K.
CDN_BUDGETS: tuple[int, ...] = (5_000, 10_000, 25_000, 50_000, 100_000)


@dataclass
class CdnCurve:
    cdn: str
    algorithm: str
    points: list[TrainTestPoint]


def fig8_traintest(
    budgets: Sequence[int] = CDN_BUDGETS,
    *,
    dataset_size: int = 10_000,
    folds_to_run: int = 1,
    cdn_indices: Sequence[int] = (1, 2, 3, 4, 5),
) -> list[CdnCurve]:
    """Train-and-test curves for 6Gen and Entropy/IP on CDN 1–5 (Fig. 8)."""
    curves = []
    for cdn in all_cdns(dataset_size=dataset_size):
        if int(cdn.name[-1]) not in cdn_indices:
            continue
        for label, generator in (
            ("6Gen", sixgen_generator),
            ("Entropy/IP", entropyip_generator),
        ):
            points = inverse_kfold(
                cdn.addresses,
                generator,
                budgets,
                folds_to_run=folds_to_run,
            )
            curves.append(CdnCurve(cdn=cdn.name, algorithm=label, points=points))
    return curves


def format_fig8(curves: Sequence[CdnCurve]) -> str:
    lines = ["Figure 8: fraction of test addresses found (train-and-test)"]
    budgets = [p.budget for p in curves[0].points] if curves else []
    header = f"{'CDN':<6} {'algorithm':<11} " + " ".join(
        f"{b//1000:>6}k" for b in budgets
    )
    lines.append(header)
    for curve in curves:
        values = " ".join(f"{p.fraction:>7.3f}" for p in curve.points)
        lines.append(f"{curve.cdn:<6} {curve.algorithm:<11} {values}")
    return "\n".join(lines)


@dataclass
class CdnScanCurve:
    cdn: str
    algorithm: str
    budgets: list[int]
    raw_hits: list[int]
    filtered_hits: list[int]


def fig9_cdn_scan(
    budgets: Sequence[int] = CDN_BUDGETS,
    *,
    dataset_size: int = 10_000,
    train_fraction: float = 0.1,
    cdn_indices: Sequence[int] = (1, 2, 3, 4, 5),
) -> list[CdnScanCurve]:
    """Active-scan hit counts per CDN, raw and alias-filtered (Fig. 9)."""
    from .traintest import split_folds

    curves = []
    for cdn in all_cdns(dataset_size=dataset_size):
        if int(cdn.name[-1]) not in cdn_indices:
            continue
        folds = split_folds(cdn.addresses, k=round(1 / train_fraction), rng_seed=0)
        train = folds[0]
        for label, generator in (
            ("6Gen", sixgen_generator),
            ("Entropy/IP", entropyip_generator),
        ):
            raw_hits, filtered_hits = [], []
            for budget in budgets:
                # Measure *discovery*: the training seeds are known
                # responsive, so they are excluded from the scan.
                targets = generator(train, budget) - set(train)
                scanner = Scanner(cdn.truth)
                scan = scanner.scan(targets)
                report = dealias(scan.hits, scanner, cdn.bgp, as_inspection=False)
                raw_hits.append(len(scan.hits))
                filtered_hits.append(len(report.clean_hits))
            curves.append(
                CdnScanCurve(
                    cdn=cdn.name,
                    algorithm=label,
                    budgets=list(budgets),
                    raw_hits=raw_hits,
                    filtered_hits=filtered_hits,
                )
            )
    return curves


def format_fig9(curves: Sequence[CdnScanCurve]) -> str:
    lines = ["Figure 9: TCP/80 hits in CDN networks"]
    if curves:
        header = f"{'CDN':<6} {'algorithm':<11} {'kind':<9} " + " ".join(
            f"{b//1000:>6}k" for b in curves[0].budgets
        )
        lines.append(header)
    for curve in curves:
        raw = " ".join(f"{h:>7}" for h in curve.raw_hits)
        filt = " ".join(f"{h:>7}" for h in curve.filtered_hits)
        lines.append(f"{curve.cdn:<6} {curve.algorithm:<11} {'raw':<9} {raw}")
        lines.append(f"{curve.cdn:<6} {curve.algorithm:<11} {'filtered':<9} {filt}")
    return "\n".join(lines)
