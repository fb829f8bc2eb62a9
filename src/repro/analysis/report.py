"""Scan-report generation: one document summarising a full §6 run.

Produces a markdown report combining every §6 analysis for a single
campaign result — seed statistics, target generation totals, hit counts,
the aliasing census, Table 1-style AS breakdowns, cluster censuses and
the dynamic-nybble profile.  The CLI's ``report`` subcommand and the
benchmark harness both emit it; it is the document a measurement team
would circulate after a scan campaign.
"""

from __future__ import annotations

from typing import Sequence

from ..campaign import CampaignResult
from .experiments import ExperimentContext
from .metrics import (
    SEED_BUCKETS,
    AsShare,
    bucket_label,
    cluster_census,
    dynamic_nybble_histogram,
    hits_per_prefix,
    quantiles,
    top_ases,
)


def _as_table(rows: Sequence[AsShare]) -> list[str]:
    lines = ["| AS | ASN | addresses | share |", "|---|---|---|---|"]
    for row in rows:
        lines.append(
            f"| {row.name} | {row.asn} | {row.count} | {row.share:.1%} |"
        )
    if not rows:
        lines.append("| (none) | | | |")
    return lines


def scan_report(
    context: ExperimentContext,
    budget: int,
    result: CampaignResult,
    title: str = "IPv6 scan report",
) -> str:
    """Render the full markdown report for one campaign over ``context``.

    ``budget`` is the campaign's per-prefix probe budget.
    """
    internet = context.internet
    seeds = context.seed_addresses
    lines: list[str] = [f"# {title}", ""]

    # --- run summary -------------------------------------------------------
    new_clean = result.clean_hits - set(seeds)
    lines += [
        "## Run summary",
        "",
        f"* routed prefixes with seeds: **{len(context.groups)}**",
        f"* unique seed addresses: **{len(seeds)}**",
        f"* per-prefix probe budget: **{budget}**",
        f"* targets generated: **{result.targets_generated}**",
        f"* probes sent: **{result.probes_sent}**",
        f"* raw TCP/80 hits: **{len(result.raw_hits)}**",
        f"* aliased hits: **{len(result.aliased_hits)}** "
        f"({result.report.aliased_fraction():.1%} of raw)",
        f"* dealiased hits: **{len(result.clean_hits)}** "
        f"(**{len(new_clean)}** newly discovered)",
        "",
    ]

    # --- aliasing census ----------------------------------------------------
    aliased_asn_names = sorted(
        internet.as_name(asn) for asn in result.report.aliased_asns
    )
    lines += [
        "## Aliasing census (§6.2 method)",
        "",
        f"* /96 prefixes containing hits: {result.report.prefixes_tested}",
        f"* of which aliased: {len(result.report.aliased_prefixes)}",
        f"* ASes aliased at finer granularity (AS-level /112 inspection): "
        f"{', '.join(aliased_asn_names) or '(none)'}",
        "",
    ]

    # --- AS breakdowns --------------------------------------------------------
    lines += ["## Top ASes", "", "### Seed addresses", ""]
    lines += _as_table(top_ases(seeds, internet.bgp, internet.registry, 10))
    lines += ["", "### Aliased hits", ""]
    lines += _as_table(
        top_ases(result.aliased_hits, internet.bgp, internet.registry, 10)
    )
    lines += ["", "### Dealiased hits", ""]
    lines += _as_table(
        top_ases(result.clean_hits, internet.bgp, internet.registry, 10)
    )
    lines.append("")

    # --- per-prefix hit distribution ------------------------------------------
    counts = hits_per_prefix(result.clean_hits, context.groups)
    lines += [
        "## Dealiased hits per routed prefix",
        "",
        "| seed bucket | prefixes | hits q25/q50/q75 | zero-hit share |",
        "|---|---|---|---|",
    ]
    for low, high in SEED_BUCKETS:
        values = [
            counts[prefix]
            for prefix, group in context.groups.items()
            if low <= len(group) < high
        ]
        if not values:
            continue
        q25, q50, q75 = quantiles(values)
        zero = sum(1 for v in values if v == 0) / len(values)
        lines.append(
            f"| {bucket_label((low, high))} | {len(values)} "
            f"| {int(q25)}/{int(q50)}/{int(q75)} | {zero:.0%} |"
        )
    lines.append("")

    # --- cluster census ----------------------------------------------------------
    census = cluster_census(result.run.results())
    total_grown = sum(c.grown_clusters for c in census)
    total_singletons = sum(c.singleton_clusters for c in census)
    lines += [
        "## 6Gen cluster census",
        "",
        f"* grown clusters: {total_grown}",
        f"* singleton clusters: {total_singletons}",
        f"* prefixes with no grown cluster: "
        f"{sum(1 for c in census if c.grown_clusters == 0)}",
        "",
    ]

    # --- dynamic nybbles -----------------------------------------------------------
    histogram = dynamic_nybble_histogram(result.run.results())
    peak = max(range(32), key=lambda i: histogram[i])
    lines += [
        "## Dynamic nybble profile",
        "",
        "Portion of routed prefixes with each nybble position dynamic",
        "(1-based indices; `#` per 4 %):",
        "",
        "```",
    ]
    for i, portion in enumerate(histogram, start=1):
        bar = "#" * int(portion * 25)
        lines.append(f"nybble {i:>2}: {portion:6.1%} {bar}")
    lines += [
        "```",
        "",
        f"Most frequently dynamic position: nybble {peak + 1} "
        f"({histogram[peak]:.1%} of prefixes).",
        "",
    ]
    return "\n".join(lines)
