"""Aliased-prefix detection walkthrough (paper §6.2).

Builds a small world containing a fully responsive /96 (Akamai-style),
a /112-aliased network (Cloudflare-style, invisible to /96 probing),
and an honest network — then shows each stage of the paper's
dealiasing pipeline catching them.

Run:  python examples/alias_detection.py
"""

from repro.ipv6.address import IPv6Addr
from repro.ipv6.prefix import Prefix
from repro.scanner.dealias import (
    as_level_inspection,
    dealias,
    detect_aliased_prefixes,
)
from repro.scanner.engine import Scanner
from repro.simnet.aliasing import AliasedRegionSet
from repro.simnet.bgp import BgpTable
from repro.simnet.ground_truth import GroundTruth


def addr(text: str) -> int:
    return IPv6Addr.parse(text).value


def main() -> None:
    # Ground truth: one aliased /96, one aliased /112, one honest /64.
    regions = AliasedRegionSet()
    regions.add_prefix(Prefix.parse("2600:aaaa::/96"))
    regions.add_prefix(Prefix.parse("2606:4700::aa00:0/112"))
    honest_hosts = {addr(f"2a01:4f8::{i:x}") for i in range(1, 40)}
    truth = GroundTruth({80: honest_hosts}, regions)
    scanner = Scanner(truth)

    bgp = BgpTable()
    bgp.add_route(Prefix.parse("2600:aaaa::/32"), 20940)   # Akamai-like
    bgp.add_route(Prefix.parse("2606:4700::/32"), 13335)   # Cloudflare-like
    bgp.add_route(Prefix.parse("2a01:4f8::/32"), 24940)    # honest hosting

    # Suppose a scan produced hits in all three networks.
    hits = (
        [addr(f"2600:aaaa::{i:x}") for i in range(200)]
        + [addr(f"2606:4700::aa00:{i:x}") for i in range(200)]
        + sorted(honest_hosts)
    )
    print(f"scan produced {len(hits)} hits in 3 networks\n")

    # Stage 1: /96 probing — 3 random addresses x 3 probes each.
    aliased_96 = detect_aliased_prefixes(hits, scanner)
    print("stage 1 — aliased /96 prefixes detected:")
    for prefix in sorted(aliased_96):
        print(f"  {prefix}")
    # hit_mask flags each hit that lies inside an aliased prefix.
    remaining = [h for h, aliased in zip(hits, aliased_96.hit_mask) if not aliased]
    print(f"  -> {len(hits) - len(remaining)} hits filtered, {len(remaining)} remain")
    print("  note: the /112-aliased network sailed through /96 probing\n")

    # Stage 2: AS-level inspection at /112 of the top remaining ASes.
    flagged = as_level_inspection(remaining, bgp, scanner)
    print(f"stage 2 — ASes aliased finer than /96: {sorted(flagged)}")
    print("  (AS13335 caught; the honest AS24940 passes)\n")

    # The full pipeline in one call.
    report = dealias(hits, scanner, bgp)
    print("full pipeline:")
    print(f"  aliased hits: {len(report.aliased_hits)} "
          f"({report.aliased_fraction():.1%})")
    print(f"  clean hits:   {len(report.clean_hits)} "
          f"(= the {len(honest_hosts)} honest hosts: "
          f"{report.clean_hits == honest_hosts})")


if __name__ == "__main__":
    main()
