"""Tests for the §6.2 dealiasing pipeline."""

import random

from repro.ipv6.prefix import Prefix
from repro.scanner.dealias import (
    as_level_inspection,
    dealias,
    detect_aliased_prefixes,
    group_hits_by_prefix,
    is_prefix_aliased,
    split_hits,
)
from repro.scanner.engine import Scanner
from repro.simnet.aliasing import AliasedRegionSet
from repro.simnet.bgp import BgpTable
from repro.simnet.ground_truth import GroundTruth

from conftest import addr


def _world(hosts=(), aliased=()):
    regions = AliasedRegionSet()
    for prefix in aliased:
        regions.add_prefix(Prefix.parse(prefix))
    truth = GroundTruth({80: set(hosts)}, regions)
    return Scanner(truth, rng_seed=0)


class TestGrouping:
    def test_group_hits_by_prefix(self):
        hits = [addr("2001:db8::1"), addr("2001:db8::2"), addr("2600::1")]
        groups = group_hits_by_prefix(hits, 96)
        assert len(groups) == 2
        assert sorted(groups[Prefix.containing(addr("2001:db8::1"), 96)]) == hits[:2]


class TestPrefixAliasTest:
    def test_aliased_prefix_detected(self):
        scanner = _world(aliased=["2001:db8::/96"])
        assert is_prefix_aliased(
            Prefix.parse("2001:db8::/96"), scanner, random.Random(0)
        )

    def test_real_hosts_not_flagged(self):
        # even a /96 with many hosts: random picks essentially never hit
        hosts = [addr(f"2001:db8::{i:x}") for i in range(1, 1000)]
        scanner = _world(hosts=hosts)
        assert not is_prefix_aliased(
            Prefix.parse("2001:db8::/96"), scanner, random.Random(0)
        )

    def test_probe_budget_of_test(self):
        scanner = _world(aliased=["2001:db8::/96"])
        is_prefix_aliased(Prefix.parse("2001:db8::/96"), scanner, random.Random(0))
        # 3 addresses x up to 3 probes, but early exit on first response
        assert scanner.total_probes <= 9

    def test_detect_over_hit_set(self):
        scanner = _world(
            hosts=[addr("2600::1")], aliased=["2001:db8::/96"]
        )
        hits = [addr("2001:db8::1234"), addr("2600::1")]
        aliased = detect_aliased_prefixes(hits, scanner)
        assert aliased == {Prefix.parse("2001:db8::/96")}


class TestSplitHits:
    def test_partition(self):
        aliased_prefixes = {Prefix.parse("2001:db8::/96")}
        hits = [addr("2001:db8::1"), addr("2600::1")]
        aliased, clean = split_hits(hits, aliased_prefixes)
        assert aliased == {addr("2001:db8::1")}
        assert clean == {addr("2600::1")}

    def test_empty(self):
        aliased, clean = split_hits([], set())
        assert aliased == clean == set()


class TestAsInspection:
    def _bgp(self):
        table = BgpTable()
        table.add_route(Prefix.parse("2606:4700::/32"), 13335)
        table.add_route(Prefix.parse("2600::/32"), 100)
        return table

    def test_finds_112_aliasing(self):
        # Cloudflare-style: aliased at /112, invisible to /96 probing.
        scanner = _world(
            hosts=[addr(f"2600::{i:x}") for i in range(1, 30)],
            aliased=["2606:4700::aa00:0/112"],
        )
        hits = [addr(f"2606:4700::aa00:{i:x}") for i in range(1, 200)]
        hits += [addr(f"2600::{i:x}") for i in range(1, 30)]
        flagged = as_level_inspection(hits, self._bgp(), scanner)
        assert flagged == {13335}

    def test_honest_as_not_flagged(self):
        scanner = _world(hosts=[addr(f"2600::{i:x}") for i in range(1, 30)])
        hits = [addr(f"2600::{i:x}") for i in range(1, 30)]
        flagged = as_level_inspection(hits, self._bgp(), scanner)
        assert flagged == set()

    def test_top_k_ties_break_to_lower_asn(self):
        # Eleven ASes with one hit each inside an aliased /112 tie for
        # the top ten.  The hits' hashes agree in their low ten bits,
        # so a set iterates them in insertion order: ranking ties by
        # input order would leave a different AS unflagged for the
        # reversed input.
        bgp = BgpTable()
        regions, hits = [], []
        for i in range(11):
            network = (0x2A000000 + i) << 96
            bgp.add_route(Prefix(network, 32), 64500 + i)
            region = Prefix(network | 0xAB << 16, 112)
            regions.append(str(region))
            hits.append(
                next(
                    region.network | x
                    for x in range(1 << 16)
                    if hash(region.network | x) % 1024 == 0
                )
            )
        top_ten = set(range(64500, 64510))
        for order in (hits, hits[::-1]):
            assert as_level_inspection(order, bgp, _world(aliased=regions)) == top_ten
            report = dealias(set(order), _world(aliased=regions), bgp)
            assert report.aliased_asns == top_ten
            assert report.clean_hits == {hits[10]}


class TestFullPipeline:
    def test_dealias_end_to_end(self):
        scanner = _world(
            hosts=[addr("2600::1"), addr("2600::2")],
            aliased=["2001:db8::/96", "2606:4700::aa00:0/112"],
        )
        bgp = BgpTable()
        bgp.add_route(Prefix.parse("2001:db8::/32"), 1)
        bgp.add_route(Prefix.parse("2606:4700::/32"), 13335)
        bgp.add_route(Prefix.parse("2600::/32"), 100)
        hits = (
            [addr(f"2001:db8::{i:x}") for i in range(50)]
            + [addr(f"2606:4700::aa00:{i:x}") for i in range(200)]
            + [addr("2600::1"), addr("2600::2")]
        )
        report = dealias(hits, scanner, bgp)
        assert report.clean_hits == {addr("2600::1"), addr("2600::2")}
        assert report.aliased_asns == {13335}
        assert report.total_hits == len(set(hits))
        assert report.aliased_fraction() > 0.9

    def test_dealias_without_as_inspection(self):
        scanner = _world(aliased=["2606:4700::aa00:0/112"])
        hits = [addr(f"2606:4700::aa00:{i:x}") for i in range(50)]
        report = dealias(hits, scanner, None, as_inspection=False)
        # /96 probing alone cannot see /112 aliasing
        assert report.clean_hits == set(hits)

    def test_empty_hits(self):
        scanner = _world()
        report = dealias([], scanner, None)
        assert report.total_hits == 0
        assert report.aliased_fraction() == 0.0


class TestAliasedSummary:
    def test_rollup(self):
        from repro.scanner.dealias import summarize_aliased_prefixes

        bgp = BgpTable()
        bgp.add_route(Prefix.parse("2600:1400::/32"), 20940)
        bgp.add_route(Prefix.parse("2600:9000::/32"), 16509)
        aliased = [
            Prefix.parse("2600:1400::/96"),
            Prefix.parse("2600:1400:0:1::/96"),
            Prefix.parse("2600:9000::/96"),
            Prefix.parse("9999::/96"),  # unrouted
        ]
        summary = summarize_aliased_prefixes(aliased, bgp)
        assert summary.aliased_prefix_count == 4
        assert summary.routed_prefixes == {
            Prefix.parse("2600:1400::/32"),
            Prefix.parse("2600:9000::/32"),
        }
        assert summary.asns == {20940, 16509}

    def test_empty(self):
        from repro.scanner.dealias import summarize_aliased_prefixes

        summary = summarize_aliased_prefixes([], BgpTable())
        assert summary.aliased_prefix_count == 0
        assert not summary.asns

