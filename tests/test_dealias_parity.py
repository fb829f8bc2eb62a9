"""Column-native §6.2 dealiasing against the per-hit reference oracle.

``dealias`` runs on packed address columns; ``reference_dealias`` is
the boxed per-hit pipeline it replaced.  Both must produce the same
report, charge the same probes and emit the same telemetry on any
world: aliased regions from /64 to /120, real hosts, blacklists that
swallow sample addresses, probe loss and fault overlays.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import Campaign, CampaignSpec
from repro.campaign.pipeline import _split_flagged
from repro.faults import BurstyLoss, FaultyGroundTruth, FlakyHosts, RateLimiter
from repro.ipv6.addrplane import fuse_ints, pack
from repro.ipv6.prefix import Prefix
from repro.scanner.blacklist import Blacklist
from repro.scanner.dealias import (
    PrefixSet,
    dealias,
    detect_aliased_prefixes,
    reference_dealias,
)
from repro.scanner.engine import Scanner
from repro.simnet.aliasing import AliasedRegionSet
from repro.simnet.bgp import BgpTable
from repro.simnet.ground_truth import GroundTruth
from repro.telemetry import MemorySink, Telemetry

from conftest import addr

#: Routed /32s, one AS each: 2001:0:: .. 2001:5::, AS 64500 + index.
NETWORKS = [(0x20010000 + i) << 96 for i in range(6)]
ALIAS_LENGTHS = (64, 72, 80, 88, 96, 100, 104, 108, 112, 116, 120)


class _SubclassedTruth(GroundTruth):
    """A truth type the scan plane cannot snapshot (scalar probe path)."""


def _random_in(rng: random.Random, prefix: Prefix) -> int:
    return prefix.network | rng.getrandbits(128 - prefix.length)


def _build_world(rng: random.Random, *, faults: str, blacklisted: bool):
    regions = AliasedRegionSet()
    aliased = []
    for _ in range(rng.randint(0, 5)):
        network = rng.choice(NETWORKS) | rng.getrandbits(96)
        prefix = Prefix.containing(network, rng.choice(ALIAS_LENGTHS))
        if any(p.contains_prefix(prefix) or prefix.contains_prefix(p) for p in aliased):
            continue
        regions.add_prefix(prefix)
        aliased.append(prefix)
    # Real hosts cluster in a few /96s so /96 and /112 groups repeat.
    host_nets = [
        Prefix.containing(rng.choice(NETWORKS) | rng.getrandbits(96), 96)
        for _ in range(3)
    ]
    hosts = {
        _random_in(rng, rng.choice(host_nets)) & ~0xFFFF | rng.getrandbits(8)
        for _ in range(rng.randint(0, 40))
    }
    truth = GroundTruth({80: set(hosts)}, regions)
    if faults == "bursty":
        truth = FaultyGroundTruth(truth, BurstyLoss(seed=rng.getrandbits(32)))
    elif faults == "ratelimit":
        truth = FaultyGroundTruth(
            truth, RateLimiter(seed=rng.getrandbits(32), budget=2, window=8)
        )
    elif faults == "flaky":
        truth = FaultyGroundTruth(truth, FlakyHosts(seed=rng.getrandbits(32)))
    elif faults == "subclass":
        truth = _SubclassedTruth({80: set(hosts)}, regions)
    blacklist = Blacklist()
    if blacklisted:
        # Halves and corners of aliased regions: some samples land in
        # blacklisted space and are never probed.
        for prefix in aliased[:2]:
            blacklist.add(
                Prefix.containing(
                    _random_in(rng, prefix), min(prefix.length + 1, 128)
                )
            )
        blacklist.add(
            Prefix.containing(rng.choice(NETWORKS) | rng.getrandbits(96), 100)
        )

    bgp = BgpTable()
    for i, network in enumerate(NETWORKS[:-1]):  # the last /32 is unrouted
        bgp.add_route(Prefix(network, 32), 64500 + i)
    # More-specific routes, some longer than /96 and /112, split groups
    # between ASes.
    for j, length in enumerate(rng.sample([48, 64, 100, 112, 116, 120], 3)):
        base = rng.choice(aliased + host_nets) if (aliased or host_nets) else None
        if base is None:
            continue
        prefix = Prefix.containing(_random_in(rng, base), max(length, 33))
        try:
            bgp.add_route(prefix, 65000 + j)
        except ValueError:  # duplicate route
            pass

    hits = set()
    for prefix in aliased:
        # Several hits per region, some sharing a /96 or a /112.
        anchor = _random_in(rng, prefix)
        for _ in range(rng.randint(1, 12)):
            near = anchor & ~0xFFFF | rng.getrandbits(16)
            hits.add(near if prefix.contains(near) else _random_in(rng, prefix))
    hits |= set(rng.sample(sorted(hosts), min(len(hosts), rng.randint(0, 20))))
    for _ in range(rng.randint(0, 6)):  # stray hits, the last /32 unrouted
        hits.add(rng.choice(NETWORKS) | rng.getrandbits(96))
    hits.add(NETWORKS[-1] | rng.getrandbits(96))
    return truth, blacklist, bgp, hits


def _run(fn, hits, truth, blacklist, bgp, *, loss_rate, scanner_seed, **kwargs):
    scanner = Scanner(
        truth, blacklist=blacklist, loss_rate=loss_rate, rng_seed=scanner_seed
    )
    sink = MemorySink()
    tele = Telemetry(sink)
    report = fn(hits, scanner, bgp, telemetry=tele, **kwargs)
    # Spans (with their attributes) and the dealias_summary event, in
    # emission order, minus wall-clock timings.
    events = [
        {key: value for key, value in event.items() if key != "seconds"}
        for event in sink.events
    ]
    assert [e for e in events if e["event"] == "dealias_summary"]
    return report, scanner.total_probes, tele.snapshot().counters, events


def _assert_same(column, reference):
    report, probes, counters, events = column
    ref_report, ref_probes, ref_counters, ref_events = reference
    assert isinstance(report.aliased_prefixes, PrefixSet)
    assert list(report.aliased_prefixes) == sorted(ref_report.aliased_prefixes)
    assert len(report.aliased_prefixes) == len(ref_report.aliased_prefixes)
    length = report.aliased_prefixes.length
    for prefix in ref_report.aliased_prefixes:
        assert prefix in report.aliased_prefixes
    for hit in ref_report.clean_hits:
        assert Prefix.containing(hit, length) not in report.aliased_prefixes
    assert report.aliased_asns == ref_report.aliased_asns
    assert report.aliased_hits == ref_report.aliased_hits
    assert report.clean_hits == ref_report.clean_hits
    assert report.prefixes_tested == ref_report.prefixes_tested
    assert report == ref_report
    assert probes == ref_probes
    assert counters == ref_counters
    assert events == ref_events


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    world_seed=st.integers(0, 2**32 - 1),
    faults=st.sampled_from(["none", "bursty", "ratelimit", "flaky", "subclass"]),
    blacklisted=st.booleans(),
    loss_rate=st.sampled_from([0.0, 0.0, 0.2, 0.5]),
    scanner_seed=st.integers(0, 1000),
    rng_seed=st.integers(0, 1000),
    length=st.sampled_from([96, 96, 64, 48, 112]),
    as_inspection=st.booleans(),
    routed=st.booleans(),
    input_form=st.sampled_from(["set", "list", "columns"]),
)
def test_column_path_matches_oracle(
    world_seed, faults, blacklisted, loss_rate, scanner_seed, rng_seed,
    length, as_inspection, routed, input_form,
):
    rng = random.Random(world_seed)
    truth, blacklist, bgp, hits = _build_world(
        rng, faults=faults, blacklisted=blacklisted
    )
    bgp = bgp if routed else None
    given_hits = hits
    if input_form != "set":  # duplicates in a permuted order
        given_hits = sorted(hits) + rng.sample(sorted(hits), len(hits) // 2)
        rng.shuffle(given_hits)
        if input_form == "columns":
            given_hits = pack(given_hits)
    kwargs = dict(
        loss_rate=loss_rate, scanner_seed=scanner_seed, rng_seed=rng_seed,
        length=length, as_inspection=as_inspection,
    )
    column = _run(dealias, given_hits, truth, blacklist, bgp, **kwargs)
    reference = _run(reference_dealias, hits, truth, blacklist, bgp, **kwargs)
    _assert_same(column, reference)


def _tie_world():
    """Eleven /32s, one hit each inside an aliased /112: an 11-way tie."""
    regions = AliasedRegionSet()
    bgp = BgpTable()
    hits = []
    for i in range(11):
        network = (0x2A000000 + i) << 96
        bgp.add_route(Prefix(network, 32), 64500 + i)
        region = Prefix(network | 0xAB << 16, 112)
        regions.add_prefix(region)
        hits.append(region.network | 0x1234)
    return GroundTruth({80: set()}, regions), bgp, hits


class TestEdgeCases:
    def _both(self, hits, truth, bgp, *, column_hits=None, **kwargs):
        kwargs.setdefault("loss_rate", 0.0)
        kwargs.setdefault("scanner_seed", 0)
        column_hits = hits if column_hits is None else column_hits
        column = _run(dealias, column_hits, truth, Blacklist(), bgp, **kwargs)
        reference = _run(reference_dealias, hits, truth, Blacklist(), bgp, **kwargs)
        _assert_same(column, reference)
        return column[0]

    def test_empty_input(self):
        truth, bgp, _ = _tie_world()
        report = self._both([], truth, bgp)
        assert report.total_hits == 0 and not report.aliased_prefixes
        report = self._both([], truth, None, column_hits=pack([]))
        assert report.total_hits == 0

    def test_top_k_tie_in_both_orders(self):
        truth, bgp, hits = _tie_world()
        unrouted = (0x2B000000 << 96) | 1
        for order in (hits, hits[::-1]):
            report = self._both(order + [unrouted], truth, bgp)
            assert report.aliased_asns == set(range(64500, 64510))
            # The unflagged AS's hit and the unrouted hit stay clean.
            assert report.clean_hits == {hits[10], unrouted}

    def test_bgp_none_and_no_inspection(self):
        truth, bgp, hits = _tie_world()
        assert self._both(hits, truth, None).clean_hits == set(hits)
        report = self._both(hits, truth, bgp, as_inspection=False)
        assert report.clean_hits == set(hits)

    @pytest.mark.parametrize("length", [64, 96])
    def test_phased_lengths_detect(self, length):
        # The phased campaign's in-loop tests call detect_aliased_prefixes
        # at /64 and /96 on column subsets.
        rng = random.Random(length)
        truth, blacklist, _, hits = _build_world(rng, faults="none", blacklisted=True)
        hits = sorted(hits)
        rng.shuffle(hits)
        scanner = Scanner(truth, blacklist=blacklist, rng_seed=0)
        aliased = detect_aliased_prefixes(pack(hits), scanner, length=length)
        ref_scanner = Scanner(truth, blacklist=blacklist, rng_seed=0)
        ref = reference_dealias(
            hits, ref_scanner, None, length=length, as_inspection=False
        )
        assert set(aliased) == ref.aliased_prefixes
        assert scanner.total_probes == ref_scanner.total_probes
        mask = {h for h, flagged in zip(hits, aliased.hit_mask) if flagged}
        assert mask == ref.aliased_hits
        assert aliased.tested == ref.prefixes_tested


class TestPrefixSet:
    def test_set_protocol(self):
        prefixes = [Prefix.parse("2001:db8::/96"), Prefix.parse("2001:db8:0:1::/96")]
        hi, lo = pack(sorted(p.network for p in prefixes))
        boxed = PrefixSet(96, hi, lo)
        assert len(boxed) == 2
        assert boxed == set(prefixes) and set(prefixes) == boxed
        assert Prefix.parse("2001:db8::/96") in boxed
        assert Prefix.parse("2001:db8::/64") not in boxed
        assert Prefix.parse("2001:db8:0:2::/96") not in boxed
        assert Prefix.parse("2001:db8::1:0:0/96") not in boxed  # same /64
        assert list(boxed) == sorted(prefixes)
        assert boxed | {Prefix.parse("::/0")} == set(prefixes) | {Prefix.parse("::/0")}
        assert PrefixSet() == set() == PrefixSet(64)
        assert boxed == PrefixSet(96, hi.copy(), lo.copy())
        assert boxed != PrefixSet(96, hi[:1], lo[:1])


class TestPhasedAliasTests:
    """The phased campaign's in-loop tests on the column functions."""

    def _campaign(self, verdicts):
        regions = AliasedRegionSet()
        regions.add_prefix(Prefix.parse("2001:db8::/64"))
        truth = GroundTruth({80: set()}, regions)
        campaign = Campaign(truth, BgpTable(), {}, CampaignSpec(budget=100))
        campaign._scanner = Scanner(truth)
        campaign._alias_verdicts = dict(verdicts)
        return campaign

    def test_candidates_rank_by_hits_then_prefix_text(self):
        # Two /96s with three hits each and room for one test: prefix
        # text puts 2001:db8::10:0:0/96 before 2001:db8::9:0:0/96,
        # although its network is the larger.
        hits = {
            addr(f"2001:db8::{block}:0:{i}") for block in ("9", "10") for i in (1, 2, 3)
        }
        campaign = self._campaign({Prefix.parse("2001:db8::/64"): False})
        verdicts, cost = campaign._test_phase_aliases(hits, 9)
        assert set(verdicts) == {Prefix.parse("2001:db8::10:0:0/96")}
        assert 0 < cost <= 9

    def test_flagged_prefixes_split_hits(self):
        flagged64 = Prefix.parse("2001:db8::/64")
        flagged96 = Prefix.parse("2001:db8:1::/96")
        inside = {addr("2001:db8::1:2:3"), addr("2001:db8:1::5")}
        outside = {addr("2001:db8:1::1:0:5"), addr("2600::1")}
        verdicts = {flagged64: True, flagged96: True, Prefix.parse("2600::/64"): False}
        aliased, clean_keys = _split_flagged(verdicts, inside | outside)
        assert aliased == inside
        assert clean_keys.tolist() == fuse_ints(sorted(outside)).tolist()
        # Hits inside already-flagged prefixes are never re-tested.
        campaign = self._campaign(verdicts)
        assert campaign._test_phase_aliases(inside, 10_000) == ({}, 0)
