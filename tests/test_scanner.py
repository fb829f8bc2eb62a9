"""Tests for the scan engine and blacklist."""

import pytest

from repro.ipv6.prefix import Prefix
from repro.scanner.blacklist import Blacklist
from repro.scanner.engine import Scanner
from repro.simnet.aliasing import AliasedRegionSet
from repro.simnet.ground_truth import GroundTruth

from conftest import addr


def _truth(hosts=None, aliased=None):
    regions = AliasedRegionSet()
    for prefix in aliased or []:
        regions.add_prefix(Prefix.parse(prefix))
    return GroundTruth({80: set(hosts or [])}, regions)


class TestBlacklist:
    def test_prefix_membership(self):
        bl = Blacklist([Prefix.parse("2001:db8::/32")])
        assert bl.contains(addr("2001:db8:1::1"))
        assert not bl.contains(addr("2001:db9::1"))

    def test_single_address(self):
        bl = Blacklist()
        bl.add_address(addr("::1"))
        assert addr("::1") in bl
        assert addr("::2") not in bl

    def test_idempotent_add(self):
        bl = Blacklist()
        bl.add(Prefix.parse("2001:db8::/32"))
        bl.add(Prefix.parse("2001:db8::/32"))
        assert len(bl) == 1

    def test_parse_lines(self):
        bl = Blacklist.parse_lines(
            ["# opt-out list", "2001:db8::/32  # researcher", "", "2600::1"]
        )
        assert addr("2001:db8::5") in bl
        assert addr("2600::1") in bl
        assert addr("2600::2") not in bl

    def test_prefixes_iteration(self):
        bl = Blacklist([Prefix.parse("::/127"), Prefix.parse("2001:db8::/32")])
        assert len(list(bl.prefixes())) == 2

    def test_bool(self):
        assert not Blacklist()
        assert Blacklist([Prefix.parse("::/1")])


class TestScannerProbe:
    def test_probe_host(self):
        scanner = Scanner(_truth(hosts=[addr("2001:db8::1")]))
        assert scanner.probe(addr("2001:db8::1"))
        assert not scanner.probe(addr("2001:db8::2"))
        assert scanner.total_probes == 2

    def test_probe_aliased(self):
        scanner = Scanner(_truth(aliased=["2001:db8::/96"]))
        assert scanner.probe(addr("2001:db8::1234"))

    def test_blacklist_never_probed(self):
        bl = Blacklist([Prefix.parse("2001:db8::/32")])
        scanner = Scanner(_truth(hosts=[addr("2001:db8::1")]), blacklist=bl)
        assert not scanner.probe(addr("2001:db8::1"))
        assert scanner.total_probes == 0

    def test_probe_retry_recovers_loss(self):
        scanner = Scanner(
            _truth(hosts=[addr("::1")]), loss_rate=0.5, rng_seed=1
        )
        results = [scanner.probe_retry(addr("::1"), attempts=20) for _ in range(20)]
        # failure odds per call are 0.5**20; the batch is effectively certain
        assert all(results)

    def test_rejects_bad_loss_rate(self):
        with pytest.raises(ValueError):
            Scanner(_truth(), loss_rate=1.0)


class TestScannerScan:
    def test_scan_counts_and_hits(self):
        hosts = [addr(f"2001:db8::{i:x}") for i in range(1, 6)]
        scanner = Scanner(_truth(hosts=hosts))
        targets = hosts + [addr("2001:db8::ff")]
        result = scanner.scan(targets)
        assert result.hits == set(hosts)
        assert result.stats.probes_sent == 6
        assert result.stats.responses == 5
        assert result.stats.hit_rate == pytest.approx(5 / 6)

    def test_scan_deduplicates_targets(self):
        scanner = Scanner(_truth(hosts=[addr("::1")]))
        result = scanner.scan([addr("::1")] * 10)
        assert result.stats.probes_sent == 1

    def test_scan_respects_blacklist(self):
        bl = Blacklist([Prefix.parse("2001:db8::/32")])
        scanner = Scanner(_truth(hosts=[addr("2001:db8::1")]), blacklist=bl)
        result = scanner.scan([addr("2001:db8::1"), addr("2600::1")])
        assert result.hits == set()
        assert result.stats.blacklisted == 1
        assert result.stats.probes_sent == 1

    def test_loss_drops_responses(self):
        hosts = [addr(f"2001:db8::{i:x}") for i in range(1, 101)]
        lossless = Scanner(_truth(hosts=hosts))
        lossy = Scanner(_truth(hosts=hosts), loss_rate=0.5, rng_seed=2)
        assert len(lossless.scan(hosts).hits) == 100
        lossy_hits = len(lossy.scan(hosts).hits)
        assert 20 < lossy_hits < 80
        assert lossy.scan(hosts).stats.dropped > 0

    def test_empty_scan(self):
        scanner = Scanner(_truth())
        result = scanner.scan([])
        assert result.hit_count() == 0
        assert result.stats.hit_rate == 0.0

    def test_unshuffled_scan(self):
        scanner = Scanner(_truth(hosts=[addr("::1")]))
        result = scanner.scan([addr("::2"), addr("::1")], shuffle=False)
        assert result.hits == {addr("::1")}


class TestScanConfig:
    def test_defaults(self):
        from repro.scanner.engine import ScanConfig

        config = ScanConfig()
        assert config.batch_size == 4096
        assert config.use_batched

    def test_rejects_bad_values(self):
        from repro.scanner.engine import ScanConfig

        with pytest.raises(ValueError):
            ScanConfig(batch_size=0)


class TestScanStatsMerge:
    def test_merge_sums_counters(self):
        from repro.scanner.probe import ScanStats

        a = ScanStats(probes_sent=5, responses=2, blacklisted=1, dropped=1)
        b = ScanStats(probes_sent=3, responses=1, blacklisted=0, dropped=2)
        assert a.merge(b) is a
        assert a == ScanStats(probes_sent=8, responses=3, blacklisted=1, dropped=3)


def _parity_world():
    """A world exercising hosts, aliased regions, blacklist, and misses."""
    import random as random_mod

    rng = random_mod.Random(11)
    hosts = [rng.getrandbits(128) for _ in range(400)]
    truth = _truth(hosts=hosts, aliased=["2001:db8:aa::/96"])
    targets = (
        hosts[:300]
        + [rng.getrandbits(128) for _ in range(800)]
        + [addr("2001:db8:aa::") + rng.getrandbits(24) for _ in range(100)]
    )
    rng.shuffle(targets)
    bl = Blacklist([Prefix(targets[0], 128), Prefix.parse("2600:dead::/48")])
    targets += [addr("2600:dead::") + i for i in range(20)]
    return truth, bl, targets


class TestScanParity:
    """The batched/sharded paths must exactly match the reference scan."""

    def test_batched_matches_reference(self):
        from repro.scanner.engine import ScanConfig

        truth, bl, targets = _parity_world()
        for loss in (0.0, 0.25):
            ref = Scanner(
                truth, blacklist=bl, loss_rate=loss, rng_seed=5,
                config=ScanConfig(use_batched=False),
            ).scan(targets)
            bat = Scanner(
                truth, blacklist=bl, loss_rate=loss, rng_seed=5,
                config=ScanConfig(batch_size=128),
            ).scan(targets)
            assert bat.hits == ref.hits
            assert bat.stats == ref.stats

    def test_unshuffled_parity(self):
        from repro.scanner.engine import ScanConfig

        truth, bl, targets = _parity_world()
        ref = Scanner(
            truth, blacklist=bl, rng_seed=5, config=ScanConfig(use_batched=False)
        ).scan(targets, shuffle=False)
        bat = Scanner(
            truth, blacklist=bl, rng_seed=5, config=ScanConfig(batch_size=64)
        ).scan(targets, shuffle=False)
        assert bat.hits == ref.hits
        assert bat.stats == ref.stats


class TestScanDeterminism:
    def test_same_input_same_result(self):
        # Regression for the old set-based dedupe: two identical scans
        # must produce identical hits AND identical ScanStats.
        truth, bl, targets = _parity_world()
        first = Scanner(truth, blacklist=bl, loss_rate=0.3, rng_seed=7).scan(targets)
        second = Scanner(truth, blacklist=bl, loss_rate=0.3, rng_seed=7).scan(targets)
        assert first.hits == second.hits
        assert first.stats == second.stats

    def test_generator_input_streams(self):
        truth, bl, targets = _parity_world()
        from_list = Scanner(truth, blacklist=bl, rng_seed=3).scan(targets)
        from_gen = Scanner(truth, blacklist=bl, rng_seed=3).scan(
            t for t in targets
        )
        assert from_gen.hits == from_list.hits
        assert from_gen.stats == from_list.stats


class TestProbeMany:
    def test_matches_single_probes(self):
        hosts = [addr(f"2001:db8::{i:x}") for i in range(1, 30)]
        scanner = Scanner(_truth(hosts=hosts))
        probe_targets = hosts[:10] + [addr("2600::1"), addr("2600::2")]
        flags = scanner.probe_many(probe_targets, 80)
        assert flags == [t in set(hosts) for t in probe_targets]

    def test_blacklist_short_circuits(self):
        from repro.scanner.probe import ScanStats

        bl = Blacklist([Prefix.parse("2001:db8::/32")])
        scanner = Scanner(_truth(hosts=[addr("2001:db8::1")]), blacklist=bl)
        stats = ScanStats()
        flags = scanner.probe_many(
            [addr("2001:db8::1"), addr("2600::1")], 80, attempts=3, stats=stats
        )
        assert flags == [False, False]
        assert stats.blacklisted == 1
        # the blacklisted address was never probed, on any attempt
        assert stats.probes_sent == 3  # only the clean miss retried

    def test_retries_recover_loss(self):
        hosts = [addr(f"2001:db8::{i:x}") for i in range(1, 40)]
        scanner = Scanner(_truth(hosts=hosts), loss_rate=0.5, rng_seed=1)
        flags = scanner.probe_many(hosts, 80, attempts=16)
        assert all(flags)

    def test_responders_stop_retrying(self):
        scanner = Scanner(_truth(hosts=[addr("::1")]))
        scanner.probe_many([addr("::1")], 80, attempts=5)
        assert scanner.total_probes == 1


class TestProbeRetryAccounting:
    def test_blacklisted_counted_once(self):
        from repro.scanner.probe import ScanStats

        bl = Blacklist([Prefix.parse("2001:db8::/32")])
        scanner = Scanner(_truth(hosts=[addr("2001:db8::1")]), blacklist=bl)
        stats = ScanStats()
        assert not scanner.probe_retry(addr("2001:db8::1"), stats=stats)
        assert scanner.total_probes == 0
        assert stats.blacklisted == 1


class TestAttemptValidation:
    def test_probe_many_rejects_zero_attempts(self):
        scanner = Scanner(_truth(hosts=[addr("::1")]))
        with pytest.raises(ValueError, match="attempts"):
            scanner.probe_many([addr("::1")], 80, attempts=0)

    def test_probe_retry_rejects_zero_attempts(self):
        scanner = Scanner(_truth(hosts=[addr("::1")]))
        with pytest.raises(ValueError, match="attempts"):
            scanner.probe_retry(addr("::1"), attempts=0)
        with pytest.raises(ValueError, match="attempts"):
            scanner.probe_retry(addr("::1"), attempts=-1)


class TestRetryScan:
    def test_retries_zero_is_bit_identical_to_default(self):
        from repro.scanner.engine import ScanConfig

        truth, bl, targets = _parity_world()
        plain = Scanner(truth, blacklist=bl, loss_rate=0.3, rng_seed=5).scan(
            targets
        )
        explicit = Scanner(
            truth, blacklist=bl, loss_rate=0.3, rng_seed=5,
            config=ScanConfig(retries=0),
        ).scan(targets)
        assert explicit.hits == plain.hits
        assert explicit.stats == plain.stats
        assert explicit.stats.retransmits == 0

    def test_retry_parity_reference_batched(self):
        from repro.scanner.engine import ScanConfig

        truth, bl, targets = _parity_world()
        results = []
        for config in (
            ScanConfig(use_batched=False, retries=2),
            ScanConfig(batch_size=64, retries=2),
        ):
            scanner = Scanner(
                truth, blacklist=bl, loss_rate=0.3, rng_seed=5, config=config
            )
            results.append(scanner.scan(targets))
        first = results[0]
        for other in results[1:]:
            assert other.hits == first.hits
            assert other.stats == first.stats
        assert first.stats.retransmits > 0

    def test_retries_recover_lost_hits(self):
        from repro.scanner.engine import ScanConfig

        truth, bl, targets = _parity_world()
        single = Scanner(truth, blacklist=bl, loss_rate=0.5, rng_seed=5).scan(
            targets
        )
        retried = Scanner(
            truth, blacklist=bl, loss_rate=0.5, rng_seed=5,
            config=ScanConfig(retries=4),
        ).scan(targets)
        assert single.hits < retried.hits

    def test_retransmit_accounting(self):
        from repro.scanner.engine import ScanConfig

        # Lossless scan: every responder answers round 0, so the only
        # retransmissions are the non-responders, once per retry round.
        truth, bl, targets = _parity_world()
        scanner = Scanner(
            truth, blacklist=bl, loss_rate=0.0, rng_seed=5,
            config=ScanConfig(retries=2),
        )
        result = scanner.scan(targets)
        misses = result.stats.probes_sent - result.stats.responses
        assert result.stats.retransmits == 2 * misses
        assert scanner.total_probes == (
            result.stats.probes_sent + result.stats.retransmits
        )

    def test_retry_backoff_validation(self):
        from repro.scanner.engine import ScanConfig

        with pytest.raises(ValueError):
            ScanConfig(retries=-1)
        with pytest.raises(ValueError):
            ScanConfig(retry_backoff=-0.5)
