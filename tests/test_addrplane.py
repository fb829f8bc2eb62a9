"""Tests for the packed uint64 address plane and its scan-path users.

Covers the hi/lo column codec (round-trips through ints and
``IPv6Addr``), the frozen lookup tables against their scalar
counterparts, the vectorised loss/fault PRFs against the scalar
reference forms, the shared-memory transport (O(1) shard payloads, no
``/dev/shm`` leaks even through injected crashes), and end-to-end
hit-for-hit / stat-for-stat parity of the array plane against the
sequential reference path.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    BurstyLoss,
    CompositeFault,
    FaultyGroundTruth,
    FlakyHosts,
    InjectedWorkerCrash,
    RateLimiter,
    WorkerCrash,
    compose,
)
from repro.ipv6 import addrplane
from repro.ipv6.addrplane import (
    FrozenKeySet,
    PrefixMaskTable,
    fuse_ints,
    join_int,
    pack,
    pack_addrs,
    split_int,
    unfuse,
    unpack,
    unpack_addrs,
)
from repro.ipv6.address import IPv6Addr
from repro.ipv6.prefix import Prefix, host_mask, network_mask
from repro.scanner.blacklist import Blacklist
from repro.scanner.checkpoint import ScanCheckpointer
from repro.scanner.engine import ScanConfig, Scanner, _loss_prf
from repro.scanner.plane import ScanPlane, loss_prf_arr
from repro.scanner.shm import SEGMENT_PREFIX, SharedArrays
from repro.simnet.aliasing import AliasedRegionSet
from repro.simnet.ground_truth import ICMPV6, GroundTruth
from repro.telemetry import JsonlSink, Telemetry

addrs_128 = st.integers(min_value=0, max_value=(1 << 128) - 1)

#: The corner addresses every codec test must survive: the zero
#: address (::), all-ones, and the four values straddling the hi/lo
#: column boundary at bit 64.
CORNERS = [
    0,
    (1 << 128) - 1,
    (1 << 64) - 1,
    1 << 64,
    (1 << 64) + 1,
    (1 << 127),
]


class TestRoundTrips:
    @given(addrs_128)
    def test_split_join(self, value):
        assert join_int(*split_int(value)) == value

    @settings(max_examples=30)
    @given(st.lists(addrs_128, max_size=64))
    def test_pack_unpack(self, values):
        hi, lo = pack(values)
        assert hi.dtype == np.uint64 and lo.dtype == np.uint64
        assert unpack(hi, lo) == values

    @settings(max_examples=30)
    @given(st.lists(addrs_128, max_size=64))
    def test_addr_round_trip(self, values):
        addrs = [IPv6Addr(v) for v in values]
        hi, lo = pack_addrs(addrs)
        assert unpack_addrs(hi, lo) == addrs

    def test_corner_addresses(self):
        hi, lo = pack(CORNERS)
        assert unpack(hi, lo) == CORNERS
        assert split_int(0) == (0, 0)
        assert split_int((1 << 128) - 1) == ((1 << 64) - 1, (1 << 64) - 1)
        assert split_int(1 << 64) == (1, 0)
        assert split_int((1 << 64) - 1) == (0, (1 << 64) - 1)

    def test_pack_accepts_generators_and_addrs(self):
        values = [1, 2, 1 << 100]
        from_gen = pack(v for v in values)
        from_addrs = pack([IPv6Addr(v) for v in values])
        assert unpack(*from_gen) == values
        assert unpack(*from_addrs) == values

    @settings(max_examples=30)
    @given(st.lists(addrs_128, min_size=2, max_size=64))
    def test_fused_keys_order_like_ints(self, values):
        keys = fuse_ints(values)
        by_keys = np.argsort(keys, kind="stable").tolist()
        by_ints = sorted(range(len(values)), key=lambda i: values[i])
        # stable argsort of the keys must equal a sort by integer value
        assert sorted(range(len(values)), key=lambda i: (values[i], i)) == by_keys
        assert [values[i] for i in by_keys] == [values[i] for i in by_ints]


def _check_members(table: FrozenKeySet, members: list[int]) -> None:
    """``table.member`` agrees with a Python set over members, their
    neighbours and :data:`CORNERS`."""
    member_set = set(members)
    queries = [
        q
        for m in members
        for q in (m - 1, m, m + 1)
        if 0 <= q < 1 << 128
    ] + CORNERS
    expected = [q in member_set for q in queries]
    assert table.member(*pack(queries)).tolist() == expected


class TestFrozenKeySet:
    @settings(max_examples=30)
    @given(
        st.lists(addrs_128, max_size=64),
        st.lists(addrs_128, max_size=64),
    )
    def test_member_matches_python_set(self, members, queries):
        table = FrozenKeySet.from_ints(members)
        member_set = set(members)
        queries = queries + members[:3] + CORNERS
        hi, lo = pack(queries)
        expected = [q in member_set for q in queries]
        assert table.member(hi, lo).tolist() == expected
        # the S16 path and the bucket directory must agree
        assert table.member_keys(fuse_ints(queries)).tolist() == expected
        _check_members(table, members)

    def test_corner_members(self):
        members = [0, 1 << 64, (1 << 128) - 1]
        table = FrozenKeySet.from_ints(members)
        hi, lo = pack(members + [5, 1 << 90])
        assert table.member(hi, lo).tolist() == [
            True, True, True, False, False,
        ]

    def test_empty_set(self):
        table = FrozenKeySet.from_ints(())
        hi, lo = pack([0, 1])
        assert not table.member(hi, lo).any()
        assert len(table) == 0

    @pytest.mark.parametrize("member", CORNERS + [0x20010DB8 << 96])
    def test_one_entry_set(self, member):
        _check_members(FrozenKeySet.from_ints([member]), [member])

    def test_one_big_bucket(self, monkeypatch):
        """Distinct entry hashes sharing their top bits fill one bucket."""
        monkeypatch.setattr(
            addrplane, "hash_columns", lambda hi, lo: lo & np.uint64(0xFFFF_FFFF)
        )
        rng = random.Random(5)
        lows = rng.sample(range(1 << 32), 300)
        members = [(rng.getrandbits(96) << 32) | low for low in lows]
        table = FrozenKeySet.from_ints(members)
        starts = table._hashed()[1]
        assert starts[0] == 0 and starts[1] == len(members)
        _check_members(table, members)

    def test_hash_collision_falls_back_to_keys(self, monkeypatch):
        monkeypatch.setattr(
            addrplane, "hash_columns", lambda hi, lo: hi & np.uint64(0xF)
        )
        rng = random.Random(6)
        members = [rng.getrandbits(128) for _ in range(64)]
        table = FrozenKeySet.from_ints(members)
        assert table._hashed() == ()
        _check_members(table, members)


#: Prefix lengths every interval-table test draws besides random ones:
#: the whole space, single addresses, and both sides of the hi/lo
#: column boundary.
EDGE_LENGTHS = [0, 63, 64, 65, 128]


def _draw_prefixes(data, rng: random.Random) -> list[Prefix]:
    """Random prefixes plus nested and repeated ones.

    Each drawn prefix brings children (random sub-prefixes and its own
    network at a longer length), and a few prefixes are drawn twice.
    """
    lengths = st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(0, 128))
    prefixes = []
    for length in data.draw(st.lists(lengths, min_size=1, max_size=4)):
        parent = Prefix(rng.getrandbits(128) & network_mask(length), length)
        prefixes.append(parent)
        for child in data.draw(st.lists(st.integers(length, 128), max_size=3)):
            inside = parent.network | (rng.getrandbits(128) & host_mask(length))
            prefixes.append(Prefix(inside & network_mask(child), child))
            prefixes.append(Prefix(parent.network, child))
    prefixes += data.draw(st.lists(st.sampled_from(prefixes), max_size=3))
    return prefixes


def _probe_addresses(prefixes: list[Prefix], rng: random.Random) -> list[int]:
    """Each prefix's first and last address and their outside neighbours,
    random addresses, and :data:`CORNERS`."""
    edges = []
    for prefix in prefixes:
        last = prefix.network | host_mask(prefix.length)
        edges += [prefix.network - 1, prefix.network, last, last + 1]
    queries = [q for q in edges if 0 <= q < 1 << 128]
    return queries + [rng.getrandbits(128) for _ in range(30)] + CORNERS


def _rebuilt(plane: ScanPlane) -> ScanPlane:
    arrays, meta = plane.shared_payload()
    return ScanPlane.from_shared(meta, arrays)


class TestPrefixMaskTable:
    @settings(max_examples=40)
    @given(st.data())
    def test_matches_scalar_blacklist(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        blacklist = Blacklist(_draw_prefixes(data, rng))
        queries = _probe_addresses(list(blacklist.prefixes()), rng)
        hi, lo = pack(queries)
        expected = [q in blacklist for q in queries]
        assert blacklist.frozen_table().match_any(hi, lo).tolist() == expected
        assert blacklist.contains_arr(hi, lo).tolist() == expected
        truth = GroundTruth({80: set()}, AliasedRegionSet())
        plane = _rebuilt(ScanPlane.build(truth, blacklist, (hi, lo), 80, 0.0))
        assert plane.blacklist_table.match_any(hi, lo).tolist() == expected

    @settings(max_examples=40)
    @given(st.data())
    def test_aliased_regions_match_scalar(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        regions = AliasedRegionSet()
        for prefix in dict.fromkeys(_draw_prefixes(data, rng)):
            ports = data.draw(st.sampled_from([(80,), (443,), (80, 443)]))
            regions.add_prefix(prefix, ports)
        queries = _probe_addresses([r.prefix for r in regions], rng)
        hi, lo = pack(queries)
        responds = regions.responds_many(queries, 80)
        assert regions.responds_arr(hi, lo, 80).tolist() == responds
        found = [regions.find(q) is not None for q in queries]
        assert regions.contains_arr(hi, lo).tolist() == found
        truth = GroundTruth({80: set()}, regions)
        for port, expected in ((80, responds), (ICMPV6, found)):
            plane = _rebuilt(ScanPlane.build(truth, Blacklist(), (hi, lo), port, 0.0))
            table = plane.alias_table
            if table is None:  # no region answers the port
                assert not any(expected)
            else:
                assert table.match_any(hi, lo).tolist() == expected

    def test_from_networks_keeps_maximal_prefixes(self):
        def bounds(networks_by_length):
            table = PrefixMaskTable.from_networks(networks_by_length)
            return unpack(*unfuse(table.bounds))

        # the /32 holds the /64 and the /128; the /96 lies outside it
        assert bounds({64: [0], 32: [0], 128: [1], 96: [1 << 100]}) == [
            0, 1 << 96, 1 << 100, (1 << 100) + (1 << 32),
        ]
        # two touching /65s merge into their /64
        assert bounds({65: [0, 1 << 63]}) == [0, 1 << 64]
        # intervals reaching the last address never close
        assert bounds({0: [0], 128: [5]}) == [0]
        assert bounds({128: [(1 << 128) - 1]}) == [(1 << 128) - 1]
        assert bounds({}) == []
        assert not PrefixMaskTable.from_networks({}).match_any(*pack([0])).any()


class TestLossPrfParity:
    @settings(max_examples=30)
    @given(
        st.integers(0, (1 << 64) - 1),
        st.lists(addrs_128, min_size=1, max_size=32),
    )
    def test_vector_matches_scalar(self, key, values):
        hi, lo = pack(values)
        vec = loss_prf_arr(key, hi, lo)
        for value, draw in zip(values, vec.tolist()):
            assert draw == _loss_prf(key, value)


FAULTS = [
    BurstyLoss(seed=7),
    BurstyLoss(seed=7, loss_bad=1.0, p_enter=0.5, p_exit=0.5),
    RateLimiter(seed=3, budget=16, window=64),
    RateLimiter(seed=3, budget=4, window=64, prefix_len=0),
    RateLimiter(seed=3, budget=4, window=64, prefix_len=96),
    RateLimiter(seed=3, budget=4, window=64, prefix_len=128),
    RateLimiter(seed=3, limited_fraction=0.5),
    FlakyHosts(seed=11),
    FlakyHosts(seed=11, flaky_fraction=0.4),
    compose(BurstyLoss(seed=1), RateLimiter(seed=2), FlakyHosts(seed=3)),
]


class TestFaultArrayParity:
    @pytest.mark.parametrize(
        "fault", FAULTS, ids=[type(f).__name__ + str(i) for i, f in enumerate(FAULTS)]
    )
    @pytest.mark.parametrize("attempt", [0, 2])
    def test_drops_many_arr_matches_scalar(self, fault, attempt):
        rng = random.Random(99)
        values = [rng.getrandbits(128) for _ in range(400)] + CORNERS
        hi, lo = pack(values)
        scalar = fault.drops_many(values, 80, attempt)
        vector = fault.drops_many_arr(hi, lo, 80, attempt)
        assert vector.tolist() == list(scalar)


def _fault_world(n_hosts=150, n_misses=300, seed=4, faulty=False):
    rng = random.Random(seed)
    hosts = [rng.getrandbits(128) for _ in range(n_hosts)]
    regions = AliasedRegionSet()
    regions.add_prefix(Prefix.parse("2001:db8:a::/96"))
    truth = GroundTruth({80: set(hosts)}, regions)
    if faulty:
        truth = FaultyGroundTruth(
            truth,
            CompositeFault(
                (BurstyLoss(seed=1), RateLimiter(seed=2, limited_fraction=0.6))
            ),
        )
    targets = hosts + [rng.getrandbits(128) for _ in range(n_misses)]
    targets += [(0x20010DB8000A << 80) | i for i in range(40)]  # aliased
    rng.shuffle(targets)
    blacklist = Blacklist()
    for target in targets[::40]:
        blacklist.add(Prefix(target, 128))
    return truth, targets, blacklist


class TestScanPlaneParity:
    """The array plane must be hit-for-hit, stat-for-stat identical."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("retries", [0, 2])
    @pytest.mark.parametrize("faulty", [False, True])
    def test_matches_reference(self, workers, retries, faulty):
        truth, targets, blacklist = _fault_world(faulty=faulty)

        def scan(config):
            scanner = Scanner(
                truth, blacklist=blacklist, loss_rate=0.15, rng_seed=9,
                config=config,
            )
            return scanner.scan(targets)

        reference = scan(ScanConfig(use_batched=False, retries=retries))
        arrays = scan(
            ScanConfig(batch_size=64, workers=workers, retries=retries)
        )
        assert arrays.hits == reference.hits
        assert arrays.stats == reference.stats

    def test_telemetry_does_not_change_results(self, tmp_path):
        truth, targets, blacklist = _fault_world(faulty=True)
        plain = Scanner(
            truth, blacklist=blacklist, loss_rate=0.15, rng_seed=9,
        ).scan(targets)
        with Telemetry(JsonlSink(tmp_path / "scan.jsonl")) as tele:
            observed = Scanner(
                truth, blacklist=blacklist, loss_rate=0.15, rng_seed=9,
                telemetry=tele,
            ).scan(targets)
        assert observed.hits == plain.hits
        assert observed.stats == plain.stats

    def test_plane_gated_to_exact_types(self):
        class CustomTruth(GroundTruth):
            pass

        truth = GroundTruth({80: set()}, AliasedRegionSet())
        assert ScanPlane.supports(truth, Blacklist())
        assert not ScanPlane.supports(
            CustomTruth({80: set()}, AliasedRegionSet()), Blacklist()
        )

    def test_unsupported_truth_scans_through_reference(self, tmp_path):
        """A truth the plane cannot snapshot scans as the reference does,
        and refuses the plane-only features."""
        truth, targets, blacklist = _fault_world(faulty=True)

        class OpaqueTruth(FaultyGroundTruth):
            pass

        opaque = OpaqueTruth(truth.base, truth.fault)
        assert not ScanPlane.supports(opaque, blacklist)

        def scanner(truth, **config):
            return Scanner(
                truth, blacklist=blacklist, loss_rate=0.15, rng_seed=9,
                config=ScanConfig(batch_size=64, retries=2, **config),
            )

        reference = scanner(truth, use_batched=False).scan(targets)
        for workers in (1, 2):
            result = scanner(opaque, workers=workers).scan(targets)
            assert result.hits == reference.hits
            assert result.stats == reference.stats
        with pytest.raises(ValueError, match="batched scan path"):
            scanner(opaque).start_execution(targets)
        sink = JsonlSink(tmp_path / "ckpt.jsonl")
        with pytest.raises(ValueError, match="batched scan path"):
            scanner(opaque).scan(targets, checkpoint=ScanCheckpointer(sink))
        sink.close()
        with pytest.raises(ValueError, match="batched scan path"):
            scanner(opaque).scan(targets, crash=WorkerCrash(at_batch=1))


class TestSharedMemoryTransport:
    def test_round_trip(self):
        arrays = {
            "a": np.arange(10, dtype=np.uint64),
            "keys": np.sort(fuse_ints([3, 1 << 100, 7])),
        }
        shared = SharedArrays.create(arrays)
        try:
            attached = SharedArrays.attach(shared.spec)
            assert np.array_equal(attached.arrays["a"], arrays["a"])
            assert np.array_equal(attached.arrays["keys"], arrays["keys"])
            assert not attached.arrays["a"].flags.writeable
            attached.close()
        finally:
            shared.close()

    def test_shard_payload_is_o1_in_target_count(self):
        """Worker dispatch must not scale with the target list."""
        truth, _, blacklist = _fault_world()
        rng = random.Random(0)

        def meta_size(n):
            targets = [rng.getrandbits(128) for _ in range(n)]
            plane = ScanPlane.build(truth, blacklist, pack(targets), 80, 0.1)
            _, meta = plane.shared_payload()
            return len(pickle.dumps(meta))

        small, large = meta_size(50), meta_size(5000)
        assert large == small  # metadata is layout only, never targets
        # and a shard task itself is three small integers
        assert len(pickle.dumps((7, 123_456, 127_552))) < 64

    def test_no_shm_leak_after_pooled_scan(self):
        truth, targets, blacklist = _fault_world()
        Scanner(
            truth, blacklist=blacklist, loss_rate=0.1, rng_seed=1,
            config=ScanConfig(batch_size=32, workers=2),
        ).scan(targets)
        assert not list(self._segments())

    def test_no_shm_leak_after_injected_worker_crash(self):
        truth, targets, blacklist = _fault_world()
        with pytest.raises(InjectedWorkerCrash):
            Scanner(
                truth, blacklist=blacklist, loss_rate=0.1, rng_seed=1,
                config=ScanConfig(batch_size=32, workers=2),
            ).scan(targets, crash=WorkerCrash(at_batch=3))
        assert not list(self._segments())

    @staticmethod
    def _segments():
        import pathlib

        shm_dir = pathlib.Path("/dev/shm")
        if not shm_dir.is_dir():  # pragma: no cover - non-Linux
            return
        yield from shm_dir.glob(f"{SEGMENT_PREFIX}*")
