"""Tests for the packed target-generation plane.

Three families:

* hypothesis round-trips between the scalar range expansion
  (``expand_ranges`` / ``NybbleRange.iter_ints``) and the column-native
  ``expand_range_arr`` / ``expand_ranges_arr`` — including wildcards
  straddling the /64 half boundary, fully-fixed ranges, and
  budget-truncated densest-first output;
* a three-way generation parity matrix: scalar iteration vs packed
  columns vs a parallel (2-worker) per-prefix run must produce the
  same targets;
* scan-ingest regressions: packed columns and plain-int lists must not
  be re-boxed through ``map(int, ...)``, and the pure column path must
  never materialise a Python list at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scanner.engine as engine_mod
from repro.campaign import generate_per_prefix
from repro.core.sixgen import run_6gen
from repro.datasets.rangelist import expand_ranges
from repro.ipv6.addrplane import ColumnDeduper, dedupe_columns, pack, unpack
from repro.ipv6.nybble import FULL_MASK, NYBBLE_COUNT
from repro.ipv6.prefix import Prefix
from repro.ipv6.range_ import NybbleRange, expand_range_arr, expand_ranges_arr
from repro.scanner.engine import ScanConfig, Scanner
from repro.scanner.schedule import interleave_by_network
from repro.simnet.aliasing import AliasedRegionSet
from repro.simnet.bgp import BgpTable, group_by_routed_prefix
from repro.simnet.ground_truth import GroundTruth

from conftest import addr

addresses = st.integers(min_value=0, max_value=(1 << 128) - 1)


@st.composite
def expandable_ranges(draw, max_dynamic=3, boundary=False):
    """Ranges with a few dynamic nybbles (small enough to enumerate).

    With ``boundary=True`` the dynamic positions include nybbles 15 and
    16 — the two sides of the hi/lo uint64 split, where the vectorised
    expansion stitches its two half-products together.
    """
    base = draw(addresses)
    masks = list(NybbleRange.from_address(base).masks)
    if boundary:
        positions = [15, 16]
    else:
        count = draw(st.integers(min_value=0, max_value=max_dynamic))
        positions = draw(
            st.lists(
                st.integers(min_value=0, max_value=NYBBLE_COUNT - 1),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
    for pos in positions:
        masks[pos] |= draw(st.integers(min_value=1, max_value=FULL_MASK))
    return NybbleRange(masks)


def _column_ints(hi, lo):
    assert hi.dtype == np.uint64 and lo.dtype == np.uint64
    assert len(hi) == len(lo)
    return unpack(hi, lo)


class TestExpandRangeArr:
    @given(expandable_ranges())
    @settings(max_examples=60)
    def test_matches_scalar_enumeration(self, r):
        hi, lo = expand_range_arr(r)
        assert _column_ints(hi, lo) == list(r.iter_ints())

    @given(expandable_ranges(boundary=True))
    @settings(max_examples=40)
    def test_wildcards_straddling_half_boundary(self, r):
        hi, lo = expand_range_arr(r)
        assert _column_ints(hi, lo) == list(r.iter_ints())

    @given(addresses)
    def test_fully_fixed_range_is_one_address(self, a):
        r = NybbleRange.from_address(a)
        hi, lo = expand_range_arr(r)
        assert _column_ints(hi, lo) == [a]

    @given(expandable_ranges(), st.integers(min_value=0, max_value=40))
    @settings(max_examples=60)
    def test_limit_truncates_identically(self, r, limit):
        hi, lo = expand_range_arr(r, limit=limit)
        expected = list(r.iter_ints())[:limit]
        assert _column_ints(hi, lo) == expected


class TestExpandRangesArr:
    @given(
        st.lists(expandable_ranges(max_dynamic=2), min_size=0, max_size=4),
        st.one_of(st.none(), st.integers(min_value=0, max_value=60)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_generator(self, ranges, limit):
        hi, lo = expand_ranges_arr(ranges, limit=limit)
        expected = list(expand_ranges(ranges, limit=limit))
        assert _column_ints(hi, lo) == expected

    def test_overlapping_ranges_dedupe_like_scalar(self):
        base = addr("2001:db8::")
        masks_a = list(NybbleRange.from_address(base).masks)
        masks_b = list(masks_a)
        masks_a[31] = FULL_MASK  # last nybble wild
        masks_b[31] = 0b1111  # values 0-3: subset, overlaps a
        ranges = [NybbleRange(masks_a), NybbleRange(masks_b)]
        for limit in (None, 0, 3, 10, 100):
            hi, lo = expand_ranges_arr(ranges, limit=limit)
            assert _column_ints(hi, lo) == list(
                expand_ranges(ranges, limit=limit)
            )


class TestColumnDedupe:
    @given(st.lists(addresses, min_size=0, max_size=50))
    @settings(max_examples=40)
    def test_first_seen_order_matches_dict_fromkeys(self, values):
        hi, lo = dedupe_columns(*pack(values))
        assert _column_ints(hi, lo) == list(dict.fromkeys(values))

    @given(st.lists(st.lists(addresses, max_size=20), max_size=4))
    @settings(max_examples=40)
    def test_streaming_deduper_matches_global(self, chunks):
        dedupe = ColumnDeduper()
        out = []
        for chunk in chunks:
            out.extend(_column_ints(*dedupe.add(*pack(chunk))))
        flat = [a for chunk in chunks for a in chunk]
        assert out == list(dict.fromkeys(flat))


class TestSixGenColumns:
    def test_densest_first_columns_match_scalar(self, dense_block_seeds):
        scalar = run_6gen(dense_block_seeds, 200)
        column = run_6gen(dense_block_seeds, 200)
        hi, lo = column.target_columns_by_density()
        assert _column_ints(hi, lo) == list(scalar.iter_targets_by_density())

    def test_budget_truncation_matches_scalar(self, dense_block_seeds):
        # A tight budget exercises the densest-first early stop.
        scalar = run_6gen(dense_block_seeds, 20)
        column = run_6gen(dense_block_seeds, 20)
        hi, lo = column.target_columns_by_density()
        assert _column_ints(hi, lo) == list(scalar.iter_targets_by_density())


def _prefix_groups():
    rng = np.random.default_rng(11)
    groups = {}
    for i in range(4):
        prefix = Prefix.parse(f"2001:db8:{i:x}::/48")
        base = (0x20010DB8 << 96) | (i << 80)
        groups[prefix] = sorted(
            {int(base | int(x)) for x in rng.integers(0, 1 << 16, 25)}
        )
    return groups


class TestThreeWayGenerationParity:
    def test_scalar_column_parallel_agree(self):
        groups = _prefix_groups()
        serial = generate_per_prefix(groups, 150)
        pooled = generate_per_prefix(groups, 150, processes=2)
        assert set(serial.runs) == set(pooled.runs)
        assert not serial.failures and not pooled.failures
        for prefix in serial.runs:
            s, p = serial.runs[prefix], pooled.runs[prefix]
            s_hi, s_lo = s.target_columns()
            p_hi, p_lo = p.target_columns()
            # column vs parallel-column: bit-identical arrays
            assert np.array_equal(s_hi, p_hi)
            assert np.array_equal(s_lo, p_lo)
            # column vs scalar: same targets, same densest-first order
            assert _column_ints(s_hi, s_lo) == list(
                s.result.iter_targets_by_density()
            )
            assert s.result.target_set() == p.result.target_set()

    def test_streamed_chunks_cover_scalar_stream(self):
        groups = _prefix_groups()
        run = generate_per_prefix(groups, 150)
        streamed = [
            a for hi, lo in run.iter_target_columns()
            for a in _column_ints(hi, lo)
        ]
        assert set(streamed) == set(run.iter_targets())


def _truth(hosts=None, aliased=None):
    regions = AliasedRegionSet()
    for prefix in aliased or []:
        regions.add_prefix(Prefix.parse(prefix))
    return GroundTruth({80: set(hosts or [])}, regions)


def _targets():
    return [addr(f"2001:db8::{i:x}") for i in range(1, 200)] + [
        addr(f"2001:db8:1::{i:x}") for i in range(1, 100)
    ]


class TestColumnScanParity:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("retries", [0, 2])
    def test_columns_match_list_scan(self, workers, retries):
        targets = _targets()
        hosts = targets[::7]
        truth = _truth(hosts=hosts, aliased=["2001:db8:1::/96"])
        config = ScanConfig(
            batch_size=64, workers=workers, retries=retries
        )

        def scan(t):
            scanner = Scanner(
                truth, config=config, loss_rate=0.1, rng_seed=3
            )
            return scanner.scan(t)

        baseline = scan(list(targets))
        column = scan(pack(targets))
        assert column.hits == baseline.hits
        assert column.stats == baseline.stats

    def test_streamed_column_chunks_match(self):
        targets = _targets()
        truth = _truth(hosts=targets[::5])
        config = ScanConfig(batch_size=64)
        baseline = Scanner(truth, config=config).scan(list(targets))
        chunks = (pack(targets[i : i + 60]) for i in range(0, len(targets), 60))
        streamed = Scanner(truth, config=config).scan(chunks)
        assert streamed.hits == baseline.hits
        assert streamed.stats == baseline.stats


class CountingInt(int):
    """An int that records every re-boxing ``int(...)`` call."""

    calls = 0

    def __int__(self):
        type(self).calls += 1
        return super().__int__()


class TestNoReboxing:
    def test_list_of_ints_skips_map_int(self):
        CountingInt.calls = 0
        targets = [CountingInt(a) for a in _targets()]
        truth = _truth(hosts=_targets()[::3])
        scan = Scanner(truth).scan(targets)
        assert scan.stats.probes_sent > 0
        # int-typed lists take the no-boxing fast path: dedupe via
        # dict.fromkeys on the elements themselves, no map(int, ...).
        assert CountingInt.calls == 0

    def test_generator_still_reboxes(self):
        # Generators of arbitrary address-likes still normalise via
        # int() — only lists and columns take the fast path.
        CountingInt.calls = 0
        targets = [CountingInt(a) for a in _targets()[:50]]
        Scanner(_truth(hosts=[])).scan(iter(targets))
        assert CountingInt.calls == len(targets)

    def test_pure_column_scan_never_materialises_list(
        self, monkeypatch, tmp_path
    ):
        from repro.scanner.checkpoint import ScanCheckpointer
        from repro.telemetry import JsonlSink

        def boom(hi, lo):
            raise AssertionError(
                "column scan materialised a boxed target list"
            )

        monkeypatch.setattr(engine_mod, "unpack", boom)
        targets = _targets()
        truth = _truth(hosts=targets[::4])
        expected = len(set(targets[::4]))
        config = ScanConfig(batch_size=64, retries=1)
        scan = Scanner(truth, config=config).scan(pack(targets))
        assert len(scan.hits) == expected
        # Checkpointing digests the columns themselves.
        sink = JsonlSink(tmp_path / "ckpt.jsonl")
        checkpointed = Scanner(truth, config=config).scan(
            pack(targets), checkpoint=ScanCheckpointer(sink)
        )
        sink.close()
        assert checkpointed.hits == scan.hits
        execution = Scanner(truth, config=config).start_execution(
            pack(targets)
        )
        assert execution.run().hits == scan.hits


class TestInterleaveColumns:
    def test_column_input_matches_scalar(self):
        internet_targets = _targets()
        groups = group_by_routed_prefix(internet_targets, BgpTable())
        assert groups is not None  # bgp table accepts empty routing
        bgp = BgpTable()
        scalar = interleave_by_network(internet_targets, bgp, rng_seed=9)
        column = interleave_by_network(pack(internet_targets), bgp, rng_seed=9)
        assert column == scalar

    def test_column_dedupe_preserves_first_seen(self):
        dupes = [addr("2001:db8::2"), addr("2001:db8::1"), addr("2001:db8::2")]
        bgp = BgpTable()
        assert interleave_by_network(pack(dupes), bgp, rng_seed=0) == (
            interleave_by_network(dupes, bgp, rng_seed=0)
        )
