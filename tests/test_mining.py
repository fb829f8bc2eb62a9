"""Tests for Entropy/IP stage 3: per-segment value mining."""

import random

import pytest

from repro.entropyip.mining import SegmentModel, ValueAtom, mine_segment_values
from repro.entropyip.segments import Segment

from conftest import addr


def _low_segment():
    return Segment(28, 32, 0.5)


class TestValueAtom:
    def test_exact(self):
        atom = ValueAtom(5, 5)
        assert atom.is_exact
        assert atom.span == 1
        assert atom.contains(5) and not atom.contains(6)

    def test_range(self):
        atom = ValueAtom(10, 20)
        assert not atom.is_exact
        assert atom.span == 11
        assert atom.contains(10) and atom.contains(20)
        assert not atom.contains(9) and not atom.contains(21)

    def test_str(self):
        assert str(ValueAtom(10, 10)) == "a"
        assert str(ValueAtom(10, 15)) == "[a-f]"


class TestMining:
    def test_heavy_hitters_become_exact_atoms(self):
        seg = _low_segment()
        seeds = [seg.insert(0, 0x80)] * 50 + [seg.insert(0, v) for v in range(10)]
        model = mine_segment_values(seg, seeds)
        exact_values = {a.low for a in model.atoms if a.is_exact}
        assert 0x80 in exact_values

    def test_tail_grouped_into_ranges(self):
        seg = _low_segment()
        values = list(range(100, 120)) + list(range(5000, 5020))
        seeds = [seg.insert(0, v) for v in values]
        model = mine_segment_values(seg, seeds, heavy_hitter_fraction=0.5)
        ranges = [a for a in model.atoms if not a.is_exact]
        assert len(ranges) == 2
        spans = sorted((a.low, a.high) for a in ranges)
        assert spans[0] == (100, 119)
        assert spans[1] == (5000, 5019)

    def test_probabilities_sum_to_one(self):
        seg = _low_segment()
        seeds = [seg.insert(0, v) for v in [1, 1, 1, 2, 3, 100, 200]]
        model = mine_segment_values(seg, seeds)
        assert sum(model.probabilities) == pytest.approx(1.0)
        assert len(model.probabilities) == len(model.atoms)

    def test_every_seen_value_covered(self):
        seg = _low_segment()
        rng = random.Random(0)
        values = [rng.randrange(0, 0x10000) for _ in range(200)]
        seeds = [seg.insert(0, v) for v in values]
        model = mine_segment_values(seg, seeds)
        for v in values:
            idx = model.atom_index(v)
            assert model.atoms[idx].contains(v)

    def test_unseen_value_falls_back_to_nearest(self):
        seg = _low_segment()
        seeds = [seg.insert(0, v) for v in (10, 11, 12, 500, 501)]
        model = mine_segment_values(seg, seeds, heavy_hitter_fraction=0.9)
        idx = model.atom_index(9999)
        assert 0 <= idx < len(model.atoms)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mine_segment_values(_low_segment(), [])

    def test_max_exact_values_cap(self):
        seg = _low_segment()
        seeds = [seg.insert(0, v) for v in range(20) for _ in range(5)]
        model = mine_segment_values(
            seg, seeds, heavy_hitter_fraction=0.01, max_exact_values=4
        )
        assert sum(1 for a in model.atoms if a.is_exact) <= 4


class TestNybbleSplitMode:
    def test_splits_at_top_nybble_boundaries(self):
        seg = _low_segment()  # 4 nybbles wide
        # two contiguous blocks that differ only in the top nybble
        values = list(range(0x100, 0x120)) + list(range(0x200, 0x220))
        seeds = [seg.insert(0, v) for v in values]
        gap_model = mine_segment_values(seg, seeds, heavy_hitter_fraction=0.9)
        nyb_model = mine_segment_values(
            seg, seeds, heavy_hitter_fraction=0.9, split_mode="nybble"
        )
        # the gap split may merge them; the nybble split must not
        nyb_ranges = [(a.low, a.high) for a in nyb_model.atoms if not a.is_exact]
        assert all(
            (low >> 12) == (high >> 12) for low, high in nyb_ranges
        )
        assert len(nyb_model.atoms) >= len(gap_model.atoms)

    def test_single_nybble_segment_unaffected(self):
        seg = Segment(31, 32, 0.5)
        seeds = [seg.insert(0, v) for v in range(16)]
        gap = mine_segment_values(seg, seeds, heavy_hitter_fraction=0.9)
        nyb = mine_segment_values(
            seg, seeds, heavy_hitter_fraction=0.9, split_mode="nybble"
        )
        assert [(a.low, a.high) for a in gap.atoms] == [
            (a.low, a.high) for a in nyb.atoms
        ]

    def test_rejects_unknown_mode(self):
        seg = _low_segment()
        with pytest.raises(ValueError):
            mine_segment_values(seg, [seg.insert(0, 1)], split_mode="bogus")

    def test_coverage_preserved(self):
        seg = _low_segment()
        import random as random_mod

        rng = random_mod.Random(0)
        values = [rng.randrange(0, 0x10000) for _ in range(300)]
        seeds = [seg.insert(0, v) for v in values]
        model = mine_segment_values(seg, seeds, split_mode="nybble")
        for v in values:
            assert model.atoms[model.atom_index(v)].contains(v)
        assert sum(model.probabilities) == pytest.approx(1.0)
