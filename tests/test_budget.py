"""Tests for budget ledgers (§5.4 accounting)."""

import random

import pytest

from repro.core.budget import (
    BudgetExceeded,
    ExactLedger,
    RangeSumLedger,
    make_ledger,
)
from repro.ipv6.addrplane import unpack
from repro.ipv6.range_ import NybbleRange

from conftest import addr


def _ranges():
    old = NybbleRange.from_address(addr("2001:db8::1"))
    new = NybbleRange.parse("2001:db8::?")
    return old, new


class TestExactLedger:
    def test_seeds_do_not_consume_budget(self):
        ledger = ExactLedger(10, [addr("2001:db8::1"), addr("2001:db8::2")])
        assert ledger.used == 0
        assert ledger.remaining == 10

    def test_charge_counts_only_new(self):
        ledger = ExactLedger(100, [addr("2001:db8::1"), addr("2001:db8::5")])
        old, new = _ranges()
        # 16-range contains both seeds; only 14 addresses are new.
        cost = ledger.try_charge(new, old)
        assert cost == 14
        assert ledger.used == 14

    def test_overlap_not_double_counted(self):
        ledger = ExactLedger(100, [addr("2001:db8::1")])
        old, new = _ranges()
        ledger.try_charge(new, old)
        # A second, overlapping growth over the same region costs zero.
        again = ledger.try_charge(new, NybbleRange.from_address(addr("2001:db8::2")))
        assert again == 0
        assert ledger.used == 15

    def test_budget_exceeded_rolls_back(self):
        ledger = ExactLedger(5, [addr("2001:db8::1")])
        old, new = _ranges()
        with pytest.raises(BudgetExceeded):
            ledger.try_charge(new, old)
        assert ledger.used == 0
        # the failed attempt must not have covered anything
        assert not ledger.is_covered(addr("2001:db8::2"))

    def test_charge_partial_exact_consumption(self):
        ledger = ExactLedger(5, [addr("2001:db8::1")])
        old, new = _ranges()
        picked = unpack(*ledger.charge_partial(new, old, random.Random(0)))
        assert len(picked) == 5
        assert ledger.remaining == 0
        for p in picked:
            assert new.contains(p) and not old.contains(p)
            assert ledger.is_covered(p)

    def test_charge_partial_zero_remaining(self):
        ledger = ExactLedger(0, [])
        old, new = _ranges()
        assert unpack(*ledger.charge_partial(new, old, random.Random(0))) == []

    def test_charge_partial_large_range_rejection(self):
        ledger = ExactLedger(20, [addr("2001:db8::1")])
        old = NybbleRange.from_address(addr("2001:db8::1"))
        new = NybbleRange.parse("2001:db8::?:????:????")  # astronomically large
        picked = unpack(*ledger.charge_partial(new, old, random.Random(0)))
        assert len(picked) == 20
        assert len(set(picked)) == 20

    def test_covered_is_targets(self):
        seeds = [addr("2001:db8::1")]
        ledger = ExactLedger(100, seeds)
        old, new = _ranges()
        ledger.try_charge(new, old)
        covered = set(ledger.covered())
        assert covered == set(new.iter_ints())
        assert ledger.covered_count() == 16

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            ExactLedger(-1, [])


class TestRangeSumLedger:
    def test_charges_size_delta(self):
        ledger = RangeSumLedger(100, [addr("2001:db8::1")])
        old, new = _ranges()
        assert ledger.try_charge(new, old) == 15
        assert ledger.used == 15

    def test_double_counts_overlap(self):
        # The documented difference from the exact ledger.
        ledger = RangeSumLedger(100, [addr("2001:db8::1")])
        old, new = _ranges()
        ledger.try_charge(new, old)
        ledger.try_charge(new, NybbleRange.from_address(addr("2001:db8::2")))
        assert ledger.used == 30

    def test_budget_exceeded(self):
        ledger = RangeSumLedger(5, [])
        old, new = _ranges()
        with pytest.raises(BudgetExceeded):
            ledger.try_charge(new, old)
        assert ledger.used == 0

    def test_charge_partial_records_sampled(self):
        # The picks are returned, not kept: distinct, all in new \ old.
        ledger = RangeSumLedger(5, [])
        old, new = _ranges()
        picked = ledger.charge_partial(new, old, random.Random(0))
        assert len(picked) == len(set(picked)) == 5
        assert all(new.contains(a) and not old.contains(a) for a in picked)
        assert ledger.used == 5


class TestFactory:
    def test_make_exact(self):
        assert isinstance(make_ledger("exact", 10, []), ExactLedger)

    def test_make_range_sum(self):
        assert isinstance(make_ledger("range-sum", 10, []), RangeSumLedger)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_ledger("bogus", 10, [])
