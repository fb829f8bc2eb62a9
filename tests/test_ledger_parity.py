"""Parity of the packed-column budget ledger against its scalar oracle.

:class:`~repro.core.budget.ExactLedger` charges growths on packed
columns and decodes final-growth samples from raw generator words;
:class:`~repro.core.budget.ScalarExactLedger` walks every address.  For
any ``old ⊆ new`` growth, pre-covered set and budget the two must agree
on the cost or :class:`BudgetExceeded`, the picked list (order
included), the covered set, ``used`` and the generator state afterwards.
The end-to-end kernel parity suite cannot see the generator state,
because 6Gen stops right after the partial charge, so it is checked
here.  The last class pins the interpreter behaviour the word decoder
relies on.
"""

import ipaddress
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.budget as budget_mod
import repro.ipv6.range_ as range_mod
from repro.core.budget import BudgetExceeded, ExactLedger, ScalarExactLedger
from repro.ipv6.addrplane import fuse_ints, unpack
from repro.ipv6.nybble import FULL_MASK
from repro.ipv6.range_ import NybbleRange, sample_range_arr

#: Nybble positions next to the /64 boundary (15 is the last of the hi
#: column, 16 the first of the lo column).
BOUNDARY = (14, 15, 16, 17)


def widen(rng, masks, loose, count):
    """Widen ``count`` random positions (30 % near the /64 boundary) in place."""
    for _ in range(count):
        pos = rng.choice(BOUNDARY) if rng.random() < 0.3 else rng.randrange(32)
        missing = FULL_MASK & ~masks[pos]
        if loose:
            masks[pos] = FULL_MASK
        elif missing:
            # Add a random subset of the missing values, at least one.
            masks[pos] |= rng.getrandbits(16) & missing or missing & -missing
    return masks


@st.composite
def growths(draw):
    """``(new, old, covered)``: a growth and addresses already covered.

    Loose growths widen to full wildcards (power-of-two value counts);
    tight growths add arbitrary value subsets (any count).  One in ten
    has ``new == old``.  Covered addresses sit in the difference, in
    ``old`` and outside ``new``.  The shape comes from a seeded
    generator, so sizes spread evenly up to ranges of 16**12 addresses.
    """
    loose = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    masks = NybbleRange.from_address(rng.getrandbits(128)).masks
    old_masks = widen(rng, list(masks), loose, rng.randint(0, 5))
    grows = rng.random() >= 0.1
    new_masks = widen(rng, list(old_masks), loose, rng.randint(1, 7) * grows)
    old, new = NybbleRange(old_masks), NybbleRange(new_masks)
    covered = [new.random_int(rng) for _ in range(rng.randint(0, 60))]
    covered += [old.random_int(rng) for _ in range(rng.randint(0, 3))]
    covered += [rng.getrandbits(128) for _ in range(rng.randint(0, 3))]
    return new, old, covered


def outcome(charge, new, old):
    try:
        return charge(new, old)
    except BudgetExceeded:
        return BudgetExceeded


def assert_same_ledgers(fast, ref):
    assert fast.used == ref.used
    assert list(fast.covered()) == sorted(ref.covered())
    assert fast.covered_count() == ref.covered_count()


def run_both(new, old, covered, limit, rng_seed):
    """Charge then partially charge one growth on both ledgers."""
    fast, ref = ExactLedger(limit, covered), ScalarExactLedger(limit, covered)
    assert outcome(fast.try_charge, new, old) == outcome(ref.try_charge, new, old)
    assert_same_ledgers(fast, ref)
    fast_rng, ref_rng = random.Random(rng_seed), random.Random(rng_seed)
    picked = unpack(*fast.charge_partial(new, old, fast_rng))
    assert picked == ref.charge_partial(new, old, ref_rng)
    assert_same_ledgers(fast, ref)
    assert fast_rng.getstate() == ref_rng.getstate()
    return picked


def rejection_calls():
    """Patch the ledger's rejection sampler with a call-recording spy."""
    return mock.patch.object(
        budget_mod, "sample_range_arr", wraps=range_mod.sample_range_arr
    )


class TestLedgerParity:
    @settings(max_examples=80, deadline=None)
    @given(
        growths(),
        st.integers(min_value=0, max_value=1500),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_matches_scalar_oracle(self, case, limit, rng_seed):
        new, old, covered = case
        run_both(new, old, covered, limit, rng_seed)

    @settings(max_examples=40, deadline=None)
    @given(growths(), st.integers(1, 400), st.integers(0, 2**32))
    def test_matches_with_tiny_word_blocks(self, case, limit, rng_seed):
        """Blocks smaller than one candidate force carries on every draw."""
        new, old, covered = case
        with mock.patch.object(range_mod, "_WORD_BLOCK", 48):
            run_both(new, old, covered, limit, rng_seed)

    def test_enumeration_branch(self):
        old = NybbleRange.parse("2001:db8::1:[0-2]0")
        new = NybbleRange.parse("2001:db8::?:??")
        covered = [int(ipaddress.IPv6Address(a)) for a in ("2001:db8::", "2001:db8::1:5")]
        with rejection_calls() as spy:
            picked = run_both(new, old, covered, 300, 7)
        assert spy.call_count == 0
        assert len(picked) == 300

    def test_rejection_branch_loose(self):
        old = NybbleRange.parse("2001:db8::?")
        new = NybbleRange.parse("2001:db8::?:?:??:??")
        seeds = random.Random(3)
        covered = [new.random_int(seeds) for _ in range(40)]
        with rejection_calls() as spy:
            picked = run_both(new, old, covered, 2500, 11)
        assert spy.call_count == 1
        assert len(picked) == 2500

    def test_bound_counts_covered_addresses(self):
        """Covered addresses in the difference can make a growth affordable;
        without enough of them it is refused before any expansion."""
        old = NybbleRange.parse("2001:db8::1:0")
        new = NybbleRange.parse("2001:db8::1:?")
        inside = [int(ipaddress.IPv6Address(f"2001:db8::1:{v}")) for v in range(1, 6)]
        for limit, cost in ((10, 10), (9, BudgetExceeded)):
            fast = ExactLedger(limit, inside)
            ref = ScalarExactLedger(limit, inside)
            assert outcome(fast.try_charge, new, old) == cost
            assert outcome(ref.try_charge, new, old) == cost
            assert_same_ledgers(fast, ref)
        expand = mock.patch.object(
            budget_mod, "expand_new_arr", wraps=range_mod.expand_new_arr
        )
        with expand as spy:
            assert outcome(ExactLedger(9, inside[:3]).try_charge, new, old) == (
                BudgetExceeded
            )
        assert spy.call_count == 0

    def test_plentiful_rule_counts_covered(self):
        """A large difference whose covered share forbids rejection."""
        old = NybbleRange.parse("2001:db8::1:????")
        new = NybbleRange.parse("2001:db8::[1-3]:????")
        seeds = random.Random(8)
        covered = []
        while len(covered) < 4000:
            addr = new.random_int(seeds)
            if not old.contains(addr):
                covered.append(addr)
        # 8 * 16000 <= |new \ old| = 131072 < 4000 + 8 * 16000
        with rejection_calls() as spy:
            picked = run_both(new, old, covered, 16000, 3)
        assert spy.call_count == 0
        assert len(picked) == 16000

    def test_rejection_first_block_runs_out(self):
        """A tight growth where ``old`` holds 15/16 of ``new``.

        Seven positions have non-power-of-two value counts, so the
        decoder walks the words only some positions admit; and a pick
        costs about a thousand words, so the draw spans several blocks.
        """
        rest = ":[0-2][0-4][0-5][0-6]:[0-8][0-9]a[0-2]"
        old = NybbleRange.parse("2001:db8::[0-e]" + rest)
        new = NybbleRange.parse("2001:db8::?" + rest)
        blocks = mock.patch.object(
            range_mod, "_accepted_words", wraps=range_mod._accepted_words
        )
        with rejection_calls() as spy, blocks as decoded:
            picked = run_both(new, old, [], 1000, 5)
        assert spy.call_count == 1
        assert decoded.call_count > 1
        assert len(picked) == 1000


def scalar_sample(range_, count, rng, old=None, exclude=frozenset()):
    """The per-address rejection loop the column sampler reproduces."""
    chosen: set[int] = set()
    while len(chosen) < count:
        addr = range_.random_int(rng)
        if (old is None or not old.contains(addr)) and addr not in exclude:
            chosen.add(addr)
    return sorted(chosen)


class TestRangeSamplers:
    @settings(max_examples=60, deadline=None)
    @given(growths(), st.integers(1, 600), st.integers(0, 2**32))
    def test_sample_range_arr_matches_loop(self, case, count, rng_seed):
        new, old, covered = case
        count = min(count, new.difference_size(old))
        exclude = np.unique(fuse_ints(covered)) if covered else None
        blocked = set(covered)
        # Leave the loop at least twice the picks it needs, so it cannot
        # starve and collects no long coupon tail.
        assume(2 * count <= new.difference_size(old) - len(blocked))
        fast_rng, ref_rng = random.Random(rng_seed), random.Random(rng_seed)
        expected = scalar_sample(new, count, ref_rng, old, blocked)
        got = sample_range_arr(new, count, fast_rng, old=old, exclude=exclude)
        assert unpack(*got) == expected
        assert fast_rng.getstate() == ref_rng.getstate()

    @settings(max_examples=40, deadline=None)
    @given(growths(), st.integers(0, 600), st.integers(0, 2**32))
    def test_sample_new_ints_matches_loop(self, case, count, rng_seed):
        """The range-sum ledger's sampler, both branches."""
        new, old, _ = case
        diff = new.difference_size(old)
        count = min(count, diff)
        fast_rng, ref_rng = random.Random(rng_seed), random.Random(rng_seed)
        if diff <= 4 * count or diff <= 4096:
            expected = ref_rng.sample(list(new.iter_new_ints(old)), count)
        else:
            expected = scalar_sample(new, count, ref_rng, old)
        assert new.sample_new_ints(old, count, fast_rng) == expected
        assert fast_rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("text", ["2001:db8::??", "2001:db8::[1-3]?:[0-4]?"])
    @pytest.mark.parametrize("count", [0, 1, 10, 60])
    def test_sample_ints_matches_loop(self, text, count):
        range_ = NybbleRange.parse(text)
        fast_rng, ref_rng = random.Random(count), random.Random(count)
        if range_.size() <= 4 * count:
            expected = ref_rng.sample(list(range_.iter_ints()), count)
        else:
            expected = scalar_sample(range_, count, ref_rng)
        assert range_.sample_ints(count, fast_rng) == expected
        assert fast_rng.getstate() == ref_rng.getstate()


SAMPLER = "repro.ipv6.range_.sample_range_arr"


def scalar_choice(rng, n):
    """``Random.choice`` over ``n`` values as the decoder models it."""
    shift = 32 - n.bit_length()
    words = 1
    word = rng.getrandbits(32)
    while word >> shift >= n:
        word = rng.getrandbits(32)
        words += 1
    return word >> shift, words


class TestGeneratorContract:
    """Interpreter behaviour the column sampler's word decoder relies on."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 9, 12, 15, 16])
    def test_choice_takes_words_until_accepted(self, n):
        rng, model = random.Random(n), random.Random(n)
        values = tuple(range(100, 100 + n))
        for _ in range(300):
            index, _ = scalar_choice(model, n)
            assert rng.choice(values) == values[index], (
                f"{SAMPLER} assumes choice over {n} values takes 32-bit words "
                f"until w >> (32 - {n.bit_length()}) < {n}"
            )
            assert rng.getstate() == model.getstate(), (
                f"{SAMPLER} assumes choice over {n} values consumes only the "
                "32-bit words up to the first accepted one"
            )

    @pytest.mark.parametrize("m", [1, 2, 7, 1000])
    def test_getrandbits_word_order(self, m):
        rng, model = random.Random(m), random.Random(m)
        words = [model.getrandbits(32) for _ in range(m)]
        block = rng.getrandbits(32 * m)
        decoded = np.frombuffer(block.to_bytes(4 * m, "little"), dtype="<u4")
        assert decoded.tolist() == words, (
            f"{SAMPLER} assumes getrandbits(32 * m) returns the next m words, "
            "the first least significant"
        )
        assert rng.getstate() == model.getstate(), (
            f"{SAMPLER} assumes getrandbits(32 * m) consumes exactly m words"
        )

    @pytest.mark.parametrize("drawn", [0, 1, 623, 624, 625, 5000])
    def test_numpy_twister_continues_random(self, drawn):
        """numpy's MT19937, loaded with ``Random.getstate()``, yields the
        words ``getrandbits(32)`` would and reads back the same state.
        A freshly seeded generator (``drawn == 0``) and one at a key
        boundary sit at ``pos == 624``."""
        rng = random.Random(drawn)
        rng.getrandbits(32 * drawn)
        version, key, gauss_next = rng.getstate()
        assert (key[-1] == 624) == (drawn in (0, 624))
        twister = np.random.MT19937()
        twister.state = {
            "bit_generator": "MT19937",
            "state": {"key": np.array(key[:-1], dtype=np.uint32), "pos": key[-1]},
        }
        for m in (1, 700, 3):
            words = [rng.getrandbits(32) for _ in range(m)]
            assert twister.random_raw(m).tolist() == words, (
                f"{SAMPLER} assumes numpy's MT19937 at Random's state draws "
                "the words getrandbits(32) draws"
            )
            state = twister.state["state"]
            back = (version, (*state["key"].tolist(), int(state["pos"])), gauss_next)
            assert back == rng.getstate(), (
                f"{SAMPLER} assumes numpy's MT19937 state reads back as "
                "Random's state after the same words"
            )

    def test_advance_reproduces_state_after_draws(self):
        range_ = NybbleRange.parse("2001:db8::[0-2]?:[1-5]f?")
        drawn, advanced, model = (random.Random(9) for _ in range(3))
        used = 0
        for _ in range(50):
            range_.random_int(drawn)
            for mask in range_.masks:
                used += scalar_choice(model, bin(mask).count("1"))[1]
        advanced.getrandbits(32 * used)
        assert advanced.getstate() == drawn.getstate(), (
            f"{SAMPLER} assumes advancing by getrandbits(32 * used) leaves "
            "the generator where the random_int draws left it"
        )

    @pytest.mark.parametrize("n,k", [(0, 0), (5, 5), (30, 7), (5000, 40), (100, 90)])
    def test_sample_of_range_draws_like_sample_of_list(self, n, k):
        by_range, by_list = random.Random(n + k), random.Random(n + k)
        rows = [f"row-{i}" for i in range(n)]
        picked = [rows[i] for i in by_range.sample(range(n), k)]
        assert picked == by_list.sample(rows, k), (
            "repro.ipv6.range_.sample_rows assumes Random.sample draws from "
            "the population's length alone"
        )
        assert by_range.getstate() == by_list.getstate()
