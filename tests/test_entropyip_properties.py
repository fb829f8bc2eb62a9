"""Property-based tests for the Entropy/IP pipeline (hypothesis).

Invariants: segmentation always partitions the 32 nybbles; every
generated address is expressible by the learned model (each segment
value inside some atom); sampling respects the chain's support;
generation never exceeds the budget and never emits duplicates; the
column sampler is bit-identical to its scalar reference.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entropyip.entropy import nybble_entropies
from repro.entropyip.generator import EntropyIPConfig, fit_entropy_ip
from repro.entropyip.mining import mine_segment_values
from repro.entropyip.segments import segment_positions
from repro.ipv6.addrplane import unpack
from repro.ipv6.nybble import NYBBLE_COUNT


@st.composite
def seed_pools(draw):
    """Structured pools: a common /64-ish prefix with low random bits."""
    network = draw(st.integers(min_value=0, max_value=(1 << 64) - 1))
    count = draw(st.integers(min_value=2, max_value=40))
    lows = draw(
        st.lists(
            st.integers(min_value=0, max_value=0xFFFF),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    return sorted((network << 64) | low for low in lows)


entropy_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=32, max_size=32
)


class TestSegmentationProperties:
    @given(entropy_lists, st.floats(min_value=0.01, max_value=0.5),
           st.integers(min_value=1, max_value=8))
    def test_partition(self, entropies, threshold, max_width):
        segments = segment_positions(entropies, threshold=threshold, max_width=max_width)
        assert segments[0].start == 0
        assert segments[-1].end == NYBBLE_COUNT
        for a, b in zip(segments, segments[1:]):
            assert a.end == b.start
        assert all(1 <= s.width <= max_width for s in segments)

    @settings(max_examples=25)
    @given(seed_pools())
    def test_entropies_zero_on_constant_positions(self, seeds):
        entropies = nybble_entropies(seeds)
        # the shared network prefix has zero entropy
        assert all(e == 0.0 for e in entropies[:8])


class TestMiningProperties:
    @settings(max_examples=25)
    @given(seed_pools())
    def test_every_seed_value_covered_by_some_atom(self, seeds):
        segments = segment_positions(nybble_entropies(seeds))
        for segment in segments:
            model = mine_segment_values(segment, seeds)
            assert abs(sum(model.probabilities) - 1.0) < 1e-9
            for seed in seeds:
                value = segment.extract(seed)
                atom = model.atoms[model.atom_index(value)]
                assert atom.contains(value)


class TestGenerationProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed_pools(), st.integers(min_value=0, max_value=300))
    def test_budget_and_uniqueness(self, seeds, budget):
        model = fit_entropy_ip(seeds)
        targets = model.generate(budget)
        assert len(targets) <= budget

    @settings(max_examples=15, deadline=None)
    @given(seed_pools())
    def test_generated_addresses_fit_model(self, seeds):
        model = fit_entropy_ip(seeds)
        for target in model.generate(100):
            # every segment value of a generated address lies inside an
            # atom of its segment model
            for seg_model in model.segment_models:
                value = seg_model.segment.extract(target)
                atom = seg_model.atoms[seg_model.atom_index(value)]
                assert atom.contains(value)
            assert model.score(target) > 0

    @settings(max_examples=10, deadline=None)
    @given(seed_pools())
    def test_ordered_generation_unique_and_descending(self, seeds):
        model = fit_entropy_ip(seeds)
        ordered = model.generate_ordered(60)
        assert len(ordered) == len(set(ordered))
        scores = [model.score(a) for a in ordered]
        # vector-level ordering implies scores are non-increasing up to
        # ties within one atom vector
        assert max(scores[:5]) >= min(scores[-5:]) - 1e-12

    @settings(max_examples=10, deadline=None)
    @given(seed_pools())
    def test_generation_preserves_fixed_prefix(self, seeds):
        model = fit_entropy_ip(seeds)
        prefix = seeds[0] >> 80  # high 20 nybbles shared by construction?
        shared = all(s >> 80 == prefix for s in seeds)
        if shared:
            for target in model.generate(50):
                assert target >> 80 == prefix


#: Largest float64 below 1: the top of numpy's ``random()`` range.
_TOP_UNIFORM = 1 - 2**-53

uniforms = st.one_of(
    st.just(0.0),
    st.just(_TOP_UNIFORM),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)


@st.composite
def fitted_models(draw):
    """Models fitted on seeds that vary in one nybble window.

    The window may straddle the /64 boundary, and segments up to 16
    nybbles wide let one segment cross it.  Small values repeat often
    enough to become exact atoms.
    """
    start = draw(st.integers(min_value=0, max_value=31))
    end = draw(st.integers(min_value=start + 1, max_value=NYBBLE_COUNT))
    width_bits = 4 * (end - start)
    shift = 4 * (NYBBLE_COUNT - end)
    values = draw(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=(1 << width_bits) - 1),
            ),
            min_size=2,
            max_size=40,
        )
    )
    base = draw(st.integers(min_value=0, max_value=(1 << 128) - 1))
    base &= ~(((1 << width_bits) - 1) << shift)
    config = EntropyIPConfig(
        segment_max_width=draw(st.integers(min_value=1, max_value=16)),
        bayes_structure=draw(st.sampled_from(["chain", "tree"])),
        mining_split_mode=draw(st.sampled_from(["gap", "nybble"])),
    )
    return fit_entropy_ip([base | (v << shift) for v in values], config)


def _assert_parity(model, u, v):
    hi, lo = model.sample_columns(u, v)
    reference = model.sample_addresses_reference(u, v)
    assert hi.dtype == lo.dtype == np.uint64
    assert unpack(hi, lo) == reference
    # every segment value lies inside the atom the network chose
    for addr, vector in zip(reference, model.chain.sample_atoms_arr(u)):
        for seg_model, atom_index in zip(model.segment_models, vector):
            value = seg_model.segment.extract(addr)
            assert seg_model.atoms[atom_index].contains(value)


class TestSamplerParity:
    @settings(max_examples=80, deadline=None)
    @given(fitted_models(), st.data())
    def test_columns_match_reference(self, model, data):
        k = len(model.segment_models)
        rows = data.draw(st.integers(min_value=1, max_value=12))
        u, v = (
            np.array(
                data.draw(st.lists(uniforms, min_size=rows * k, max_size=rows * k))
            ).reshape(rows, k)
            for _ in range(2)
        )
        _assert_parity(model, u, v)

    def test_straddling_segment_at_extreme_uniforms(self):
        # One segment crosses the /64 boundary, and some of its range
        # atoms span more values than float64 represents exactly.
        rng = np.random.default_rng(0)
        base = 0x20010DB8 << 96
        seeds = [base | (int(x) << 32) for x in rng.integers(0, 1 << 62, 40)]
        model = fit_entropy_ip(seeds, EntropyIPConfig(segment_max_width=16))
        assert any(s.start < 16 < s.end for s in model.segments)
        spans = [a.span for m in model.segment_models for a in m.atoms]
        assert max(spans) > 2**53
        k = len(model.segment_models)
        grid = np.array([0.0, 0.25, 0.5, _TOP_UNIFORM])
        u = np.repeat(grid, k).reshape(-1, k)
        for v in (u, u[::-1].copy(), np.full_like(u, _TOP_UNIFORM)):
            _assert_parity(model, u, v)
