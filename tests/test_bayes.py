"""Tests for Entropy/IP stage 4: the Bayesian network."""

import random

import numpy as np
import pytest

from repro.entropyip.bayes import BayesNetwork
from repro.entropyip.generator import assemble_columns
from repro.entropyip.mining import mine_segment_values
from repro.entropyip.segments import Segment
from repro.ipv6.addrplane import unpack

from conftest import addr


def _fit_chain(seeds, segments=None):
    segments = segments or [Segment(0, 16, 0.0), Segment(16, 24, 0.3), Segment(24, 32, 0.8)]
    models = [mine_segment_values(s, seeds) for s in segments]
    return BayesNetwork(models, seeds, structure="chain"), models


def _sample_addresses(net, count, rng_seed):
    """``count`` addresses drawn through the sampler's column path."""
    rng = np.random.default_rng(rng_seed)
    shape = (count, len(net.models))
    atoms = net.sample_atoms_arr(rng.random(shape))
    return unpack(*assemble_columns(net.models, atoms, rng.random(shape)))


def _structured_seeds(count=300, rng_seed=0):
    # subnet value correlates with low-bits base: even subnets use low
    # values, odd subnets high values.
    rng = random.Random(rng_seed)
    seeds = []
    base = addr("2001:db8::")
    for _ in range(count):
        subnet = rng.randrange(4)
        low = rng.randrange(0, 16) if subnet % 2 == 0 else rng.randrange(0xF0, 0x100)
        seeds.append(base | (subnet << 64) | low)
    return seeds


class TestFit:
    def test_rejects_empty_models(self):
        with pytest.raises(ValueError):
            BayesNetwork([], [1])

    def test_rejects_empty_seeds(self):
        seeds = _structured_seeds(10)
        segments = [Segment(0, 16, 0.0)]
        models = [mine_segment_values(segments[0], seeds)]
        with pytest.raises(ValueError):
            BayesNetwork(models, [])

    def test_root_probs_normalised(self):
        chain, _ = _fit_chain(_structured_seeds())
        assert sum(chain.root_probs) == pytest.approx(1.0)

    def test_cpt_rows_normalised(self):
        chain, _ = _fit_chain(_structured_seeds())
        for cpt in chain.cpts:
            for row in cpt.probabilities:
                assert sum(row) == pytest.approx(1.0)


class TestSampling:
    def test_sample_atoms_valid_indices(self):
        chain, models = _fit_chain(_structured_seeds())
        rng = np.random.default_rng(0)
        for vec in chain.sample_atoms_arr(rng.random((50, len(models)))):
            assert len(vec) == len(models)
            for idx, model in zip(vec, models):
                assert 0 <= idx < len(model.atoms)

    def test_sample_address_matches_training_shape(self):
        seeds = _structured_seeds()
        chain, _ = _fit_chain(seeds)
        for sample in _sample_addresses(chain, 50, rng_seed=0):
            # network prefix must be preserved (constant in training data)
            assert sample >> 96 == seeds[0] >> 96

    @staticmethod
    def _consistency(segments, seeds):
        models = [mine_segment_values(s, seeds) for s in segments]
        chain = BayesNetwork(models, seeds, structure="chain")
        consistent, total = 0, 400
        for sample in _sample_addresses(chain, total, rng_seed=1):
            subnet = (sample >> 64) & 0xF
            low = sample & 0xFF
            if (subnet % 2 == 0) == (low < 0x80):
                consistent += 1
        return consistent / total

    def test_adjacent_segments_capture_correlation(self):
        # Subnet nybble (index 15) and low bytes in adjacent segments:
        # the CPT between them learns the even/odd rule.
        seeds = _structured_seeds(1000)
        segments = [Segment(0, 16, 0.0), Segment(16, 32, 0.5)]
        assert self._consistency(segments, seeds) > 0.9

    def test_distant_correlation_lost_through_chain(self):
        # With a constant middle segment between them, the chain model
        # provably loses the dependency — the documented limitation that
        # lets 6Gen beat Entropy/IP on correlated networks (CDN 3).
        seeds = _structured_seeds(1000)
        segments = [Segment(0, 16, 0.0), Segment(16, 30, 0.2), Segment(30, 32, 0.9)]
        rate = self._consistency(segments, seeds)
        assert 0.3 < rate < 0.7  # indistinguishable from chance

    def test_chow_liu_tree_recovers_distant_correlation(self):
        # Structure learning links the correlated segments directly,
        # skipping the constant middle — the original tool's behaviour.
        seeds = _structured_seeds(1000)
        segments = [Segment(0, 16, 0.0), Segment(16, 30, 0.2), Segment(30, 32, 0.9)]
        models = [mine_segment_values(s, seeds) for s in segments]
        net = BayesNetwork(models, seeds, structure="tree")
        # the low-bits segment must be parented to the subnet segment
        assert net.parents[2] == 0
        hits = 0
        for s in _sample_addresses(net, 300, rng_seed=1):
            subnet = (s >> 64) & 0xF
            low = s & 0xFF
            hits += (subnet % 2 == 0) == (low < 0x80)
        assert hits / 300 > 0.95


class TestTreeStructure:
    def test_single_segment(self):
        seeds = _structured_seeds(50)
        models = [mine_segment_values(Segment(0, 32, 0.5), seeds)]
        net = BayesNetwork(models, seeds, structure="tree")
        assert net.parents == [None]
        atoms = net.sample_atoms_arr(np.random.default_rng(0).random((1, 1)))
        assert atoms.shape == (1, 1)

    def test_tree_is_spanning(self):
        seeds = _structured_seeds(300)
        segments = [Segment(0, 8, 0.0), Segment(8, 16, 0.0),
                    Segment(16, 24, 0.3), Segment(24, 32, 0.8)]
        models = [mine_segment_values(s, seeds) for s in segments]
        net = BayesNetwork(models, seeds, structure="tree")
        roots = [i for i, p in enumerate(net.parents) if p is None]
        assert roots == [0]
        # every node reachable from the root
        for i, parent in enumerate(net.parents):
            if parent is not None:
                assert 0 <= parent < len(net.parents)
                assert parent != i

    def test_rejects_unknown_structure(self):
        seeds = _structured_seeds(20)
        models = [mine_segment_values(Segment(0, 32, 0.5), seeds)]
        with pytest.raises(ValueError):
            BayesNetwork(models, seeds, structure="dag")

    def test_tree_enumeration_descending(self):
        seeds = _structured_seeds(300)
        segments = [Segment(0, 16, 0.0), Segment(16, 30, 0.2), Segment(30, 32, 0.9)]
        models = [mine_segment_values(s, seeds) for s in segments]
        net = BayesNetwork(models, seeds, structure="tree")
        pairs = zip_first(net.iter_vectors_by_probability(), 25)
        probs = [p for p, _ in pairs]
        assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))

    def test_tree_vs_chain_same_marginal_support(self):
        seeds = _structured_seeds(300)
        segments = [Segment(0, 16, 0.0), Segment(16, 32, 0.5)]
        models = [mine_segment_values(s, seeds) for s in segments]
        chain = BayesNetwork(models, seeds, structure="chain")
        tree = BayesNetwork(models, seeds, structure="tree")
        # with two segments both structures are the same single edge
        assert chain.parents == tree.parents


class TestProbabilities:
    def test_vector_probability_positive(self):
        chain, models = _fit_chain(_structured_seeds())
        vec = tuple(0 for _ in models)
        assert chain.vector_probability(vec) > 0

    def test_prefix_probability(self):
        chain, _ = _fit_chain(_structured_seeds())
        assert chain.vector_probability((0,)) == pytest.approx(chain.root_probs[0])

    def test_ordered_enumeration_descending(self):
        chain, _ = _fit_chain(_structured_seeds(200))
        probs = [p for p, _ in zip_first(chain.iter_vectors_by_probability(), 30)]
        assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))

    def test_ordered_enumeration_unique(self):
        chain, _ = _fit_chain(_structured_seeds(200))
        vectors = [v for _, v in zip_first(chain.iter_vectors_by_probability(), 50)]
        assert len(vectors) == len(set(vectors))

    def test_atoms_to_ranges(self):
        chain, models = _fit_chain(_structured_seeds())
        vec = tuple(0 for _ in models)
        bounds = chain.atoms_to_ranges(vec)
        for (low, high), model in zip(bounds, models):
            assert model.atoms[0].low == low
            assert model.atoms[0].high == high


def zip_first(iterator, n):
    out = []
    for item in iterator:
        out.append(item)
        if len(out) >= n:
            break
    return out
