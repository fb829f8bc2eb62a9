"""Tests for budget-aware Entropy/IP (the §7.1 improvement proposal)."""

import random

import numpy as np
import pytest

from repro.entropyip.budgeted import (
    PatternRegion,
    generate_budget_aware,
    pattern_regions,
    run_budget_aware_entropy_ip,
)
from repro.entropyip.generator import fit_entropy_ip, run_entropy_ip
from repro.ipv6.addrplane import unpack

from conftest import addr


def _structured_seeds(count=400, rng_seed=3):
    rng = random.Random(rng_seed)
    seeds = set()
    while len(seeds) < count:
        x = rng.randrange(8)
        y = rng.randrange(1, 100)
        seeds.add(addr(f"2001:db8:{x:x}::{y:x}"))
    return sorted(seeds)


class TestPatternRegions:
    def test_descending_probability(self):
        model = fit_entropy_ip(_structured_seeds())
        regions = list(pattern_regions(model, max_regions=20))
        probs = [r.probability for r in regions]
        assert probs == sorted(probs, reverse=True)

    def test_sizes_positive(self):
        model = fit_entropy_ip(_structured_seeds())
        for region in pattern_regions(model, max_regions=10):
            assert region.size >= 1
            assert region.density == pytest.approx(region.probability / region.size)

    def test_max_regions_cap(self):
        model = fit_entropy_ip(_structured_seeds())
        assert len(list(pattern_regions(model, max_regions=5))) <= 5


class TestGeneration:
    def test_budget_respected(self):
        model = fit_entropy_ip(_structured_seeds())
        targets = generate_budget_aware(model, 500)
        assert len(targets) <= 500

    def test_exact_budget_when_support_allows(self):
        model = fit_entropy_ip(_structured_seeds())
        assert len(generate_budget_aware(model, 300)) == 300

    def test_exclusion(self):
        seeds = _structured_seeds()
        model = fit_entropy_ip(seeds)
        targets = generate_budget_aware(model, 300, exclude=seeds)
        assert not (targets & set(seeds))

    def test_deterministic(self):
        seeds = _structured_seeds()
        a = run_budget_aware_entropy_ip(seeds, 400, rng_seed=1)
        b = run_budget_aware_entropy_ip(seeds, 400, rng_seed=1)
        assert a == b

    def test_rejects_negative_budget(self):
        model = fit_entropy_ip(_structured_seeds(50))
        with pytest.raises(ValueError):
            generate_budget_aware(model, -1)

    def test_zero_budget(self):
        model = fit_entropy_ip(_structured_seeds(50))
        assert generate_budget_aware(model, 0) == set()


def _inside(model, region, address):
    return all(
        seg_model.atoms[atom].contains(seg_model.segment.extract(address))
        for seg_model, atom in zip(model.segment_models, region.atoms)
    )


class TestOversizedRegions:
    @staticmethod
    def _wide_model():
        # Random low 32 bits: every region holds hundreds of millions
        # of addresses, far beyond what is enumerated.
        rng = random.Random(0)
        return fit_entropy_ip(
            [addr("2001:db8::") | rng.getrandbits(32) for _ in range(200)]
        )

    def test_budget_filled_from_the_densest_region(self):
        model = self._wide_model()
        regions = list(pattern_regions(model, max_regions=4096))
        assert min(r.size for r in regions) > 1_000_000
        densest = min(regions, key=lambda r: (-r.density, r.size))
        targets = generate_budget_aware(model, 500, rng_seed=1)
        assert len(targets) == 500
        assert all(_inside(model, densest, t) for t in targets)

    def test_sample_region_is_distinct_and_seeded(self):
        model = self._wide_model()
        region = next(iter(pattern_regions(model)))
        hi, lo = model.sample_region(region.atoms, 2000, np.random.default_rng(3))
        addrs = unpack(hi, lo)
        assert len(set(addrs)) == 2000
        assert all(_inside(model, region, a) for a in addrs)
        again = model.sample_region(region.atoms, 2000, np.random.default_rng(3))
        assert np.array_equal(hi, again[0]) and np.array_equal(lo, again[1])


class TestImprovementClaim:
    def test_beats_or_matches_plain_sampling_at_low_budget(self):
        # The §7.1 proposal: density-first selection makes small budgets
        # go further than probability sampling.
        from repro.datasets.cdn import build_cdn
        from repro.analysis.traintest import split_folds

        cdn = build_cdn(3, dataset_size=1500)
        folds = split_folds(cdn.addresses, k=10, rng_seed=0)
        train = folds[0]
        test = {a for fold in folds[1:] for a in fold}
        budget = 4000
        base = len(run_entropy_ip(train, budget) & test)
        aware = len(run_budget_aware_entropy_ip(train, budget) & test)
        assert aware >= base
