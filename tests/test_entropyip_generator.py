"""Tests for the Entropy/IP pipeline and budgeted generation."""

import random

import pytest

from repro.entropyip.generator import (
    EntropyIPConfig,
    fit_entropy_ip,
    run_entropy_ip,
)
from repro.telemetry import MemorySink, Telemetry

from conftest import addr


def _structured_seeds(count=600, rng_seed=3):
    """2001:db8:X::Y with X in 0..15 and Y in 1..199."""
    rng = random.Random(rng_seed)
    seeds = set()
    while len(seeds) < count:
        x = rng.randrange(16)
        y = rng.randrange(1, 200)
        seeds.add(addr(f"2001:db8:{x:x}::{y:x}"))
    return sorted(seeds)


class TestConfig:
    @pytest.mark.parametrize("width", [0, -1, 17, 32])
    def test_rejects_segment_width_outside_one_to_sixteen(self, width):
        with pytest.raises(ValueError, match="segment_max_width"):
            EntropyIPConfig(segment_max_width=width)

    @pytest.mark.parametrize("width", [1, 16])
    def test_accepts_segment_width_bounds(self, width):
        model = fit_entropy_ip(
            _structured_seeds(50), EntropyIPConfig(segment_max_width=width)
        )
        assert max(seg.width for seg in model.segments) <= width


class TestFit:
    def test_model_components(self):
        model = fit_entropy_ip(_structured_seeds())
        assert len(model.entropies) == 32
        assert model.segments
        assert len(model.segment_models) == len(model.segments)
        assert model.seed_count == 600

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_entropy_ip([])

    def test_support_size_reasonable(self):
        model = fit_entropy_ip(_structured_seeds())
        # true pattern space is 16 * 199 = 3184; support bound must cover it
        assert model.support_size() >= 3184


class TestGenerate:
    def test_generates_distinct_targets(self):
        model = fit_entropy_ip(_structured_seeds())
        targets = model.generate(1000)
        assert len(targets) == 1000

    def test_targets_match_learned_structure(self):
        seeds = _structured_seeds()
        model = fit_entropy_ip(seeds)
        for target in model.generate(500):
            assert target >> 112 == 0x2001
            assert (target >> 96) & 0xFFFF == 0x0DB8

    def test_recovers_heldout_population(self):
        seeds = _structured_seeds()
        truth = {addr(f"2001:db8:{x:x}::{y:x}") for x in range(16) for y in range(1, 200)}
        model = fit_entropy_ip(seeds)
        targets = model.generate(5000)
        heldout = truth - set(seeds)
        recovered = len(targets & heldout) / len(heldout)
        assert recovered > 0.9

    def test_exclude_seeds(self):
        seeds = _structured_seeds(200)
        targets = run_entropy_ip(seeds, 500, exclude_seeds=True)
        assert not (targets & set(seeds))

    def test_zero_budget(self):
        model = fit_entropy_ip(_structured_seeds(50))
        assert model.generate(0) == set()

    def test_rejects_negative_budget(self):
        model = fit_entropy_ip(_structured_seeds(50))
        with pytest.raises(ValueError):
            model.generate(-1)

    def test_stops_when_support_exhausted(self):
        # A tiny, fully structured seed set has small support; asking
        # for far more targets must terminate and return the support.
        seeds = [addr(f"2001:db8::{i:x}") for i in range(1, 11)]
        model = fit_entropy_ip(seeds)
        targets = model.generate(100000)
        assert len(targets) < 100000

    def test_deterministic_with_seeded_rng(self):
        seeds = _structured_seeds(100)
        a = fit_entropy_ip(seeds, EntropyIPConfig(rng_seed=5)).generate(200)
        b = fit_entropy_ip(seeds, EntropyIPConfig(rng_seed=5)).generate(200)
        assert a == b

    def test_repeated_calls_on_one_model_are_equal(self):
        # generate is a pure function of the model, budget, exclude and
        # rng_seed: a second call re-draws the same stream.
        seeds = _structured_seeds()
        model = fit_entropy_ip(seeds)
        assert model.support_size() > 1000  # the sampling path
        assert model.generate(1000) == model.generate(1000)
        excluded = seeds[:100]
        assert model.generate(1000, exclude=excluded) == model.generate(
            1000, exclude=excluded
        )
        other = fit_entropy_ip(seeds, EntropyIPConfig(rng_seed=1))
        assert other.generate(1000) != model.generate(1000)

    def test_sampling_stops_when_exclude_leaves_too_few(self):
        model = fit_entropy_ip(_structured_seeds())
        support = model.generate_ordered(model.support_size())
        budget = len(support) - 1
        assert model.support_size() > budget  # the sampling path
        kept = support[:10]
        targets = model.generate(budget, exclude=support[10:])
        assert targets == set(kept)

    def test_run_records_one_span_and_target_count(self):
        sink = MemorySink()
        tele = Telemetry(sink)
        targets = run_entropy_ip(_structured_seeds(), 1000, telemetry=tele)
        spans = [e for e in sink.events if e["event"] == "span"]
        assert [e["path"] for e in spans] == ["generate.entropy_ip"]
        assert spans[0]["attrs"] == {"budget": 1000, "seeds": 600}
        assert tele.snapshot().counters["generate.targets_total"] == len(targets)
        assert len(targets) == 1000


class TestGenerateOrdered:
    def test_ordered_prefix_of_budget(self):
        model = fit_entropy_ip(_structured_seeds())
        ordered = model.generate_ordered(100)
        assert len(ordered) == 100
        assert len(set(ordered)) == 100

    def test_ordered_respects_exclusion(self):
        seeds = _structured_seeds(100)
        model = fit_entropy_ip(seeds)
        ordered = model.generate_ordered(50, exclude=seeds)
        assert not (set(ordered) & set(seeds))

    def test_high_probability_first(self):
        # the first ordered targets should score at least as high as
        # the last ones under the model
        model = fit_entropy_ip(_structured_seeds())
        ordered = model.generate_ordered(200)
        head = sum(model.score(a) for a in ordered[:20]) / 20
        tail = sum(model.score(a) for a in ordered[-20:]) / 20
        assert head >= tail


class TestScore:
    def test_seen_address_scores_positive(self):
        seeds = _structured_seeds(100)
        model = fit_entropy_ip(seeds)
        assert model.score(seeds[0]) > 0

    def test_structured_beats_random(self):
        seeds = _structured_seeds()
        model = fit_entropy_ip(seeds)
        structured = model.score(addr("2001:db8:5::55"))
        unrelated = model.score(addr("fe80::1234:5678:9abc:def0"))
        assert structured > unrelated


class TestDescribe:
    def test_report_sections(self):
        model = fit_entropy_ip(_structured_seeds(200))
        text = model.describe()
        assert "Entropy/IP model (200 seeds)" in text
        assert "per-nybble entropy" in text
        assert "segments and mined values" in text
        assert "(root)" in text

    def test_tree_dependencies_shown(self):
        model = fit_entropy_ip(
            _structured_seeds(200), EntropyIPConfig(bayes_structure="tree")
        )
        assert "<- segment" in model.describe()
