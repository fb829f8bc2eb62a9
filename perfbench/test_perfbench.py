"""Tests of the benchmark's own logic (not of the program it measures).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, self_time_by_name, self_times, tail_percentile  # noqa: E402


class TestSelfTime:
    def test_nested_spans_subtract_only_direct_children(self):
        spans = [
            Span("workload", 0.0, 10.0, None, "pass"),
            Span("Campaign.run", 1.0, 9.0, 0, "classic"),
            Span("run_6gen", 2.0, 5.0, 1, "classic"),
            Span("Scanner.scan", 5.0, 8.0, 1, "classic"),
            Span("ScanExecution.step", 6.0, 7.5, 3, "classic"),
        ]
        assert self_times(spans) == pytest.approx([2.0, 2.0, 3.0, 1.5, 1.5])
        assert sum(self_times(spans)) == pytest.approx(10.0)

    def test_interleaved_tenant_turns(self):
        # Two jobs take alternating scheduler turns; job-1's second step
        # runs 6Gen for a new phase.  Spans of one job never contain the
        # other job's, so each layer gets exactly its own time.
        spans = [
            Span("CampaignService.step", 0.0, 1.0, None, "service"),
            Span("Campaign.step", 0.1, 0.9, 0, "job-1"),
            Span("ScanExecution.step", 0.2, 0.8, 1, "job-1"),
            Span("CampaignService.step", 1.0, 2.0, None, "service"),
            Span("Campaign.step", 1.1, 1.9, 3, "job-2"),
            Span("ScanExecution.step", 1.2, 1.7, 4, "job-2"),
            Span("CampaignService.step", 2.0, 5.0, None, "service"),
            Span("Campaign.step", 2.1, 4.9, 6, "job-1"),
            Span("generate_per_prefix", 2.2, 4.2, 7, "job-1"),
            Span("run_6gen", 2.3, 4.1, 8, "job-1"),
        ]
        by_name = self_time_by_name(spans)
        assert by_name["CampaignService.step"] == pytest.approx(0.6)
        assert by_name["Campaign.step"] == pytest.approx(0.2 + 0.3 + 0.8)
        assert by_name["ScanExecution.step"] == pytest.approx(1.1)
        assert by_name["generate_per_prefix"] == pytest.approx(0.2)
        assert by_name["run_6gen"] == pytest.approx(1.8)
        assert sum(by_name.values()) == pytest.approx(5.0)
        per_run = {}
        for span, seconds in zip(spans, self_times(spans)):
            per_run[span.run] = per_run.get(span.run, 0.0) + seconds
        assert per_run == pytest.approx({"service": 0.6, "job-1": 3.6, "job-2": 0.8})

    def test_tracer_nests_by_call_stack_and_inherits_run_ids(self):
        t = tracer.Tracer()
        outer = t.open("CampaignService.step", "service")
        job = t.open("Campaign.step", "job-1")
        inner = t.open("ScanExecution.step")
        assert t.open_names() == ["CampaignService.step", "Campaign.step", "ScanExecution.step"]
        for index in (inner, job, outer):
            t.close(index)
        assert [s.parent for s in t.spans] == [None, 0, 1]
        assert [s.run for s in t.spans] == ["service", "job-1", "job-1"]


class TestTailPercentile:
    def test_highest_percentile_with_ten_samples_beyond(self):
        samples = list(range(1, 57))  # 56 samples, like classic's 6Gen calls
        p, value, n = tail_percentile(samples)
        # p82 sits at rank ceil(0.82 * 56) = 46, leaving 10 beyond it;
        # p83 would sit at rank 47 and leave only 9.
        assert (p, value, n) == (82, 46, 56)

    def test_large_sample_reaches_fractional_percentiles(self):
        p, value, n = tail_percentile(range(10_000))
        assert (p, n) == (99.9, 10_000)
        assert value == 9989
        assert sum(1 for x in range(10_000) if x > value) == 10

    def test_too_few_samples_give_no_tail(self):
        assert tail_percentile(range(19)) == (None, None, 19)
        assert tail_percentile([]) == (None, None, 0)
        assert tail_percentile(range(20))[0] == 50

    def test_order_does_not_matter(self):
        rng = np.random.default_rng(3)
        samples = rng.random(500).tolist()
        assert tail_percentile(samples) == tail_percentile(sorted(samples, reverse=True))


class TestInputs:
    SEEDS = [(0x20010DB8 << 96) | (i << 64) | (i * 0x10001) for i in range(1, 40)]

    def test_rescan_targets_are_deterministic(self):
        a = workloads.rescan_targets(self.SEEDS, 11, total=8_000)
        b = workloads.rescan_targets(list(reversed(self.SEEDS)), 11, total=8_000)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = workloads.rescan_targets(self.SEEDS, 12, total=8_000)
        assert not np.array_equal(a[1], c[1])

    def test_rescan_targets_shape(self):
        n = len(self.SEEDS) * 200 + 7
        hi, lo = workloads.rescan_targets(self.SEEDS, 11, total=n)
        assert n * 0.99 <= len(hi) <= n
        keys = workloads.fuse(hi, lo)
        assert np.all(keys[1:] > keys[:-1])  # sorted and distinct
        seed_hi = {s >> 64 for s in self.SEEDS}
        assert set(hi.tolist()) <= seed_hi  # every target sits in a seed's /64
        seed_112 = {s >> 16 for s in self.SEEDS}
        addrs = [(int(h) << 64) | int(lo_) for h, lo_ in zip(hi, lo)]
        near = sum((a >> 16) in seed_112 for a in addrs)
        assert near >= len(addrs) // 2 - len(self.SEEDS)
        assert set(self.SEEDS) <= set(addrs)

    def test_seeds_derive_from_the_one_argument(self):
        a = workloads.derive_seeds(1)
        assert a == workloads.derive_seeds(1)
        assert set(a) == set(workloads.SEED_NAMES)
        assert len(set(a.values())) == len(a)
        b = workloads.derive_seeds(2)
        assert all(a[name] != b[name] for name in a)


def test_calibration_kernel_is_fixed_work():
    assert calibration.kernel() == calibration.kernel() == 345724
    assert calibration.measure(repeats=1) > 0


def test_install_and_restore_leave_the_program_unchanged():
    import importlib

    generate = importlib.import_module("repro.campaign.generate")
    store = importlib.import_module("repro.hitlist.store")
    original = generate.run_6gen
    original_open = store.LivingHitlist.__dict__["open"]
    features = importlib.import_module("repro.predictive.features")
    original_features = features.extract_features
    seeds = [(0x20010DB8 << 96) | (i << 4) for i in range(1, 30)]
    expected = original(seeds, 200).target_set()
    t = tracer.Tracer()
    tracer.install(t)
    try:
        assert generate.run_6gen is not original
        assert generate.run_6gen(seeds, 200).target_set() == expected
    finally:
        t.restore()
    assert generate.run_6gen is original
    assert store.LivingHitlist.__dict__["open"] is original_open
    assert features.extract_features is original_features
    assert [s.name for s in t.spans] == ["run_6gen"]
    assert t.counts["core.sixgen_calls"] == 1
