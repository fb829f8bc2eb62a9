"""Tests for the per-prefix generation stage, ``generate_per_prefix``."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro.scanner.shm as shm
from repro.campaign import generate_per_prefix
from repro.ipv6.prefix import Prefix
from repro.telemetry.sinks import MemorySink
from repro.telemetry.spans import Telemetry

from conftest import addr

GOOD = Prefix.parse("2001:db8::/32")
BAD = Prefix.parse("2600::/32")


def _groups():
    return {
        GOOD: [addr(f"2001:db8::{i:x}") for i in range(1, 7)],
        BAD: [addr("2600::1"), addr("2600::2")],
    }


#: A pooled run whose three prefixes each return more column bytes than
#: travel inline, so every one comes back through shared memory; prints
#: how many segments the parent consumed.
_POOLED_SHM_RUN = """
import repro.scanner.shm as shm
from repro.campaign import generate_per_prefix
from repro.ipv6.prefix import Prefix

consumed = []
consume = shm.consume_arrays
shm.consume_arrays = lambda spec: consumed.append(spec) or consume(spec)
groups = {}
for i in range(3):
    net = (0x20010DB8 << 96) | (i << 80)
    groups[Prefix(net, 48)] = [net | (s << 8) | t for s in range(1, 40) for t in (1, 2)]
generate_per_prefix(groups, 8000, processes=2)
print(len(consumed))
"""


def _large_groups():
    """Three prefixes whose target columns exceed the inline size."""
    groups = {}
    for i in range(3):
        net = (0x20010DB8 << 96) | (i << 80)
        groups[Prefix(net, 48)] = [net | (s << 8) | t for s in range(1, 40) for t in (1, 2)]
    return groups


def _segments():
    """Names of this package's segments in ``/dev/shm``."""
    shm_dir = pathlib.Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {path.name for path in shm_dir.glob(f"{shm.SEGMENT_PREFIX}*")}


def _poisoned():
    """Per-prefix budgets that hand one prefix a budget run_6gen rejects."""
    return {GOOD: 20, BAD: -5}


class TestRunPerPrefix:
    def test_runs_each_prefix(self):
        run = generate_per_prefix(_groups(), 20)
        assert len(run.runs) == 2
        for prefix, prefix_run in run.runs.items():
            assert prefix_run.budget == 20
            assert prefix_run.result.seed_count == len(prefix_run.seeds)

    def test_all_targets_union(self):
        run = generate_per_prefix(_groups(), 20)
        targets = run.all_targets()
        for prefix_run in run.runs.values():
            assert prefix_run.result.target_set() <= targets

    def test_budget_policy_applied(self):
        # A mapping budget gives each prefix its own: here 5 per seed.
        run = generate_per_prefix(_groups(), {GOOD: 30, BAD: 10})
        assert {p: r.budget for p, r in run.runs.items()} == {GOOD: 30, BAD: 10}
        assert {p: r.result.budget_limit for p, r in run.runs.items()} == {
            GOOD: 30,
            BAD: 10,
        }
        for prefix, prefix_run in run.runs.items():
            alone = generate_per_prefix({prefix: _groups()[prefix]}, prefix_run.budget)
            assert alone.runs[prefix].result.target_set() == prefix_run.result.target_set()

    def test_prefix_without_seeds_skipped(self):
        run = generate_per_prefix({**_groups(), Prefix.parse("2a00::/32"): []}, 20)
        assert set(run.runs) == {GOOD, BAD}

    def test_generate_span_records_budget_sum(self):
        sink = MemorySink()
        generate_per_prefix(_groups(), {GOOD: 30, BAD: 10}, telemetry=Telemetry(sink))
        [span] = [
            e for e in sink.events if e["event"] == "span" and e["name"] == "generate"
        ]
        assert span["attrs"] == {"prefixes": 2, "budget": 40}

    def test_results_view(self):
        run = generate_per_prefix(_groups(), 20)
        results = run.results()
        assert set(results) == set(_groups())

    def test_process_pool_matches_serial(self):
        for budget in (20, {GOOD: 30, BAD: 10}):
            serial = generate_per_prefix(_groups(), budget)
            parallel = generate_per_prefix(_groups(), budget, processes=2)
            assert set(serial.runs) == set(parallel.runs)
            for prefix in serial.runs:
                assert serial.runs[prefix].budget == parallel.runs[prefix].budget
                assert (
                    serial.runs[prefix].result.target_set()
                    == parallel.runs[prefix].result.target_set()
                )


class TestFailureIsolation:
    def test_failing_prefix_skipped_with_warning(self):
        with pytest.warns(RuntimeWarning, match="failed twice"):
            run = generate_per_prefix(_groups(), _poisoned())
        assert BAD in run.failures
        assert "ValueError" in run.failures[BAD]
        assert BAD not in run.runs
        # the healthy prefix still produced targets
        assert GOOD in run.runs
        assert run.runs[GOOD].result.target_set()

    def test_isolate_failures_false_reraises(self):
        with pytest.raises(ValueError):
            generate_per_prefix(_groups(), _poisoned(), isolate_failures=False)

    def test_pool_path_isolates_failures(self):
        with pytest.warns(RuntimeWarning, match="failed twice"):
            run = generate_per_prefix(_groups(), _poisoned(), processes=2)
        assert BAD in run.failures
        assert run.runs[GOOD].result.target_set()

    def test_progress_sink_events(self):
        sink = MemorySink()
        with pytest.warns(RuntimeWarning):
            generate_per_prefix(_groups(), _poisoned(), progress_sink=sink)
        kinds = [e["event"] for e in sink.events]
        assert kinds.count("prefix_generated") == 1
        assert kinds.count("prefix_failed") == 1
        failed = next(e for e in sink.events if e["event"] == "prefix_failed")
        assert failed["prefix"] == str(BAD)

    def test_no_failures_leaves_failures_empty(self):
        run = generate_per_prefix(_groups(), 20)
        assert run.failures == {}


class TestPoolSharedMemory:
    def test_pooled_run_writes_nothing_to_stderr(self):
        # A fresh interpreter, so its resource tracker's exit report
        # (leaks, unbalanced unregisters) lands in the captured stderr.
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", _POOLED_SHM_RUN],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "3"
        assert proc.stderr == ""

    @pytest.fixture
    def consumed(self, monkeypatch):
        """Specs the parent collected through shared memory."""
        specs = []
        consume = shm.consume_arrays
        monkeypatch.setattr(
            shm, "consume_arrays", lambda spec: specs.append(spec) or consume(spec)
        )
        return specs

    def test_pooled_run_leaves_no_segment(self, consumed):
        before = _segments()
        run = generate_per_prefix(_large_groups(), 8000, processes=2)
        assert len(consumed) == len(run.runs) == 3
        assert _segments() <= before

    def test_pooled_run_with_failing_prefix_leaves_no_segment(self, consumed):
        groups = {**_large_groups(), BAD: _groups()[BAD]}
        budgets = {prefix: 8000 for prefix in groups}
        budgets[BAD] = -5
        before = _segments()
        with pytest.warns(RuntimeWarning, match="failed twice"):
            run = generate_per_prefix(groups, budgets, processes=2)
        assert BAD in run.failures
        assert len(consumed) == len(run.runs) == 3
        assert _segments() <= before
