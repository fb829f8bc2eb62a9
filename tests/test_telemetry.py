"""Tests for repro.telemetry: metrics, spans, sinks, manifests, reports.

The load-bearing contract here is *passivity*: instrumenting a run must
never change its output.  The parity classes at the bottom re-run the
scanner, 6Gen, and the dealiaser with telemetry on and off (and across
worker counts) and require bit-identical hits, stats, and clusters.
The merge property tests mirror ``ScanStats.merge``: snapshots must
combine associatively and commutatively so worker shards can land in
any completion order.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sixgen import run_6gen
from repro.ipv6.prefix import Prefix
from repro.scanner.blacklist import Blacklist
from repro.scanner.dealias import dealias
from repro.scanner.engine import ScanConfig, Scanner, scan_stats_snapshot
from repro.scanner.probe import ScanStats
from repro.simnet.aliasing import AliasedRegionSet
from repro.simnet.ground_truth import GroundTruth
from repro.telemetry import (
    NULL_TELEMETRY,
    HistogramData,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    MetricsSnapshot,
    NullSink,
    RunManifest,
    Telemetry,
    ensure,
    load_run,
    read_jsonl,
    render_delta,
    render_summary,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram
from repro.telemetry.timer import Timer, median_time, time_call

from conftest import addr


class TestCounterGauge:
    def test_counter_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_gauge_keeps_last(self):
        g = Gauge("x")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5


class TestHistogram:
    def test_bucketing_and_stats(self):
        h = Histogram("t", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 1]  # <=1, <=10, overflow
        assert h.count == 3
        assert h.total == 55.5
        assert h.min == 0.5 and h.max == 50.0
        assert h.mean == pytest.approx(18.5)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("t", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("t", bounds=())

    def test_data_round_trip(self):
        h = Histogram("t", bounds=(1.0, 10.0))
        h.observe(2.0)
        snap = MetricsRegistryFromHistogram(h)
        data = snap.histograms["t"]
        again = HistogramData.from_dict(
            json.loads(json.dumps(data.as_dict()))
        )
        assert again == data

    def test_empty_round_trip_keeps_min_max_sentinels(self):
        data = HistogramData(bounds=(1.0,), bucket_counts=[0, 0])
        again = HistogramData.from_dict(data.as_dict())
        # empty histograms serialise min/max as None and come back
        # ready to merge (inf/-inf sentinels)
        assert data.as_dict()["min"] is None
        assert again == data

    def test_merge_rejects_different_bounds(self):
        a = HistogramData(bounds=(1.0,), bucket_counts=[0, 0])
        b = HistogramData(bounds=(2.0,), bucket_counts=[0, 0])
        with pytest.raises(ValueError):
            a.merge(b)


def MetricsRegistryFromHistogram(h):
    registry = MetricsRegistry()
    registry._metrics[h.name] = h
    return registry.snapshot()


class TestRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1
        assert "a" in registry

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")
        with pytest.raises(TypeError):
            registry.histogram("a")

    def test_snapshot_is_frozen(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        snap = registry.snapshot()
        registry.counter("a").inc(3)
        assert snap.counters["a"] == 2
        assert registry.snapshot().counters["a"] == 5


def _snapshots():
    counters = st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=0, max_value=1000),
        max_size=3,
    )
    gauges = st.dictionaries(
        st.sampled_from(["g", "h"]),
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        max_size=2,
    )

    @st.composite
    def histogram_data(draw):
        values = draw(
            st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                     max_size=5)
        )
        h = Histogram("x", bounds=(1.0, 10.0))
        for v in values:
            h.observe(v)
        return HistogramData(
            bounds=h.bounds, bucket_counts=list(h.bucket_counts),
            count=h.count, total=h.total, min=h.min, max=h.max,
        )

    histograms = st.dictionaries(
        st.sampled_from(["s", "t"]), histogram_data(), max_size=2
    )
    return st.builds(
        MetricsSnapshot, counters=counters, gauges=gauges,
        histograms=histograms,
    )


def _close(a: MetricsSnapshot, b: MetricsSnapshot) -> bool:
    if set(a.counters) != set(b.counters) or set(a.gauges) != set(b.gauges):
        return False
    if set(a.histograms) != set(b.histograms):
        return False
    for name in a.counters:
        if a.counters[name] != b.counters[name]:
            return False
    for name in a.gauges:
        if a.gauges[name] != pytest.approx(b.gauges[name]):
            return False
    for name in a.histograms:
        ha, hb = a.histograms[name], b.histograms[name]
        if ha.bucket_counts != hb.bucket_counts or ha.count != hb.count:
            return False
        if ha.total != pytest.approx(hb.total):
            return False
        if ha.min != hb.min or ha.max != hb.max:
            return False
    return True


class TestMergeProperties:
    """merge must be associative + commutative — the ScanStats contract."""

    @settings(max_examples=60, deadline=None)
    @given(_snapshots(), _snapshots())
    def test_commutative(self, a, b):
        ab = a.copy().merge(b.copy())
        ba = b.copy().merge(a.copy())
        assert _close(ab, ba)

    @settings(max_examples=60, deadline=None)
    @given(_snapshots(), _snapshots(), _snapshots())
    def test_associative(self, a, b, c):
        left = a.copy().merge(b.copy()).merge(c.copy())
        right = a.copy().merge(b.copy().merge(c.copy()))
        assert _close(left, right)

    @settings(max_examples=30, deadline=None)
    @given(_snapshots())
    def test_identity(self, a):
        assert _close(a.copy().merge(MetricsSnapshot()), a)

    @settings(max_examples=30, deadline=None)
    @given(_snapshots())
    def test_dict_round_trip(self, a):
        again = MetricsSnapshot.from_dict(
            json.loads(json.dumps(a.as_dict()))
        )
        assert _close(again, a)


class TestSinks:
    def test_null_sink_disabled(self):
        sink = NullSink()
        assert not sink.enabled
        sink.emit({"event": "x"})  # silently dropped

    def test_memory_sink_collects(self):
        sink = MemorySink()
        sink.emit({"event": "a"})
        sink.emit({"event": "b"})
        assert [e["event"] for e in sink.events] == ["a", "b"]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"event": "a", "n": 1})
            sink.emit({"event": "b"})
        events = read_jsonl(path)
        assert events == [{"event": "a", "n": 1}, {"event": "b"}]

    def test_jsonl_appends(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"event": "a"})
        with JsonlSink(path) as sink:
            sink.emit({"event": "b"})
        assert len(read_jsonl(path)) == 2

    def test_jsonl_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "run.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError):
            sink.emit({"event": "x"})

    def test_read_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"event": "a"})
            sink.emit({"event": "b"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "c", "trunc')  # killed mid-write
        assert [e["event"] for e in read_jsonl(path)] == ["a", "b"]

    def test_reopen_cuts_a_torn_line_before_appending(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"event": "a"})
            sink.emit({"event": "b"})
        raw = path.read_bytes()
        for cut in range(raw.index(b"\n") + 1, len(raw)):  # inside "b"
            path.write_bytes(raw[:cut])
            with JsonlSink(path) as sink:
                sink.emit({"event": "c"})
                sink.emit({"event": "d"})
            assert [e["event"] for e in read_jsonl(path)] == ["a", "c", "d"]
        path.write_bytes(raw[:5])  # inside the first line: nothing survives
        with JsonlSink(path) as sink:
            sink.emit({"event": "c"})
        assert [e["event"] for e in read_jsonl(path)] == ["c"]


class TestSpans:
    def test_nested_paths_and_attribution(self):
        sink = MemorySink()
        tele = Telemetry(sink)
        with tele.span("outer", kind="test"):
            tele.count("work", 2)
            with tele.span("inner"):
                tele.count("work", 3)
        events = [e for e in sink.events if e["event"] == "span"]
        assert [e["path"] for e in events] == ["outer.inner", "outer"]
        # innermost span owns its increments; outer only its own
        assert events[0]["counters"] == {"work": 3}
        assert events[1]["counters"] == {"work": 2}
        assert events[1]["attrs"] == {"kind": "test"}
        # the global registry saw both
        assert tele.snapshot().counters["work"] == 5
        # every span also lands in a duration histogram
        hists = tele.snapshot().histograms
        assert "span.outer.seconds" in hists
        assert "span.outer.inner.seconds" in hists

    def test_failed_span_flagged(self):
        sink = MemorySink()
        tele = Telemetry(sink)
        with pytest.raises(RuntimeError):
            with tele.span("boom"):
                raise RuntimeError("x")
        [event] = [e for e in sink.events if e["event"] == "span"]
        assert event["failed"] is True

    def test_events_tagged_with_active_span(self):
        sink = MemorySink()
        tele = Telemetry(sink)
        with tele.span("stage"):
            tele.event("progress", {"n": 1})
        event = next(e for e in sink.events if e["event"] == "progress")
        assert event["span"] == "stage"
        assert event["n"] == 1

    def test_close_flushes_metrics(self):
        sink = MemorySink()
        with Telemetry(sink) as tele:
            tele.count("a")
        [metrics] = [e for e in sink.events if e["event"] == "metrics"]
        assert metrics["snapshot"]["counters"]["a"] == 1

    def test_merge_snapshot_folds_shard(self):
        tele = Telemetry(MemorySink())
        tele.count("a", 1)
        tele.gauge("g", 2.0)
        shard = MetricsSnapshot(counters={"a": 4}, gauges={"g": 1.0})
        tele.merge_snapshot(shard)
        snap = tele.snapshot()
        assert snap.counters["a"] == 5
        assert snap.gauges["g"] == 2.0  # max wins

    def test_null_telemetry_is_inert(self):
        assert not NULL_TELEMETRY.enabled
        NULL_TELEMETRY.count("x", 10)
        NULL_TELEMETRY.gauge("g", 1)
        NULL_TELEMETRY.observe("h", 1)
        NULL_TELEMETRY.event("progress", {"n": 1})
        with NULL_TELEMETRY.span("s") as span:
            pass
        assert span is NULL_TELEMETRY.span("other")  # shared no-op span
        assert len(NULL_TELEMETRY.registry) == 0

    def test_ensure(self):
        tele = Telemetry(MemorySink())
        assert ensure(tele) is tele
        assert ensure(None) is NULL_TELEMETRY


class TestManifest:
    def test_create_and_round_trip(self):
        manifest = RunManifest.create("scan", {"port": 80}, rng_seed=7)
        assert manifest.version
        assert manifest.python
        data = json.loads(json.dumps(manifest.as_dict()))
        assert data["event"] == "manifest"
        assert RunManifest.from_dict(data) == manifest

    def test_emit_is_first_event(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Telemetry(JsonlSink(path)) as tele:
            RunManifest.create("scan", rng_seed=0).emit(tele)
            tele.count("a")
        events = read_jsonl(path)
        assert events[0]["event"] == "manifest"

    def test_emit_skips_null_sink(self):
        RunManifest.create("scan").emit(NULL_TELEMETRY)  # no error, no-op


class TestTimer:
    def test_timer_context(self):
        with Timer() as t:
            sum(range(1000))
        assert t.seconds >= 0.0

    def test_time_call_returns_result(self):
        result, elapsed = time_call(lambda: 42)
        assert result == 42
        assert elapsed >= 0.0

    def test_median_time(self):
        result, med = median_time(lambda: "ok", repeats=3)
        assert result == "ok"
        assert med >= 0.0

    def test_median_time_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            median_time(lambda: None, repeats=0)


class TestScanStatsSnapshot:
    def test_matches_stats_fields(self):
        stats = ScanStats(
            probes_sent=10, responses=4, blacklisted=2, dropped=1,
            retransmits=3,
        )
        snap = scan_stats_snapshot(stats)
        assert snap.counters == {
            "scan.probes_sent": 10,
            "scan.responses": 4,
            "scan.blacklisted": 2,
            "scan.dropped": 1,
            "scan.retransmits": 3,
        }


class TestReport:
    def _write_run(self, path, counters, span_seconds, config=None):
        with Telemetry(JsonlSink(path)) as tele:
            RunManifest.create(
                "scan", config or {"port": 80}, rng_seed=0
            ).emit(tele)
            with tele.span("scan"):
                for name, value in counters.items():
                    tele.count(name, value)

    def test_load_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._write_run(path, {"scan.hits": 12}, 0.0)
        run = load_run(path)
        assert run.manifest.command == "scan"
        assert run.metrics.counters["scan.hits"] == 12
        assert run.spans["scan"].count == 1
        assert run.event_count == 3  # manifest + span + metrics

    def test_render_summary(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._write_run(path, {"scan.hits": 12}, 0.0)
        text = render_summary(load_run(path))
        assert "run: scan" in text
        assert "scan.hits" in text
        assert "port=80" in text

    def test_render_summary_without_manifest(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        with Telemetry(JsonlSink(path)) as tele:
            tele.count("a")
            tele.flush()
        text = render_summary(load_run(path))
        assert "no manifest event" in text

    def test_render_delta(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        self._write_run(a, {"scan.hits": 20}, 0.0, config={"port": 80})
        self._write_run(b, {"scan.hits": 10}, 0.0, config={"port": 443})
        text = render_delta(load_run(a), load_run(b))
        assert "delta:" in text
        assert "! config differs" in text
        assert "scan.hits" in text
        assert "+100.0%" in text


def _scan_world(n_hosts=400):
    hosts = {addr(f"2001:db8:{i % 16:x}::{i:x}") for i in range(1, n_hosts)}
    regions = AliasedRegionSet()
    regions.add_prefix(Prefix.parse("2001:db8:aaaa::/96"))
    truth = GroundTruth({80: hosts}, regions)
    targets = sorted(hosts)[: n_hosts // 2]
    targets += [addr(f"2001:db8:dead::{i:x}") for i in range(1, 200)]
    targets += [addr(f"2001:db8:aaaa::{i:x}") for i in range(1, 40)]
    blacklist = Blacklist([Prefix.parse("2001:db8:f::/112")])
    return truth, blacklist, targets


class TestScanParity:
    """Hits and ScanStats must be identical with telemetry on or off."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_identical_with_and_without_telemetry(self, workers):
        truth, blacklist, targets = _scan_world()
        config = ScanConfig(workers=workers)
        plain = Scanner(
            truth, blacklist=blacklist, loss_rate=0.1, rng_seed=3,
            config=config,
        ).scan(targets)
        instrumented_tele = Telemetry(MemorySink())
        instrumented = Scanner(
            truth, blacklist=blacklist, loss_rate=0.1, rng_seed=3,
            config=config, telemetry=instrumented_tele,
        ).scan(targets)
        assert instrumented.hits == plain.hits
        assert instrumented.stats == plain.stats
        counters = instrumented_tele.snapshot().counters
        assert counters["scan.probes_sent"] == plain.stats.probes_sent
        assert counters["scan.hits"] == len(plain.hits)

    def test_counters_identical_across_worker_counts(self):
        truth, blacklist, targets = _scan_world()

        def run(workers):
            tele = Telemetry(MemorySink())
            Scanner(
                truth, blacklist=blacklist, loss_rate=0.1, rng_seed=3,
                config=ScanConfig(workers=workers), telemetry=tele,
            ).scan(targets)
            counters = tele.snapshot().counters
            # batch/merge bookkeeping legitimately differs per layout
            counters.pop("scan.batches", None)
            counters.pop("scan.worker_merges", None)
            return counters

        assert run(1) == run(2)

    def test_scan_summary_event_emitted(self):
        truth, blacklist, targets = _scan_world()
        sink = MemorySink()
        Scanner(
            truth, blacklist=blacklist, rng_seed=3,
            telemetry=Telemetry(sink),
        ).scan(targets)
        [summary] = [e for e in sink.events if e["event"] == "scan_summary"]
        assert summary["targets"] == len(set(targets))
        assert summary["probes_sent"] >= summary["hits"] > 0
        assert {"port", "hit_rate", "workers", "seconds"} <= summary.keys()


class TestSixGenParity:
    """Clusters and targets must be identical with telemetry on or off."""

    def test_identical_with_and_without_telemetry(self):
        seeds = [addr(f"2001:db8::{i:x}0") for i in range(1, 30)]
        seeds += [addr(f"2001:db8:1::{i:x}") for i in range(1, 20)]
        plain = run_6gen(seeds, 2_000, rng_seed=0)
        tele = Telemetry(MemorySink())
        instrumented = run_6gen(seeds, 2_000, rng_seed=0, telemetry=tele)
        assert instrumented.target_set() == plain.target_set()
        assert {c.range for c in instrumented.clusters} == {
            c.range for c in plain.clusters
        }
        assert instrumented.budget_used == plain.budget_used
        counters = tele.snapshot().counters
        assert counters["sixgen.clusters_final"] == len(plain.clusters)
        assert counters["sixgen.budget_used"] == plain.budget_used
        assert counters["sixgen.candidate_scans"] > 0

    def test_kernel_flag_recorded(self):
        seeds = [addr(f"2001:db8::{i:x}") for i in range(1, 10)]
        sink = MemorySink()
        run_6gen(seeds, 100, telemetry=Telemetry(sink), use_vector_kernel=False)
        [summary] = [e for e in sink.events if e["event"] == "sixgen_summary"]
        assert summary["kernel"] == "reference"


class TestDealiasParity:
    """Verdicts must be identical with telemetry on or off."""

    def test_identical_with_and_without_telemetry(self):
        truth, blacklist, targets = _scan_world()
        scanner = Scanner(truth, blacklist=blacklist, rng_seed=3)
        hits = scanner.scan(targets).hits
        plain = dealias(hits, scanner, rng_seed=5)
        tele = Telemetry(MemorySink())
        instrumented = dealias(
            hits,
            Scanner(truth, blacklist=blacklist, rng_seed=3),
            rng_seed=5,
            telemetry=tele,
        )
        assert instrumented.clean_hits == plain.clean_hits
        assert instrumented.aliased_hits == plain.aliased_hits
        assert instrumented.aliased_prefixes == plain.aliased_prefixes
        counters = tele.snapshot().counters
        assert counters["dealias.hits_in"] == len(set(hits))
        assert (
            counters["dealias.clean_hits"]
            == len(plain.clean_hits)
        )
