"""repro.telemetry — metrics, spans, sinks, and run manifests.

The observability layer for the whole pipeline (see
``docs/observability.md``):

* :mod:`~repro.telemetry.metrics` — named counters/gauges/histograms
  whose snapshots merge associatively and commutatively (the
  ``ScanStats.merge`` contract, so partial runs combine exactly);
* :mod:`~repro.telemetry.spans` — nested timed spans with per-span
  counter attribution, plus the :class:`Telemetry` façade and the
  inert :data:`NULL_TELEMETRY` default;
* :mod:`~repro.telemetry.sinks` — ``NullSink`` (default, near-zero
  overhead), ``MemorySink``, and crash-safe ``JsonlSink``;
* :mod:`~repro.telemetry.manifest` — :class:`RunManifest` provenance
  records that make every JSONL file self-describing;
* :mod:`~repro.telemetry.report` — run summaries and two-run deltas
  (the ``repro report`` subcommand);
* :mod:`~repro.telemetry.timer` — the shared benchmark stopwatch.

Instrumentation is strictly passive: it never touches an RNG stream
or alters iteration order, so every parity gate in the test suite
holds with telemetry on or off.

Quickstart::

    from repro.telemetry import JsonlSink, RunManifest, Telemetry

    with Telemetry(JsonlSink("scan.jsonl")) as tele:
        RunManifest.create("scan", {"port": 80}, rng_seed=0).emit(tele)
        scanner = Scanner(truth, telemetry=tele)
        scanner.scan(targets)
    # later: repro report scan.jsonl
"""

from .manifest import RunManifest
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramData,
    MetricsRegistry,
    MetricsSnapshot,
)
from .report import RunSummary, load_run, render_delta, render_summary
from .sinks import JsonlSink, MemorySink, NullSink, Sink, read_jsonl
from .spans import NULL_TELEMETRY, Span, Telemetry, ensure
from .timer import Timer, median_time, time_call

__all__ = [
    "NULL_TELEMETRY",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramData",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullSink",
    "RunManifest",
    "RunSummary",
    "Sink",
    "Span",
    "Telemetry",
    "Timer",
    "ensure",
    "load_run",
    "median_time",
    "read_jsonl",
    "render_delta",
    "render_summary",
    "time_call",
]
