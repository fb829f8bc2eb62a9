"""Nested timed spans and the :class:`Telemetry` façade.

A *span* is a context manager that times a pipeline stage.  Spans
nest; each span records its dot-joined path (``scan/...`` inside
``full_scan`` becomes ``full_scan.scan``), its wall-clock duration,
and the counter increments attributed to it — every
:meth:`Telemetry.count` call made while the span is the innermost
active one is tallied against it as well as against the global
registry.  On exit a span emits one ``span`` event to the sink and
observes its duration in the ``span.<path>.seconds`` histogram.

:class:`Telemetry` is the single object instrumented code touches: it
bundles a :class:`~repro.telemetry.metrics.MetricsRegistry`, a
:class:`~repro.telemetry.sinks.Sink`, and the span stack.  The module
singleton :data:`NULL_TELEMETRY` is the default everywhere — all of
its operations are no-ops, so un-instrumented callers pay one
attribute load and a truth test on the hot path, nothing more.

Telemetry never reads an RNG and never reorders work: enabling it
cannot change hits, stats, clusters, or verdicts.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping

from .metrics import DEFAULT_BOUNDS, MetricsRegistry, MetricsSnapshot
from .sinks import NullSink, Sink

#: Bucket bounds for span-duration histograms (seconds).
SPAN_BOUNDS = (0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0)


class Span:
    """One timed, nested pipeline stage (use via :meth:`Telemetry.span`)."""

    __slots__ = ("telemetry", "name", "path", "attrs", "counters", "seconds", "_start")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: dict):
        self.telemetry = telemetry
        self.name = name
        self.attrs = attrs
        self.path = name  # finalised on __enter__ from the active stack
        self.counters: dict[str, int | float] = {}
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Span":
        stack = self.telemetry._span_stack
        if stack:
            self.path = f"{stack[-1].path}.{self.name}"
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._start
        stack = self.telemetry._span_stack
        if stack and stack[-1] is self:
            stack.pop()
        self.telemetry._finish_span(self, failed=exc_type is not None)


class _NullSpan:
    """Reusable no-op span for :data:`NULL_TELEMETRY`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Telemetry:
    """Metrics registry + event sink + span stack for one run."""

    #: True for real telemetry; the null singleton overrides to False so
    #: hot paths can skip building labels/payloads entirely.
    enabled = True

    def __init__(
        self,
        sink: Sink | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.sink = sink or NullSink()
        self.registry = registry or MetricsRegistry()
        self._span_stack: list[Span] = []

    # -- metrics ------------------------------------------------------------
    def count(self, name: str, amount: int | float = 1) -> None:
        """Increment a named counter (attributed to the active span too)."""
        self.registry.counter(name).inc(amount)
        if self._span_stack:
            counters = self._span_stack[-1].counters
            counters[name] = counters.get(name, 0) + amount

    def gauge(self, name: str, value: int | float) -> None:
        self.registry.gauge(name).set(value)

    def observe(
        self, name: str, value: int | float,
        bounds: Iterable[float] = DEFAULT_BOUNDS,
    ) -> None:
        self.registry.histogram(name, bounds).observe(value)

    def snapshot(self) -> MetricsSnapshot:
        return self.registry.snapshot()

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot (one scan's stats, say) into this registry.

        Addition order does not matter (snapshot ``merge`` is
        commutative), so shards may land in any completion order and
        still reproduce the sequential totals.
        """
        for name, value in snapshot.counters.items():
            self.registry.counter(name).inc(value)
        for name, value in snapshot.gauges.items():
            gauge = self.registry.gauge(name)
            gauge.set(max(gauge.value, value))
        for name, data in snapshot.histograms.items():
            histogram = self.registry.histogram(name, data.bounds)
            histogram.bucket_counts = [
                a + b for a, b in zip(histogram.bucket_counts, data.bucket_counts)
            ]
            histogram.count += data.count
            histogram.total += data.total
            histogram.min = min(histogram.min, data.min)
            histogram.max = max(histogram.max, data.max)

    # -- spans and events ---------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        """Open a nested timed span: ``with tele.span("scan"): ...``."""
        return Span(self, name, attrs)

    def _finish_span(self, span: Span, *, failed: bool) -> None:
        self.registry.histogram(
            f"span.{span.path}.seconds", SPAN_BOUNDS
        ).observe(span.seconds)
        if self.sink.enabled:
            event = {
                "event": "span",
                "name": span.name,
                "path": span.path,
                "seconds": round(span.seconds, 6),
            }
            if span.attrs:
                event["attrs"] = dict(span.attrs)
            if span.counters:
                event["counters"] = dict(span.counters)
            if failed:
                event["failed"] = True
            self.sink.emit(event)

    def event(self, kind: str, payload: Mapping | None = None) -> None:
        """Emit a free-form event (``progress``, ``summary``, ...)."""
        if not self.sink.enabled:
            return
        event = {"event": kind}
        if payload:
            event.update(payload)
        if self._span_stack:
            event.setdefault("span", self._span_stack[-1].path)
        self.sink.emit(event)

    # -- lifecycle ----------------------------------------------------------
    def flush(self) -> None:
        """Emit the current metrics snapshot as one ``metrics`` event."""
        if self.sink.enabled:
            self.sink.emit(
                {"event": "metrics", "snapshot": self.snapshot().as_dict()}
            )

    def close(self) -> None:
        """Flush the final snapshot and close the sink."""
        self.flush()
        self.sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _NullTelemetry(Telemetry):
    """Shared inert telemetry: every operation is a no-op.

    This is what instrumented code sees when no telemetry was supplied,
    so the overhead with telemetry off is a method call that returns
    immediately — the <5 % wall-clock budget in ISSUE acceptance is
    enforced by ``tests/test_telemetry.py`` on counter paths and by the
    scan benchmarks end to end.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(NullSink(), MetricsRegistry())

    def count(self, name: str, amount: int | float = 1) -> None:
        pass

    def gauge(self, name: str, value: int | float) -> None:
        pass

    def observe(
        self, name: str, value: int | float,
        bounds: Iterable[float] = DEFAULT_BOUNDS,
    ) -> None:
        pass

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        pass

    def span(self, name: str, **attrs) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def event(self, kind: str, payload: Mapping | None = None) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: The inert default used by every instrumented module.
NULL_TELEMETRY = _NullTelemetry()


def ensure(telemetry: Telemetry | None) -> Telemetry:
    """Normalise an optional telemetry argument to a usable object."""
    return telemetry if telemetry is not None else NULL_TELEMETRY
