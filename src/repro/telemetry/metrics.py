"""Mergeable metrics: counters, gauges, and fixed-bucket histograms.

The registry is the aggregation half of the telemetry subsystem: hot
paths increment named metrics, and a :meth:`MetricsRegistry.snapshot`
freezes the current values into a plain-data
:class:`MetricsSnapshot`.  Snapshots obey the same contract as
:meth:`repro.scanner.probe.ScanStats.merge` — ``merge`` is associative
and commutative — so metrics from any partition of a run (one
snapshot per scan, per campaign phase or per generation shard)
combine into exactly the totals one registry would have recorded,
regardless of completion order.

Merge rules per metric kind:

* **counter** — values add;
* **gauge** — values combine with ``max`` (the only order-independent
  choice for a last-known-level metric; documented, deliberate);
* **histogram** — bucket counts, total count, and value sum add;
  min/max combine with min/max.  Histograms with the same name must
  share bucket bounds, which is why bounds are fixed at creation.

Nothing in this module touches an RNG stream or the system clock, so
instrumented code keeps bit-identical behaviour with telemetry on or
off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

#: Default histogram bucket upper bounds (seconds-flavoured, but any
#: unit works — callers pick bounds that suit the quantity observed).
DEFAULT_BOUNDS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

_INF = float("inf")


class Counter:
    """A monotonically increasing named sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0: {amount}")
        self.value += amount


class Gauge:
    """A last-known level (merged across shards with ``max``)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: int | float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with overflow, sum, min, and max.

    ``bounds`` are inclusive upper edges; one extra overflow bucket
    catches everything above the last bound.  Fixed bounds are what
    make two shards' histograms mergeable bucket-by-bucket.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Iterable[float] = DEFAULT_BOUNDS):
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ValueError(f"bounds must strictly increase: {self.bounds}")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = _INF
        self.max = -_INF

    def observe(self, value: int | float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class HistogramData:
    """Plain-data histogram state (the snapshot/JSON form)."""

    bounds: tuple[float, ...]
    bucket_counts: list[int]
    count: int = 0
    total: float = 0.0
    min: float = _INF
    max: float = -_INF

    def merge(self, other: "HistogramData") -> "HistogramData":
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        self.bucket_counts = [
            a + b for a, b in zip(self.bucket_counts, other.bucket_counts)
        ]
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "HistogramData":
        count = int(data["count"])
        return cls(
            bounds=tuple(data["bounds"]),
            bucket_counts=list(data["bucket_counts"]),
            count=count,
            total=float(data["total"]),
            min=float(data["min"]) if count else _INF,
            max=float(data["max"]) if count else -_INF,
        )


@dataclass
class MetricsSnapshot:
    """Frozen metric values; ``merge`` is associative and commutative."""

    counters: dict[str, int | float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramData] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold another snapshot into this one (returns self)."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.gauges.items():
            mine = self.gauges.get(name)
            self.gauges[name] = value if mine is None else max(mine, value)
        for name, data in other.histograms.items():
            mine_h = self.histograms.get(name)
            if mine_h is None:
                self.histograms[name] = HistogramData(
                    bounds=data.bounds,
                    bucket_counts=list(data.bucket_counts),
                    count=data.count,
                    total=data.total,
                    min=data.min,
                    max=data.max,
                )
            else:
                mine_h.merge(data)
        return self

    def copy(self) -> "MetricsSnapshot":
        fresh = MetricsSnapshot()
        fresh.merge(self)
        return fresh

    def as_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {n: h.as_dict() for n, h in self.histograms.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsSnapshot":
        return cls(
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            histograms={
                name: HistogramData.from_dict(h)
                for name, h in data.get("histograms", {}).items()
            },
        )


class MetricsRegistry:
    """Named metrics for one run (or one shard of a run).

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create, so
    instrumented code never needs to pre-declare a metric; asking for
    an existing name with a different kind raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name)
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, bounds)
            self._metrics[name] = metric
        elif type(metric) is not Histogram:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not Histogram"
            )
        return metric

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> MetricsSnapshot:
        """Freeze current values into a mergeable, picklable snapshot."""
        snap = MetricsSnapshot()
        for name, metric in self._metrics.items():
            if isinstance(metric, Counter):
                snap.counters[name] = metric.value
            elif isinstance(metric, Gauge):
                snap.gauges[name] = metric.value
            else:
                snap.histograms[name] = HistogramData(
                    bounds=metric.bounds,
                    bucket_counts=list(metric.bucket_counts),
                    count=metric.count,
                    total=metric.total,
                    min=metric.min,
                    max=metric.max,
                )
        return snap
