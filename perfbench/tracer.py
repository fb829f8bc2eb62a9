"""Outside-in span tracer for the end-to-end benchmark.

The tracer times calls into each layer's public entry points from the
benchmark's own code: :func:`install` swaps the named functions and
methods for thin wrappers, and :meth:`Tracer.restore` puts the
originals back.  Each wrapped call records one :class:`Span` (name,
start, end, parent, run id); spans stay in memory and are written out
when the benchmark ends.

Why not the program's own ``repro.telemetry`` spans: they mis-nest
when the campaign service interleaves stepwise campaigns.
``Campaign.begin`` leaves its ``full_scan`` span open across scheduler
turns, so other jobs' spans end up nested inside it.  Wrappers opened
and closed by the call stack cannot mis-nest.

Two lookups need care:

* ``repro.scanner.dealias`` as an attribute of ``repro.scanner`` is
  the re-exported *function*, not the module, so modules are resolved
  through :func:`importlib.import_module`.
* A function bound by ``from x import f`` at import time is patched
  where the caller binds it (``run_6gen`` in ``repro.campaign.generate``,
  ``dealias`` and ``generate_per_prefix`` in
  ``repro.campaign.pipeline``).  Functions imported inside a function
  body (``target_digest``, ``detect_aliased_prefixes``,
  ``extract_features``) are patched in their defining module, which is
  where those imports read them at call time.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass

#: Fixed percentile ladder for the tail rule (highest first).
_PERCENTILES = (99.99, 99.9, 99.5) + tuple(range(99, 49, -1))


@dataclass
class Span:
    """One traced call: ``parent`` is the enclosing span's index."""

    name: str
    start: float
    end: float
    parent: int | None
    run: str

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
        }


class Tracer:
    """Spans kept in memory plus counters read from call results."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._restore: list = []
        self._finished_executions: "weakref.WeakSet" = weakref.WeakSet()

    # -- spans ---------------------------------------------------------

    def open(self, name: str, run: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if run is None:
            run = self.spans[parent].run if parent is not None else "-"
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> float:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - wrappers nest by construction
            raise RuntimeError(f"span {span.name} closed out of order")
        return span.end - span.start

    def open_names(self) -> list[str]:
        return [self.spans[i].name for i in self._stack]

    # -- patching ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, run_of=None, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``run_of(args)`` names the run a call belongs to (``None``
        inherits the parent's); ``after(args, result, seconds)`` reads
        counts from the call's arguments and return value once the
        span has closed, so counting is not charged to the layer.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name, run_of(args) if run_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self.close(index)
            if after is not None:
                after(args, result, seconds)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._restore.append((owner, attr, raw))

    def restore(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark attributes time to."""
    mod = importlib.import_module
    pipeline = mod("repro.campaign.pipeline")
    generate = mod("repro.campaign.generate")
    engine = mod("repro.scanner.engine")
    execution = mod("repro.scanner.execution")
    checkpoint = mod("repro.scanner.checkpoint")
    dealias_mod = mod("repro.scanner.dealias")
    dynamics = mod("repro.simnet.dynamics")
    store = mod("repro.hitlist.store")
    daemon = mod("repro.service.daemon")
    features = mod("repro.predictive.features")
    allocate = mod("repro.predictive.allocate")
    count, samples = tracer.counts, tracer.samples

    def after_sixgen(args, result, seconds):
        count["core.sixgen_calls"] += 1
        samples["core.sixgen_call"].append(seconds)

    def after_generate(args, result, seconds):
        # The serial path already holds each prefix's target set, so
        # target_count() reads a length; it expands nothing.
        count["campaign.targets_generated"] += sum(
            run.result.target_count() for run in result.runs.values()
        )

    def note_scan(stats, hits):
        count["scanner.probes"] += stats.probes_sent
        count["scanner.retransmits"] += stats.retransmits
        count["scanner.dropped"] += stats.dropped
        count["scanner.raw_hits"] += len(hits)

    def after_scan(args, result, seconds):
        note_scan(result.stats, result.hits)

    def after_step(args, more, seconds):
        ex = args[0]
        # Scanner.scan drives an execution internally; its result is
        # counted once, by the scan wrapper.
        if more or ex in tracer._finished_executions:
            return
        tracer._finished_executions.add(ex)
        if "Scanner.scan" not in tracer.open_names():
            note_scan(ex.stats, ex.hits)

    def after_dealias(args, report, seconds):
        count["dealias.hits_in"] += report.total_hits
        count["dealias.aliased_hits"] += len(report.aliased_hits)

    def after_advance(args, result, seconds):
        count["simnet.advance_calls"] += 1

    def after_observe(args, summary, seconds):
        count["hitlist.rows_observed"] += summary["hits"] + summary["misses"]

    def after_service_step(args, more, seconds):
        if more:
            count["service.turns"] += 1

    def after_plan(args, plan, seconds):
        count["predictive.plans"] += 1

    def note_campaign(campaign, result):
        # Phased campaigns charge their in-loop §6.2 alias tests to the
        # scan's probes; the single-phase paths leave the counter at 0.
        count["campaign.alias_test_probes"] += campaign.alias_probes
        if campaign.targets is None:  # generated, not a fixed target list
            stats = result.scan.stats
            count["campaign.targets_scanned"] += (
                stats.probes_sent - campaign.alias_probes + stats.blacklisted
            )

    def after_run(args, result, seconds):
        if args[0].allocation is None:  # a phased run() ends in finish()
            note_campaign(args[0], result)

    def after_finish(args, result, seconds):
        note_campaign(args[0], result)

    def campaign_run(args):
        return args[0].name

    Campaign = pipeline.Campaign
    tracer.wrap(generate, "run_6gen", "run_6gen", after=after_sixgen)
    tracer.wrap(pipeline, "generate_per_prefix", "generate_per_prefix", after=after_generate)
    tracer.wrap(pipeline, "dealias", "dealias", after=after_dealias)
    tracer.wrap(Campaign, "run", "Campaign.run", run_of=campaign_run, after=after_run)
    tracer.wrap(Campaign, "begin", "Campaign.begin", run_of=campaign_run)
    tracer.wrap(Campaign, "step", "Campaign.step", run_of=campaign_run)
    tracer.wrap(Campaign, "finish", "Campaign.finish", run_of=campaign_run, after=after_finish)
    tracer.wrap(features, "extract_features", "extract_features")
    tracer.wrap(
        allocate.PredictiveAllocator, "plan", "PredictiveAllocator.plan", after=after_plan
    )
    tracer.wrap(engine.Scanner, "scan", "Scanner.scan", after=after_scan)
    tracer.wrap(execution.ScanExecution, "step", "ScanExecution.step", after=after_step)
    tracer.wrap(checkpoint, "target_digest", "target_digest")
    tracer.wrap(dealias_mod, "detect_aliased_prefixes", "detect_aliased_prefixes")
    tracer.wrap(dynamics.DynamicWorld, "advance_to", "DynamicWorld.advance_to", after=after_advance)
    tracer.wrap(store.LivingHitlist, "observe", "LivingHitlist.observe", after=after_observe)
    tracer.wrap(store.LivingHitlist, "snapshot", "LivingHitlist.snapshot")
    tracer.wrap(store.LivingHitlist, "open", "LivingHitlist.open")
    tracer.wrap(
        daemon.CampaignService, "step", "CampaignService.step",
        run_of=lambda args: "service", after=after_service_step,
    )


# -- analysis ----------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans open and close by the call stack, so children never overlap
    each other or outlast their parent.
    """
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, self_times(spans)):
        totals[span.name] += seconds
    return dict(totals)


def tail_percentile(samples, min_beyond: int = 10):
    """The highest ladder percentile with ``min_beyond`` samples above it.

    Nearest-rank percentiles: percentile ``p`` of ``n`` sorted samples
    is the sample at rank ``ceil(p * n / 100)``, and the samples beyond
    it are the ``n - rank`` after it.  Returns ``(p, value, n)``, with
    ``p`` and ``value`` ``None`` when fewer than ``2 * min_beyond``
    samples leave even the median without enough beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in _PERCENTILES:
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= min_beyond:
            return p, ordered[rank - 1], n
    return None, None, n


#: Span name -> per-layer self-time metric.
LAYER_OF = {
    "run_6gen": "core.sixgen_s",
    "generate_per_prefix": "campaign.generate_s",
    "Campaign.run": "campaign.phase_s",
    "Campaign.begin": "campaign.phase_s",
    "Campaign.step": "campaign.phase_s",
    "Campaign.finish": "campaign.phase_s",
    "Scanner.scan": "scanner.scan_s",
    "ScanExecution.step": "scanner.scan_s",
    "target_digest": "checkpoint.digest_s",
    "dealias": "dealias.run_s",
    "detect_aliased_prefixes": "dealias.alias_test_s",
    "DynamicWorld.advance_to": "simnet.advance_s",
    "LivingHitlist.observe": "hitlist.observe_s",
    "LivingHitlist.snapshot": "hitlist.snapshot_s",
    "LivingHitlist.open": "hitlist.reopen_s",
    "CampaignService.step": "service.sched_s",
    "extract_features": "predictive.features_s",
    "PredictiveAllocator.plan": "predictive.plan_s",
    # Timed-part root spans: benchmark driver code plus program code
    # outside every wrapped entry point.
    "workload": "trace.unattributed_s",
    "world_build": "simnet.build_s",
}


def _latency(prefix: str, samples) -> dict:
    """Median and tail (ms) of per-call seconds, plus the tail's percentile."""
    p, tail, _ = tail_percentile(samples)
    return {
        f"{prefix}_p50_ms": (statistics.median(samples) * 1e3 if samples else 0.0, "ms"),
        f"{prefix}_tail_ms": (tail * 1e3 if tail is not None else 0.0, "ms"),
        f"{prefix}_tail_pct": (p if p is not None else 0.0, "pct"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced, reference) -> dict:
    """Every per-layer metric of a traced pass, as ``name -> (value, unit)``.

    Self times are summed per layer over the pass's spans (set-up's
    ``world_build`` included); shares are of the traced pass's
    ``wall_s``.  Layers a workload bypasses report zeros.
    """
    wall = traced.wall
    layer_s = dict.fromkeys(dict.fromkeys(LAYER_OF.values()), 0.0)
    for name, seconds in self_time_by_name(tracer.spans).items():
        layer_s[LAYER_OF[name]] += seconds
    out = {}
    for metric, seconds in layer_s.items():
        out[metric] = (seconds, "s")
        out[f"{metric}.share"] = (seconds / wall, "fraction")
    c = tracer.counts
    scan_s = layer_s["scanner.scan_s"]
    out.update(
        {
            "core.sixgen_calls": (c["core.sixgen_calls"], "count"),
            **_latency("core.sixgen_call", tracer.samples["core.sixgen_call"]),
            "campaign.targets_generated": (c["campaign.targets_generated"], "count"),
            "campaign.scanned_ratio": (
                _ratio(c["campaign.targets_scanned"], c["campaign.targets_generated"]), "ratio"
            ),
            "campaign.alias_test_probes": (c["campaign.alias_test_probes"], "count"),
            "campaign.budget_overshoot_probes": (
                sum(op.overshoot for op in traced.ops), "count"
            ),
            "predictive.plans": (c["predictive.plans"], "count"),
            "scanner.probes": (c["scanner.probes"], "count"),
            "scanner.retransmits": (c["scanner.retransmits"], "count"),
            "scanner.dropped": (c["scanner.dropped"], "count"),
            "scanner.hit_ratio": (_ratio(c["scanner.raw_hits"], c["scanner.probes"]), "ratio"),
            "scanner.probes_per_busy_s": (_ratio(c["scanner.probes"], scan_s), "probes/s"),
            "checkpoint.bytes": (traced.checkpoint_bytes, "bytes"),
            "dealias.hits_in": (c["dealias.hits_in"], "count"),
            "dealias.aliased_ratio": (
                _ratio(c["dealias.aliased_hits"], c["dealias.hits_in"]), "ratio"
            ),
            "hitlist.rows_observed": (c["hitlist.rows_observed"], "count"),
            "hitlist.log_bytes": (traced.hitlist_log_bytes, "bytes"),
            "simnet.advance_calls": (c["simnet.advance_calls"], "count"),
            "service.turns": (c["service.turns"], "count"),
            **_latency("service.wait", traced.waits),
            "service.wait_samples": (len(traced.waits), "count"),
            "service.wait_max_ms": (max(traced.waits) * 1e3 if traced.waits else 0.0, "ms"),
            "trace.overhead_ratio": (wall / reference.wall, "ratio"),
        }
    )
    return out
