"""Simulated ZMap-style scan engine (stand-in for ZMap-v6, §6).

Probes the simulated ground truth instead of the live Internet.  The
engine reproduces the operational properties that matter to the
algorithms under test:

* every probe is counted (probe budgets are the paper's core resource);
* targets are deduplicated and scanned in randomised order (the paper
  randomises destination order to avoid overloading networks);
* a blacklist is honoured unconditionally;
* optional probe loss models an unreliable network path, and repeated
  probes can recover from it (used for failure-injection tests).

The bulk path is a streaming, batched pipeline over packed ``(hi,
lo)`` uint64 columns.  Targets stream in and are deduplicated in
first-seen order as columns, probe order is a ZMap-style cyclic
permutation of the index space (:class:`~repro.scanner.schedule.
CyclicPermutation` — O(1) auxiliary memory, no shuffled copy), and
chunks flow through the vectorised lookups of a frozen
:class:`~repro.scanner.plane.ScanPlane`, optionally sharded across a
process pool (:attr:`ScanConfig.workers`).  A per-address sequential
reference path (``use_batched=False``) is kept as the correctness
oracle, and is the only code that holds boxed target ints: for a fixed
``rng_seed`` both paths — and any worker count — produce identical
hits *and* identical :class:`~repro.scanner.probe.ScanStats`, because
probe order is the shared permutation and scan-time probe loss is a
pure function of ``(scan key, address)`` rather than a draw from a
sequential RNG stream.  ``benchmarks/bench_scan.py`` enforces the
parity on every run.  Truth or blacklist types the plane cannot
snapshot (:meth:`ScanPlane.supports`) scan through the reference path.

Robustness extensions (all default-off, all parity-preserving):

* **Retries** (:attr:`ScanConfig.retries`): after the first pass,
  non-responding, non-blacklisted targets are re-probed for up to
  ``retries`` extra rounds.  Round ``r`` keys the loss PRF with
  ``mix64(loss_key + r)`` (round 0 keeps the raw ``loss_key``, so
  ``retries=0`` output is bit-identical to a scanner without the
  feature) and passes ``attempt=r`` to the ground truth so fault
  models (:mod:`repro.faults`) see the retransmission number.
  Retransmissions are tallied in ``ScanStats.retransmits``, never in
  ``probes_sent`` — budgets stay first-attempt budgets.
* **Checkpoint/resume** (:meth:`Scanner.scan` ``checkpoint=`` /
  ``resume=``): progress streams through a crash-safe
  :class:`~repro.scanner.checkpoint.ScanCheckpointer`; a resumed scan
  replays the recorded keys over the same target stream and finishes
  with hits and stats identical to an uninterrupted run (see
  :mod:`repro.scanner.checkpoint` for the argument).
* **Crash injection** (``crash=``): a
  :class:`~repro.faults.WorkerCrash` spec raises at a chosen batch,
  in-process or inside a pool worker — the test hook behind the
  resume-parity CI job.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..ipv6.addrplane import (
    ColumnDeduper,
    concat_columns,
    dedupe_columns,
    fuse,
    is_columns,
    pack,
    unpack,
)
from ..simnet.ground_truth import GroundTruth
from ..telemetry.metrics import MetricsSnapshot
from ..telemetry.spans import Telemetry, ensure
from .blacklist import Blacklist
from .plane import ScanPlane, loss_prf_arr
from .probe import DEFAULT_PORT, ScanResult, ScanStats
from .schedule import CyclicPermutation, mix64

try:  # posix-only; the peak-RSS gauge degrades to absent elsewhere
    import resource as _resource
except ImportError:  # pragma: no cover - non-posix
    _resource = None

if TYPE_CHECKING:  # import cycles avoided: these are type-only
    from ..faults.models import WorkerCrash
    from .checkpoint import ResumeState, ScanCheckpointer

_M64 = (1 << 64) - 1
#: Domain-separation constants for the keys derived from ``rng_seed``.
_ORDER_SALT = 0x5C4E06D3A1B2C4D5
_PROBE_SALT = 0x9E3779B97F4A7C15
#: Minimum probe_many batch worth routing through the array plane;
#: below this the numpy call overhead outweighs the vectorisation.
_ARRAY_PROBE_MIN = 32


def _loss_prf(key: int, addr: int) -> float:
    """Uniform-in-[0,1) pseudo-random function of ``(key, address)``.

    Scan-time probe loss uses this instead of a sequential RNG stream
    so outcomes do not depend on probe order or worker sharding — the
    property that makes the batched, multi-process paths bit-identical
    to the sequential reference.
    """
    h = mix64(key ^ (addr & _M64))
    h = mix64(h ^ (addr >> 64))
    return h / 18446744073709551616.0  # 2**64


def _normalize_targets(targets) -> "tuple[np.ndarray, np.ndarray]":
    """A target source as deduplicated ``(hi, lo)`` columns.

    Accepted sources:

    * packed ``(hi, lo)`` columns, or an iterable of column chunks (the
      generation plane's streaming handoff), never boxing an int;
    * a ``list`` of ints, packed without a ``map(int, ...)`` re-boxing
      pass (elements are assumed type-homogeneous, judged by the first,
      the same idiom ``addrplane.pack`` uses);
    * any other iterable, whose elements are coerced with ``int()``.

    Every variant keeps the first-seen order ``dict.fromkeys`` gives
    the unpacked sequence, so probe order — and therefore loss
    outcomes — stay deterministic and identical across input forms.
    """
    if is_columns(targets):
        return dedupe_columns(*targets)
    if isinstance(targets, list):
        return dedupe_columns(*pack(targets))
    iterator = iter(targets)
    first = next(iterator, None)
    if first is not None and is_columns(first):
        dedupe = ColumnDeduper()
        chunks = [dedupe.add(*first)]
        chunks.extend(dedupe.add(*chunk) for chunk in iterator)
        return concat_columns(chunks)
    rest = () if first is None else itertools.chain((first,), iterator)
    return dedupe_columns(*pack(rest))


def _round_key(loss_key: int, round_: int) -> int:
    """Loss-PRF key for one scan round.

    Round 0 uses the raw scan loss key — this is load-bearing for
    parity: a ``retries=0`` scan must consume exactly the key material
    a pre-retry scanner did.  Retry rounds re-key with the round
    number, mirroring ``probe_many``'s per-attempt scheme, so each
    retransmission is an independent loss draw.
    """
    return loss_key if round_ == 0 else mix64(loss_key + round_)


@dataclass(frozen=True)
class ScanConfig:
    """Execution parameters for :meth:`Scanner.scan`.

    ``batch_size`` is the chunk granularity of the streaming pipeline;
    ``workers`` > 1 shards chunks across a process pool with
    shared-memory target columns (1 keeps the scan in-process);
    ``use_batched=False`` selects the per-address sequential reference
    path (the correctness oracle the benchmark compares against).  All
    settings produce identical results for a fixed ``rng_seed`` — they
    only trade memory and speed.
    """

    batch_size: int = 4096
    workers: int = 1
    use_batched: bool = True
    #: Extra probe rounds for non-responders (0 = single-pass, the
    #: pre-retry behaviour, bit-identical output).
    retries: int = 0
    #: Virtual seconds waited between retry rounds.  The simulator has
    #: no wall clock, so this is operational bookkeeping only: it is
    #: reported through telemetry (``scan_summary.backoff_seconds``)
    #: and never changes probe outcomes — retries already land in
    #: fresh rate-limiter windows because the attempt number keys the
    #: fault PRFs.
    retry_backoff: float = 0.0

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive: {self.batch_size}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1: {self.workers}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0: {self.retries}")
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0: {self.retry_backoff}"
            )


@dataclass
class _PreparedScan:
    """Output of ``Scanner._prepare_scan``: the inputs one scan runs on.

    ``completed`` is set (and everything else meaningless) when a
    resume state already recorded ``scan_complete``.
    """

    cols: "tuple[np.ndarray, np.ndarray] | None" = None
    n: int = 0
    perm: CyclicPermutation | None = None
    loss_key: int = 0
    completed: ScanResult | None = None


class Scanner:
    """A probe engine bound to one ground truth."""

    def __init__(
        self,
        truth: GroundTruth,
        *,
        blacklist: Blacklist | None = None,
        loss_rate: float = 0.0,
        rng_seed: int | None = 0,
        config: ScanConfig | None = None,
        telemetry: Telemetry | None = None,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1): {loss_rate}")
        self.truth = truth
        self.blacklist = blacklist or Blacklist()
        self.loss_rate = loss_rate
        self.config = config or ScanConfig()
        # Telemetry is strictly passive: it never draws from an RNG or
        # reorders probes, so hits and stats are identical with it on
        # or off (tests/test_telemetry.py enforces this).
        self.telemetry = ensure(telemetry)
        self._rng = random.Random(rng_seed)
        self._rng_seed = rng_seed
        # Independent deterministic streams so single-probe callers
        # (probe / probe_retry) and bulk scans never perturb each other:
        # scan order/loss keys come from _order_rng, the batched-prober
        # loss PRF from _probe_key.  A scanner rebuilt from the same
        # rng_seed derives the same keys, so it reproduces another's
        # dealiasing verdicts (the census parity check relies on it).
        if rng_seed is None:
            self._order_rng = random.Random()
            self._probe_key = random.Random().getrandbits(64)
        else:
            self._order_rng = random.Random(int(rng_seed) ^ _ORDER_SALT)
            self._probe_key = mix64(int(rng_seed) ^ _PROBE_SALT)
        self.total_probes = 0

    def skip_scan_keys(self, scans: int = 1) -> None:
        """Advance the scan-key stream past ``scans`` completed scans.

        Every scan draws one (perm, loss) key pair from ``_order_rng``
        in sequence.  A process resuming a multi-scan campaign replays
        completed scans from their checkpoints instead of re-running
        them, so it must burn their key pairs to keep later scans on
        the same keys an uninterrupted run would draw.
        """
        if scans < 0:
            raise ValueError(f"scans must be >= 0: {scans}")
        for _ in range(scans):
            self._order_rng.getrandbits(64)
            self._order_rng.getrandbits(64)

    # -- single probe -------------------------------------------------------
    def probe(self, addr: int, port: int = DEFAULT_PORT) -> bool:
        """Send one probe; returns True on a SYN-ACK.

        Blacklisted addresses are never probed (and count as no
        response).  Probe loss applies before the ground-truth check.
        """
        if self.blacklist.contains(addr):
            return False
        self.total_probes += 1
        if self.loss_rate and self._rng.random() < self.loss_rate:
            return False
        return self.truth.is_responsive(int(addr), port)

    def probe_retry(
        self,
        addr: int,
        port: int = DEFAULT_PORT,
        attempts: int = 3,
        *,
        stats: ScanStats | None = None,
    ) -> bool:
        """Probe with retries (used by the dealiasing prober).

        Blacklisted targets short-circuit before the retry loop — the
        blacklist verdict cannot change between attempts — and are
        counted once in ``stats`` when given.
        """
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1: {attempts}")
        if self.blacklist.contains(addr):
            if stats is not None:
                stats.blacklisted += 1
            return False
        return any(self.probe(addr, port) for _ in range(attempts))

    def probe_many(
        self,
        addrs: Sequence[int],
        port: int = DEFAULT_PORT,
        *,
        attempts: int = 1,
        stats: ScanStats | None = None,
    ) -> list[bool]:
        """Batched probe-with-retries; one flag per address, in order.

        The blacklist is consulted once per address (not once per
        attempt), losses use the order-independent PRF keyed on
        ``(rng_seed, address, attempt)``, and ground-truth lookups are
        batched.  Addresses that respond stop retrying; the rest get up
        to ``attempts`` rounds.

        ``stats.probes_sent`` counts every attempt (the dealiasing
        prober has always budgeted per-attempt); attempts after the
        first are *additionally* tallied in ``stats.retransmits``.
        """
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1: {attempts}")
        addrs = [int(a) for a in addrs]
        if len(addrs) >= _ARRAY_PROBE_MIN and ScanPlane.supports(
            self.truth, self.blacklist
        ):
            return self.probe_columns(
                *pack(addrs), port, attempts=attempts, stats=stats
            ).tolist()
        return self._probe_many_scalar(addrs, port, attempts, stats)

    def _probe_many_scalar(
        self,
        addrs: list[int],
        port: int,
        attempts: int,
        stats: ScanStats | None,
    ) -> list[bool]:
        """Per-address :meth:`probe_many` for types the plane rejects."""
        results = [False] * len(addrs)
        if self.blacklist:
            flags = self.blacklist.contains_many(addrs)
            pending = [i for i, flagged in enumerate(flags) if not flagged]
            if stats is not None:
                stats.blacklisted += len(addrs) - len(pending)
        else:
            pending = list(range(len(addrs)))
        loss = self.loss_rate
        for attempt in range(attempts):
            if not pending:
                break
            batch = [addrs[i] for i in pending]
            self.total_probes += len(batch)
            if stats is not None:
                stats.probes_sent += len(batch)
                if attempt > 0:
                    stats.retransmits += len(batch)
            if loss:
                attempt_key = mix64(self._probe_key + attempt)
                kept = []
                for i, a in zip(pending, batch):
                    if _loss_prf(attempt_key, a) < loss:
                        if stats is not None:
                            stats.dropped += 1
                    else:
                        kept.append(i)
            else:
                kept = pending
            if kept:
                flags = self.truth.responsive_many(
                    [addrs[i] for i in kept], port, attempt=attempt
                )
                for i, responded in zip(kept, flags):
                    if responded:
                        results[i] = True
                        if stats is not None:
                            stats.responses += 1
            pending = [i for i in pending if not results[i]]
        return results

    def probe_columns(
        self,
        hi: np.ndarray,
        lo: np.ndarray,
        port: int = DEFAULT_PORT,
        *,
        attempts: int = 1,
        stats: ScanStats | None = None,
    ) -> np.ndarray:
        """:meth:`probe_many` over packed ``(hi, lo)`` columns.

        Returns one bool per row, with verdicts, probe counts and
        ``stats`` identical to :meth:`probe_many` on the unpacked
        addresses.  Truth or blacklist types the plane cannot snapshot
        (:meth:`ScanPlane.supports`) take the per-address path.
        """
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1: {attempts}")
        if not ScanPlane.supports(self.truth, self.blacklist):
            return np.array(
                self._probe_many_scalar(unpack(hi, lo), port, attempts, stats),
                dtype=bool,
            )
        results = np.zeros(len(hi), dtype=bool)
        if self.blacklist:
            blocked = self.blacklist.contains_arr(hi, lo)
            pending = np.flatnonzero(~blocked)
            if stats is not None:
                stats.blacklisted += len(hi) - len(pending)
        else:
            pending = np.arange(len(hi))
        loss = self.loss_rate
        for attempt in range(attempts):
            if not len(pending):
                break
            self.total_probes += len(pending)
            if stats is not None:
                stats.probes_sent += len(pending)
                if attempt > 0:
                    stats.retransmits += len(pending)
            if loss:
                attempt_key = mix64(self._probe_key + attempt)
                lost = (
                    loss_prf_arr(attempt_key, hi[pending], lo[pending]) < loss
                )
                if stats is not None:
                    stats.dropped += int(lost.sum())
                kept = pending[~lost]
            else:
                kept = pending
            if len(kept):
                flags = self.truth.responsive_many_arr(
                    hi[kept], lo[kept], port, attempt=attempt
                )
                responded = kept[flags]
                results[responded] = True
                if stats is not None:
                    stats.responses += len(responded)
            pending = pending[~results[pending]]
        return results

    # -- bulk scan ------------------------------------------------------------
    def _uses_plane(self) -> bool:
        """Does this scanner's batched path apply (config and types)?"""
        return self.config.use_batched and ScanPlane.supports(
            self.truth, self.blacklist
        )

    def _prepare_scan(
        self,
        targets: Iterable[int],
        port: int,
        *,
        shuffle: bool,
        checkpoint: "ScanCheckpointer | None",
        resume: "ResumeState | None",
    ) -> "_PreparedScan":
        """Everything before the first probe, shared by scan paths.

        Normalises the target source to columns, draws the scan keys,
        verifies and applies a resume state, and writes the
        ``scan_begin`` record.  Returns the prepared inputs — or, for a
        resume state that already recorded completion, the finished
        result (``completed`` set, nothing else valid).
        """
        config = self.config
        cols = _normalize_targets(targets)
        if not shuffle:
            # Fused-key argsort == numeric ascending order.
            order = np.argsort(fuse(*cols))
            cols = (cols[0][order], cols[1][order])
        n = len(cols[0])
        # Both paths draw the same keys in the same order so reference
        # and batched scans consume _order_rng identically — and a
        # resumed scan still draws them (then discards them in favour
        # of the recorded keys) so later scans on this Scanner see an
        # unshifted key stream.
        perm_key = self._order_rng.getrandbits(64)
        loss_key = self._order_rng.getrandbits(64)
        digest = None
        if checkpoint is not None or resume is not None:
            from .checkpoint import target_digest

            digest = target_digest(*cols)
        if resume is not None:
            if (
                resume.digest != digest
                or resume.target_count != n
                or resume.port != port
                or resume.retries != config.retries
            ):
                raise ValueError(
                    "checkpoint does not match this scan "
                    f"(targets={n}/{resume.target_count}, "
                    f"port={port}/{resume.port}, "
                    f"retries={config.retries}/{resume.retries}, "
                    "digest "
                    + ("ok)" if resume.digest == digest else "MISMATCH)")
                )
            perm_key, loss_key = resume.perm_key, resume.loss_key
            if resume.complete:
                # The recorded run already finished — hand back its
                # result without re-probing (or re-counting probes).
                if self.telemetry.enabled:
                    self.telemetry.count("scan.resumed_complete")
                return _PreparedScan(
                    completed=ScanResult(
                        port=port,
                        hits=set(resume.hits),
                        stats=resume.stats.copy(),
                    )
                )
        perm = (
            CyclicPermutation(n, perm_key)
            if shuffle and n > 1
            else None
        )
        if checkpoint is not None:
            checkpoint.begin(
                perm_key=perm_key,
                loss_key=loss_key,
                targets=n,
                digest=digest,
                port=port,
                retries=config.retries,
            )
            if resume is not None:
                # Make the file self-contained from this scan_begin on,
                # so a resumed run can itself be resumed.
                checkpoint.baseline(
                    round_=resume.round,
                    next_batch=resume.next_batch,
                    stats=resume.stats,
                    hits=resume.hits,
                )
        return _PreparedScan(cols=cols, n=n, perm=perm, loss_key=loss_key)

    def scan(
        self,
        targets: Iterable[int],
        port: int = DEFAULT_PORT,
        *,
        shuffle: bool = True,
        checkpoint: "ScanCheckpointer | None" = None,
        resume: "ResumeState | None" = None,
        crash: "WorkerCrash | None" = None,
    ) -> ScanResult:
        """Probe each distinct target; collect responsive addresses.

        Targets may be packed ``(hi, lo)`` columns, a stream of column
        chunks, or any iterable of addresses (a generator streams
        straight in); they are deduplicated preserving first-seen
        order, which keeps probe order — and therefore loss outcomes —
        deterministic for a fixed ``rng_seed``.

        ``checkpoint`` streams progress through a
        :class:`~repro.scanner.checkpoint.ScanCheckpointer`;
        ``resume`` replays a loaded
        :class:`~repro.scanner.checkpoint.ResumeState` (the caller must
        supply the same target stream, port, and retry budget — this is
        verified against the recorded digest).  ``crash`` arms a
        :class:`~repro.faults.WorkerCrash` fault, the deterministic
        kill switch the resume-parity tests use.  All three require the
        batched path, so they raise ``ValueError`` under
        ``use_batched=False`` or a truth/blacklist type the scan plane
        cannot snapshot (which otherwise scans through the reference
        path).
        """
        config = self.config
        batched = self._uses_plane()
        if not batched and (
            checkpoint is not None or resume is not None or crash is not None
        ):
            raise ValueError(
                "checkpoint/resume/crash-injection require the batched "
                "scan path (use_batched=True and a truth/blacklist type "
                "ScanPlane.supports)"
            )
        prep = self._prepare_scan(
            targets, port, shuffle=shuffle, checkpoint=checkpoint,
            resume=resume,
        )
        if prep.completed is not None:
            return prep.completed
        tele = self.telemetry
        with tele.span(
            "scan", port=port, targets=prep.n, workers=config.workers
        ):
            start = time.perf_counter()
            if batched:
                result = self._scan_batched(
                    prep.cols, prep.perm, prep.loss_key, port, config,
                    checkpoint=checkpoint, resume=resume, crash=crash,
                )
            else:
                result = self._scan_reference(
                    prep.cols, prep.perm, prep.loss_key, port, config
                )
            elapsed = time.perf_counter() - start
        self.total_probes += result.stats.probes_sent + result.stats.retransmits
        self._emit_scan_summary(result, prep.n, elapsed, port, config)
        return result

    def start_execution(
        self,
        targets: Iterable[int],
        port: int = DEFAULT_PORT,
        *,
        shuffle: bool = True,
        checkpoint: "ScanCheckpointer | None" = None,
        resume: "ResumeState | None" = None,
        crash: "WorkerCrash | None" = None,
    ):
        """Begin a scan as a stepwise :class:`~repro.scanner.execution.
        ScanExecution` instead of running it to completion.

        The returned execution performs the identical batch sequence an
        in-process :meth:`scan` would (same keys, same verdicts, same
        checkpoints), one batch per :meth:`~repro.scanner.execution.
        ScanExecution.step` — the primitive the multi-tenant campaign
        scheduler interleaves.  Requires the batched path (and a
        truth/blacklist type the scan plane supports); executions
        always run in-process (worker pools belong to :meth:`scan`).
        """
        from .execution import ScanExecution

        config = self.config
        if not self._uses_plane():
            raise ValueError(
                "stepwise execution requires the batched scan path "
                "(use_batched=True and a truth/blacklist type "
                "ScanPlane.supports)"
            )
        prep = self._prepare_scan(
            targets, port, shuffle=shuffle, checkpoint=checkpoint,
            resume=resume,
        )
        if prep.completed is not None:
            return ScanExecution(
                self, cols=None, perm=None, loss_key=0,
                port=port, config=config, completed=prep.completed,
            )
        return ScanExecution(
            self,
            cols=prep.cols,
            perm=prep.perm,
            loss_key=prep.loss_key,
            port=port,
            config=config,
            checkpoint=checkpoint,
            resume=resume,
            crash=crash,
            finalize=True,
        )

    def _emit_scan_summary(
        self,
        result: ScanResult,
        n: int,
        elapsed: float,
        port: int,
        config: ScanConfig,
    ) -> None:
        """Post-scan telemetry, shared by monolithic and stepwise paths."""
        tele = self.telemetry
        if not tele.enabled:
            return
        tele.count("scan.runs")
        tele.count("scan.targets", n)
        tele.count("scan.hits", len(result.hits))
        # One conversion from the final (parity-gated) stats for
        # every execution path, so counter totals are identical for
        # any batch size or worker count.
        tele.merge_snapshot(scan_stats_snapshot(result.stats))
        if elapsed > 0:
            tele.gauge(
                "scan.probes_per_sec", result.stats.probes_sent / elapsed
            )
        if _resource is not None:
            # Gauges merge by max, so across runs this reports the
            # campaign's peak resident set (KiB on Linux) — the
            # memory axis of `repro report --against` comparisons.
            tele.gauge(
                "scan.peak_rss_kib",
                float(
                    _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
                ),
            )
        tele.event(
            "scan_summary",
            {
                "port": port,
                "targets": n,
                "hits": len(result.hits),
                "probes_sent": result.stats.probes_sent,
                "blacklisted": result.stats.blacklisted,
                "dropped": result.stats.dropped,
                "retransmits": result.stats.retransmits,
                "retries": config.retries,
                "backoff_seconds": round(
                    config.retry_backoff * config.retries, 6
                ),
                "hit_rate": round(result.stats.hit_rate, 6),
                "workers": config.workers,
                "seconds": round(elapsed, 6),
            },
        )

    def _scan_reference(
        self,
        cols: "tuple[np.ndarray, np.ndarray]",
        perm: CyclicPermutation | None,
        loss_key: int,
        port: int,
        config: ScanConfig | None = None,
    ) -> ScanResult:
        """Per-address loop: the readable spec the batched path must match."""
        config = config or self.config
        ordered = unpack(*cols)
        stats = ScanStats()
        hits: set[int] = set()
        loss = self.loss_rate
        for index in range(len(ordered)):
            addr = ordered[perm(index)] if perm is not None else ordered[index]
            if self.blacklist.contains(addr):
                stats.blacklisted += 1
                continue
            stats.probes_sent += 1
            if loss and _loss_prf(loss_key, addr) < loss:
                stats.dropped += 1
                continue
            if self.truth.is_responsive(addr, port):
                stats.responses += 1
                hits.add(addr)
        # Retry rounds: re-walk the permuted order, skipping responders
        # and blacklisted targets.  Blacklist verdicts are not
        # re-counted (the verdict cannot change between rounds).
        for round_ in range(1, config.retries + 1):
            key = _round_key(loss_key, round_)
            pending_seen = False
            for index in range(len(ordered)):
                addr = (
                    ordered[perm(index)] if perm is not None else ordered[index]
                )
                if addr in hits or self.blacklist.contains(addr):
                    continue
                pending_seen = True
                stats.retransmits += 1
                if loss and _loss_prf(key, addr) < loss:
                    stats.dropped += 1
                    continue
                if self.truth.is_responsive(addr, port, attempt=round_):
                    stats.responses += 1
                    hits.add(addr)
            if not pending_seen:
                break
        return ScanResult(port=port, hits=hits, stats=stats)

    def _scan_batched(
        self,
        cols: "tuple[np.ndarray, np.ndarray]",
        perm: CyclicPermutation | None,
        loss_key: int,
        port: int,
        config: ScanConfig,
        *,
        checkpoint: "ScanCheckpointer | None" = None,
        resume: "ResumeState | None" = None,
        crash: "WorkerCrash | None" = None,
    ) -> ScanResult:
        # The batch loop lives in ScanExecution (one batch per step);
        # this method only decides whether round 0 runs through the
        # shared-memory worker pool first.
        from .execution import ScanExecution

        execution = ScanExecution(
            self, cols=cols, perm=perm, loss_key=loss_key,
            port=port, config=config, checkpoint=checkpoint, resume=resume,
            crash=crash,
        )
        if (
            execution.start_round == 0
            and config.workers > 1
            and execution.n > config.batch_size
        ):
            self._scan_pool_shared(
                execution.plane, perm, loss_key, config,
                execution.stats, execution.hits,
                checkpoint=checkpoint,
                start_batch=execution.start_batch, crash=crash,
            )
            execution.skip_round0()
        return execution.run()

    def _scan_pool_shared(
        self,
        plane: ScanPlane,
        perm: CyclicPermutation | None,
        loss_key: int,
        config: ScanConfig,
        stats: ScanStats,
        hits: set[int],
        *,
        checkpoint: "ScanCheckpointer | None" = None,
        start_batch: int = 0,
        crash: "WorkerCrash | None" = None,
    ) -> None:
        """Shard the array plane across a pool via one shm segment.

        The target columns and every frozen lookup table travel once,
        through a :class:`~repro.scanner.shm.SharedArrays` segment;
        each task is just ``(batch_index, start, stop)`` — O(1) bytes
        per shard regardless of target count.  Workers rebuild the
        cyclic permutation from its (picklable, O(1)) spec and read
        their shard's columns straight from the segment.  The parent
        is the only process that unlinks the segment, always — a pool
        worker crash propagates out of the executor context and the
        ``finally`` still reclaims ``/dev/shm``.
        """
        from concurrent.futures import ProcessPoolExecutor

        from .shm import SharedArrays

        tele = self.telemetry
        arrays, meta = plane.shared_payload()
        meta["loss_key"] = loss_key
        window = config.workers * 4
        shared = SharedArrays.create(arrays)
        try:
            with ProcessPoolExecutor(
                max_workers=config.workers,
                initializer=_plane_pool_init,
                initargs=(shared.spec, meta, perm, crash),
            ) as pool:
                futures: deque = deque()

                def merge_one() -> None:
                    index, chunk_hits, chunk_stats = futures.popleft().result()
                    hits.update(chunk_hits)
                    stats.merge(chunk_stats)
                    tele.count("scan.worker_merges")
                    if checkpoint is not None:
                        checkpoint.note_batch(chunk_hits)
                        checkpoint.checkpoint(0, index + 1, stats)

                n = len(plane.hi)
                batch_size = config.batch_size
                for start in range(start_batch * batch_size, n, batch_size):
                    index = start // batch_size
                    futures.append(
                        pool.submit(
                            _plane_scan_chunk,
                            index, start, min(start + batch_size, n),
                        )
                    )
                    tele.count("scan.batches")
                    if len(futures) >= window:
                        merge_one()
                while futures:
                    merge_one()
        finally:
            shared.close()


def scan_stats_snapshot(stats: ScanStats) -> MetricsSnapshot:
    """Express :class:`ScanStats` as a mergeable metrics snapshot.

    Both types share the merge contract (order-independent sums), so a
    per-shard ``ScanStats`` and its snapshot form stay interchangeable:
    merging snapshots of shard stats equals the snapshot of merged
    shard stats.
    """
    return MetricsSnapshot(
        counters={
            "scan.probes_sent": stats.probes_sent,
            "scan.responses": stats.responses,
            "scan.blacklisted": stats.blacklisted,
            "scan.dropped": stats.dropped,
            "scan.retransmits": stats.retransmits,
        }
    )


#: Per-process state for scan-pool workers (set by the initializer).
_POOL_STATE: dict = {}


def _plane_pool_init(spec: dict, meta: dict, perm, crash) -> None:
    """Attach the shared scan plane in a pool worker (once per process)."""
    from .shm import SharedArrays

    shared = SharedArrays.attach(spec)
    plane = ScanPlane.from_shared(meta, shared.arrays)
    # Keep `shared` referenced so the mapping outlives this initializer.
    _POOL_STATE["plane"] = (plane, perm, meta["loss_key"], crash, shared)


def _plane_scan_chunk(
    index: int, start: int, stop: int
) -> tuple[int, list[int], ScanStats]:
    """Probe one O(1)-described shard against the attached plane."""
    plane, perm, loss_key, crash, _shared = _POOL_STATE["plane"]
    if crash is not None:
        crash.check(0, index)
    stats = ScanStats()
    hits: set[int] = set()
    responsive = plane.probe_range(perm, start, stop, loss_key, stats, hits)
    return index, responsive, stats
