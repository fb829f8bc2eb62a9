"""Stepwise scan execution: the batched scan loop, one batch per call.

:class:`ScanExecution` is the in-process batched scan path of
:meth:`Scanner.scan` written as an explicit state machine over a
frozen :class:`~repro.scanner.plane.ScanPlane`: each
:meth:`ScanExecution.step` executes exactly one probe batch (a round-0
chunk or a retry chunk, with round transitions, pending-set
computation, and checkpoint writes happening between batches).
:meth:`Scanner.scan` drives an execution to completion, so the
single-campaign path *is* this code; the campaign service
(:mod:`repro.service`) interleaves steps of many executions over one
process instead.

Interleaving is safe because every probe verdict — loss, fault, ground
truth — is a pure function of ``(key, address, attempt)``, never of
sequential RNG state: stepping execution A between two steps of
execution B cannot change what either scan observes.  That is the
property that makes a multi-tenant schedule produce per-campaign
results bit-identical to solo runs, and it is enforced by the service
parity tests.

Preemption is stopping: a paused execution simply stops being stepped;
its checkpoint file (when armed) already holds a resumable prefix, so
a cold resume goes through the ordinary PR 4 resume path and finishes
bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterator

from .plane import ScanPlane, StaleWorldError
from .probe import ScanResult, ScanStats
from .schedule import CyclicPermutation

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..faults.models import WorkerCrash
    from .checkpoint import ResumeState, ScanCheckpointer
    from .engine import ScanConfig, Scanner


class ScanExecution:
    """One scan's remaining work, executable one batch at a time.

    Built by :meth:`Scanner.start_execution` (or internally by
    :meth:`Scanner.scan`) over deduplicated target columns, for a
    truth/blacklist pair :meth:`ScanPlane.supports` accepts.  Call
    :meth:`step` until it returns False, then read :meth:`result`.
    ``stats`` and ``hits`` are live: a scheduler can read
    ``stats.probes_sent`` between steps to charge probe budgets at
    batch granularity.
    """

    def __init__(
        self,
        scanner: "Scanner",
        *,
        cols: "tuple[np.ndarray, np.ndarray] | None",
        perm: CyclicPermutation | None,
        loss_key: int,
        port: int,
        config: "ScanConfig",
        checkpoint: "ScanCheckpointer | None" = None,
        resume: "ResumeState | None" = None,
        crash: "WorkerCrash | None" = None,
        completed: ScanResult | None = None,
        finalize: bool = False,
    ):
        self.scanner = scanner
        self.port = port
        self.config = config
        self.perm = perm
        self.loss_key = loss_key
        self.checkpoint = checkpoint
        self.crash = crash
        self.batches_done = 0
        self._finalize = finalize
        self._started_at: float | None = None
        if completed is not None:
            # A resume state that already recorded scan_complete: there
            # is no work; the execution is born finished.
            self.stats = completed.stats
            self.hits = completed.hits
            self.n = completed.stats.probes_sent + completed.stats.blacklisted
            self.start_round = self.start_batch = 0
            self.plane = None
            self._result: ScanResult | None = completed
            self._gen: Iterator[None] = iter(())
            return
        if resume is not None:
            self.stats = resume.stats.copy()
            self.hits = set(resume.hits)
            self.start_round, self.start_batch = resume.round, resume.next_batch
        else:
            self.stats = ScanStats()
            self.hits = set()
            self.start_round, self.start_batch = 0, 0
        # The plane is a frozen snapshot of targets + lookup tables;
        # every batch below runs as vectorised column passes with
        # verdicts identical to the reference scan (the parity tests
        # and CI gate enforce this).
        self.plane = ScanPlane.build(
            scanner.truth, scanner.blacklist, cols, port, scanner.loss_rate
        )
        self.n = len(cols[0])
        # Version token of the world this execution was planned against.
        # A stepped execution spans wall-clock time; if the truth
        # mutates in between (churn advancing an epoch), both the frozen
        # plane and the already-computed pending sets describe a world
        # that no longer exists, so step() refuses to continue.
        self.world_version = getattr(scanner.truth, "world_version", None)
        self._result = None
        self._gen = self._work()

    @property
    def finished(self) -> bool:
        return self._result is not None

    def step(self) -> bool:
        """Execute one probe batch; False once the scan has finished.

        The final call (the one that returns False) performs the
        terminal bookkeeping: the ``scan_complete`` checkpoint record
        and — for standalone executions — the scanner's summary
        telemetry.  A preempted execution that is never stepped again
        therefore leaves exactly the on-disk state an interrupted run
        would.
        """
        if self._result is not None:
            return False
        self._check_fresh()
        if self._started_at is None:
            self._started_at = time.perf_counter()
        try:
            next(self._gen)
        except StopIteration:
            self._complete()
            return False
        self.batches_done += 1
        return True

    def _check_fresh(self) -> None:
        """Refuse to step against a world that mutated since planning."""
        if self.world_version is None:
            return
        current = getattr(self.scanner.truth, "world_version", None)
        if current is not None and current != self.world_version:
            raise StaleWorldError(
                "scan execution was planned at world version "
                f"{self.world_version} but the truth is now at "
                f"{current}; the world mutated mid-scan (e.g. "
                "DynamicWorld.advance_to) — finish or abort campaigns "
                "before advancing, then plan a fresh scan"
            )

    def run(self) -> ScanResult:
        """Drive the execution to completion and return its result."""
        while self.step():
            pass
        return self.result()

    def result(self) -> ScanResult:
        if self._result is None:
            raise RuntimeError("scan execution has not finished")
        return self._result

    def _complete(self) -> None:
        if self.checkpoint is not None:
            self.checkpoint.complete(stats=self.stats)
        self._result = ScanResult(
            port=self.port, hits=self.hits, stats=self.stats
        )
        if self._finalize:
            elapsed = (
                time.perf_counter() - self._started_at
                if self._started_at is not None
                else 0.0
            )
            self.scanner.total_probes += (
                self.stats.probes_sent + self.stats.retransmits
            )
            self.scanner._emit_scan_summary(
                self._result, self.n, elapsed, self.port, self.config
            )

    def _work(self) -> Iterator[None]:
        """Yield once per executed batch.

        A monolithic :meth:`Scanner.scan` runs this same generator to
        exhaustion, so a stepped execution is bit-identical to it by
        construction.
        """
        from .engine import _round_key

        scanner, config = self.scanner, self.config
        plane, perm, loss_key = self.plane, self.perm, self.loss_key
        stats, hits, checkpoint, crash = (
            self.stats, self.hits, self.checkpoint, self.crash,
        )
        tele = scanner.telemetry
        batch_size = config.batch_size
        n = self.n
        start_round = self.start_round
        if start_round == 0:
            for start in range(self.start_batch * batch_size, n, batch_size):
                index = start // batch_size
                if crash is not None:
                    crash.check(0, index)
                new_hits = plane.probe_range(
                    perm, start, min(start + batch_size, n),
                    loss_key, stats, hits,
                )
                tele.count("scan.batches")
                if checkpoint is not None:
                    checkpoint.note_batch(new_hits)
                    checkpoint.checkpoint(0, index + 1, stats)
                yield
            start_round = 1
        # Checkpoints for retry rounds land only on round boundaries —
        # the pending set is derived from the hits at round start, so a
        # boundary checkpoint is exactly recomputable on resume.
        for round_ in range(start_round, config.retries + 1):
            pending_hi, pending_lo = plane.pending_columns(
                perm, batch_size, hits
            )
            pending_count = len(pending_hi)
            if not pending_count:
                break
            key = _round_key(loss_key, round_)
            if tele.enabled:
                tele.count("scan.retry_rounds")
            for index, start in enumerate(range(0, pending_count, batch_size)):
                if crash is not None:
                    crash.check(round_, index)
                new_hits = plane.retry_chunk(
                    pending_hi[start : start + batch_size],
                    pending_lo[start : start + batch_size],
                    key, round_, stats, hits,
                )
                tele.count("scan.batches")
                if checkpoint is not None:
                    checkpoint.note_batch(new_hits)
                yield
            if checkpoint is not None and round_ < config.retries:
                checkpoint.checkpoint(round_ + 1, 0, stats, force=True)
