"""Crash-safe scan checkpointing and resume.

A checkpoint file is a :class:`~repro.telemetry.sinks.JsonlSink` event
stream — append-only, one JSON object per line, flushed per event — so
a run killed at any instant leaves a readable prefix (at most one
truncated trailing line, which :func:`~repro.telemetry.sinks.
read_jsonl` discards).  Three event kinds matter here:

``scan_begin``
    The scan's identity: file ``format``, permutation and loss keys,
    target count and order digest, port, retry budget.  Everything
    needed to verify a later resume targets *the same* scan.
``scan_checkpoint``
    Progress: ``round`` (0 = first pass, r ≥ 1 = retry round r),
    ``next_batch`` (first batch index not yet merged), cumulative
    ``stats``, and ``hits_new`` — the hits found since the previous
    checkpoint line (hits are deltas so the file grows linearly, not
    quadratically).
``scan_complete``
    Terminal marker with final stats and the last hit delta.

**Resume bit-identity.**  Probe order is the recorded cyclic
permutation of the deduplicated target list, and every loss/fault
verdict is a pure function of ``(key, addr, attempt)`` — nothing
depends on wall-clock or on how many times the process restarted.  A
resumed scan therefore replays batches ``>= next_batch`` and lands on
exactly the hits and :class:`~repro.scanner.probe.ScanStats` of an
uninterrupted run, provided the caller passes the same target stream,
port, and config (enforced via the digest check).  Files of any other
``format`` are refused: their digest is defined differently, so
checking it would report a misleading mismatch.  Round-0 progress is
checkpointed at batch granularity; retry rounds only at round
boundaries, because a retry round's pending set is derived from the
hits at the *start* of the round — a boundary checkpoint keeps that
derivation exact on resume.

Other events (e.g. the per-prefix ``prefix_generated`` progress lines
``run_full_scan`` interleaves) pass through unharmed: the loader skips
anything it does not recognise.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from ..telemetry.sinks import Sink, read_jsonl
from .probe import ScanStats

#: ``scan_begin`` format this module writes and reads.  Format 2 digests
#: the target columns (:func:`target_digest`); files without the field
#: are format 1, whose digest folded boxed ints and is not comparable.
CHECKPOINT_FORMAT = 2


def target_digest(hi: np.ndarray, lo: np.ndarray) -> int:
    """Order-dependent 64-bit digest of the deduplicated target columns.

    BLAKE2b over the target count and the little-endian bytes of both
    columns.  Order-dependent on purpose: resume requires the
    *sequence* to match, since probe order is a permutation of column
    indices.
    """
    h = hashlib.blake2b(len(hi).to_bytes(8, "little"), digest_size=8)
    h.update(np.ascontiguousarray(hi, dtype="<u8"))
    h.update(np.ascontiguousarray(lo, dtype="<u8"))
    return int.from_bytes(h.digest(), "little")


@dataclass
class ResumeState:
    """A checkpoint file folded into one resumable position."""

    perm_key: int
    loss_key: int
    target_count: int
    digest: int
    port: int
    retries: int
    round: int = 0
    next_batch: int = 0
    hits: set[int] = field(default_factory=set)
    stats: ScanStats = field(default_factory=ScanStats)
    complete: bool = False


def load_scan_checkpoint(path: str | os.PathLike) -> ResumeState | None:
    """Fold a checkpoint file into the latest resumable state.

    Returns ``None`` when the file holds no ``scan_begin`` yet (the
    run died before the scan phase — resume just starts fresh).  A
    later ``scan_begin`` resets the state: a resumed run re-emits its
    identity plus a full-state baseline checkpoint, so only the newest
    scan's lines count.  A ``scan_begin`` of any format other than
    :data:`CHECKPOINT_FORMAT` raises ``ValueError``: its scan must be
    restarted.
    """
    state: ResumeState | None = None
    for event in read_jsonl(path):
        kind = event.get("event")
        if kind == "scan_begin":
            found = event.get("format", 1)
            if found != CHECKPOINT_FORMAT:
                raise ValueError(
                    f"scan checkpoint {path} is format {found}; this "
                    f"version reads only format {CHECKPOINT_FORMAT} "
                    "(the target digest changed) — restart the scan"
                )
            state = ResumeState(
                perm_key=int(event["perm_key"]),
                loss_key=int(event["loss_key"]),
                target_count=int(event["targets"]),
                digest=int(event["digest"]),
                port=int(event["port"]),
                retries=int(event.get("retries", 0)),
            )
        elif state is None:
            continue
        elif kind == "scan_checkpoint":
            state.round = int(event["round"])
            state.next_batch = int(event["next_batch"])
            state.stats = ScanStats.from_dict(event["stats"])
            state.hits.update(int(h) for h in event["hits_new"])
        elif kind == "scan_complete":
            state.stats = ScanStats.from_dict(event["stats"])
            state.hits.update(int(h) for h in event["hits_new"])
            state.complete = True
    return state


class ScanCheckpointer:
    """Writes scan progress through a crash-safe sink.

    ``every_batches`` throttles round-0 checkpoint lines: hit deltas
    accumulate across batches and a line is written every N merged
    batches (and always at round boundaries and completion).  The
    checkpointer only observes the scan — it never draws randomness or
    reorders work — so enabling it cannot change hits or stats.
    """

    def __init__(self, sink: Sink, *, every_batches: int = 16):
        if every_batches < 1:
            raise ValueError(f"every_batches must be >= 1: {every_batches}")
        self.sink = sink
        self.every_batches = every_batches
        self._new_hits: list[int] = []
        self._pending_batches = 0

    def begin(
        self,
        *,
        perm_key: int,
        loss_key: int,
        targets: int,
        digest: int,
        port: int,
        retries: int,
    ) -> None:
        self._new_hits = []
        self._pending_batches = 0
        self.sink.emit(
            {
                "event": "scan_begin",
                "format": CHECKPOINT_FORMAT,
                "perm_key": perm_key,
                "loss_key": loss_key,
                "targets": targets,
                "digest": digest,
                "port": port,
                "retries": retries,
            }
        )

    def baseline(
        self, *, round_: int, next_batch: int, stats: ScanStats, hits: set[int]
    ) -> None:
        """Re-emit full restored state right after a resume's ``begin``.

        This makes the file self-contained from the latest
        ``scan_begin`` onward, so resuming a resumed run still works.
        """
        self._new_hits = sorted(hits)
        self._write(round_, next_batch, stats)

    def note_batch(self, new_hits: list[int]) -> None:
        """Record one merged batch's fresh hits (buffered until write)."""
        self._new_hits.extend(new_hits)
        self._pending_batches += 1

    def checkpoint(
        self, round_: int, next_batch: int, stats: ScanStats, *, force: bool = False
    ) -> None:
        """Write a progress line if the batch throttle allows (or forced)."""
        if force or self._pending_batches >= self.every_batches:
            self._write(round_, next_batch, stats)

    def complete(self, *, stats: ScanStats) -> None:
        self.sink.emit(
            {
                "event": "scan_complete",
                "stats": stats.as_dict(),
                "hits_new": sorted(self._new_hits),
            }
        )
        self._new_hits = []
        self._pending_batches = 0

    def _write(self, round_: int, next_batch: int, stats: ScanStats) -> None:
        self.sink.emit(
            {
                "event": "scan_checkpoint",
                "round": round_,
                "next_batch": next_batch,
                "stats": stats.as_dict(),
                "hits_new": sorted(self._new_hits),
            }
        )
        self._new_hits = []
        self._pending_batches = 0
