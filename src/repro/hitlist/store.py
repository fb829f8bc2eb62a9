"""The living hitlist: a persistent, decaying record of responsive addresses.

The paper's hitlists are static snapshots; against a churning Internet
(privacy rotation, DHCP cycling, hosts joining and leaving — see
:mod:`repro.simnet.dynamics`) a snapshot goes stale within a few
epochs.  :class:`LivingHitlist` keeps per-address observation state —
when each address last answered, when it was last probed, and an
exponentially decaying responsiveness score — so a delta campaign
(:mod:`repro.hitlist.delta`) can re-probe only the addresses whose
belief has decayed and spend the rest of its budget exploring.

Layout is column-native, matching the scan plane: parallel numpy
arrays (``hi``/``lo`` uint64 address halves, int64 epochs, float64
scores) kept sorted by the order-preserving ``S16`` fused key from
:func:`repro.ipv6.addrplane.fuse`, so batch updates and membership
tests are ``searchsorted`` passes, never Python loops over boxed
128-bit ints.

Scoring: an address probed at epoch ``e`` updates as
``score <- score * decay**(e - last_probed) + (1 if hit else 0)``.
The stored score is therefore always "as of ``last_probed``"; queries
decay it forward to the asked-about epoch.  With the default
``decay=0.6``, one fresh hit scores 1.0, stays *believed live*
(``>= live_threshold``) for several epochs, and falls *due for
re-probe* (``< reprobe_threshold``) after about two — which is where a
delta campaign's probe savings come from.

Persistence is one binary, append-only log at ``path`` (format 2):

* a magic line, then a little-endian ``uint32`` length and a JSON
  header ``{"format": "repro-hitlist", "version": 2, "log_id": ...}``;
* one record per :meth:`LivingHitlist.observe`: a fixed 20-byte header
  (``int64`` epoch, ``uint64`` row count, ``uint32`` CRC32 of the
  epoch, the row count and the payload), then the payload — the rows'
  little-endian ``hi`` bytes, their ``lo`` bytes, and
  ``np.packbits`` of their hit flags.  Rows are the observation's
  sorted, distinct addresses, so replay applies them as they are.

Each record is flushed as it is written.  :meth:`LivingHitlist.snapshot`
fsyncs the log, then dumps the columns to ``<log>.snap.npz`` (temp file
+ fsync + ``os.replace``) together with the ``log_id`` and the number
of records the dump covers.  :meth:`LivingHitlist.open` loads the dump
and replays only the records after that count; since the count lives
in the dump, no crash point can make a record apply twice.  A last
record that runs past end of file or fails its CRC is a torn tail from
an interrupted write: it is dropped, and cut off before the next
append.  A CRC failure on any earlier record raises.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..ipv6.addrplane import (
    _first_occurrence,
    fuse,
    is_columns,
    pack,
    unpack,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.spans import Telemetry

#: Per-epoch multiplicative score decay.
DEFAULT_DECAY = 0.6
#: Decayed score at or above which an address is believed live.
DEFAULT_LIVE_THRESHOLD = 0.1
#: Decayed score below which a known responder is due for re-probe.
DEFAULT_REPROBE_THRESHOLD = 0.45
#: Epochs after the last response before a silent address is abandoned.
DEFAULT_MISS_FORGET_AGE = 8

_FORMAT = "repro-hitlist"
_VERSION = 2
#: First line of a format-2 log (a version-1 JSONL log starts with ``{``).
_MAGIC = b"repro-hitlist\n"
_HEADER_LEN = struct.Struct("<I")
#: Record header: epoch, row count, CRC32 (the CRC covers the first two).
_RECORD = struct.Struct("<qQI")
_FIELDS = struct.Struct("<qQ")


def _payload_size(rows: int) -> int:
    return 16 * rows + (rows + 7) // 8


def _crc(epoch: int, rows: int, payload: bytes) -> int:
    """CRC32 over a record's epoch and row-count fields and its payload."""
    return zlib.crc32(payload, zlib.crc32(_FIELDS.pack(epoch, rows)))


def _sorted_columns(source) -> tuple[np.ndarray, np.ndarray]:
    """An address source (packed columns or ints) as ascending, distinct columns."""
    hi, lo = source if is_columns(source) else pack(source)
    hi, lo, _ = _first_occurrence(hi, lo)
    return hi, lo


def _locate(table: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion positions of ``keys`` in a sorted key ``table``, and which are present."""
    pos = np.searchsorted(table, keys)
    found = np.zeros(len(keys), dtype=bool)
    inside = pos < len(table)
    found[inside] = table[pos[inside]] == keys[inside]
    return pos, found


def _insert_rows(pos: np.ndarray, columns) -> list[np.ndarray]:
    """Insert new rows into sorted columns at their ``searchsorted`` positions.

    ``pos`` (ascending) places each new row among the old ones; each
    entry of ``columns`` is an ``(old, new)`` pair for one column, where
    ``new`` may be a scalar shared by every new row.  One scatter per
    column, as in :func:`~repro.ipv6.addrplane.merge_sorted`, where
    re-sorting the concatenation would compare every key again.
    """
    at = pos + np.arange(len(pos))
    keep = np.ones(len(columns[0][0]) + len(pos), dtype=bool)
    keep[at] = False
    merged = []
    for old, new in columns:
        out = np.empty(len(keep), dtype=old.dtype)
        out[at] = new
        out[keep] = old
        merged.append(out)
    return merged


class _Log:
    """The append-only format-2 observe log behind a store's ``path``.

    ``end`` is the offset just past the last whole record; anything
    beyond it is a torn tail, cut off when the file is first opened for
    writing (the first append or fsync).
    """

    def __init__(self, path: str, log_id: str, end: int, records: int):
        self.path = path
        self.log_id = log_id
        self.end = end
        self.records = records
        self._handle = None

    @classmethod
    def create(cls, path: str) -> "_Log":
        log_id = os.urandom(8).hex()
        header = json.dumps(
            {"format": _FORMAT, "version": _VERSION, "log_id": log_id},
            sort_keys=True,
        ).encode()
        blob = _MAGIC + _HEADER_LEN.pack(len(header)) + header
        with open(path, "wb") as handle:
            handle.write(blob)
        return cls(path, log_id, len(blob), 0)

    def append(self, epoch: int, hi: np.ndarray, lo: np.ndarray, flags: np.ndarray) -> None:
        rows = len(hi)
        payload = b"".join(
            (
                hi.astype("<u8", copy=False).tobytes(),
                lo.astype("<u8", copy=False).tobytes(),
                np.packbits(flags).tobytes(),
            )
        )
        handle = self._writer()
        handle.write(_RECORD.pack(epoch, rows, _crc(epoch, rows, payload)) + payload)
        handle.flush()
        self.end += _RECORD.size + len(payload)
        self.records += 1

    def sync(self) -> None:
        """Make every record written so far durable (fsync the file)."""
        os.fsync(self._writer().fileno())

    def _writer(self):
        if self._handle is None:
            self._handle = open(self.path, "r+b")
            self._handle.truncate(self.end)
            self._handle.seek(self.end)
        return self._handle

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _snapshot_path(path: str) -> str:
    return path + ".snap.npz"


def _read_header(handle, path: str) -> tuple[str, int]:
    """Validate a log's header; return its ``log_id`` and the first record offset."""
    magic = handle.read(len(_MAGIC))
    if magic.startswith(b"{"):
        raise ValueError(
            f"hitlist log {path} is a version-1 (JSONL) log; this version "
            f"reads only binary version-{_VERSION} logs: rebuild the store"
        )
    header = None
    raw = handle.read(_HEADER_LEN.size)
    if magic == _MAGIC and len(raw) == _HEADER_LEN.size:
        try:
            header = json.loads(handle.read(_HEADER_LEN.unpack(raw)[0]))
        except ValueError:
            pass
    if (
        not isinstance(header, dict)
        or header.get("format") != _FORMAT
        or not header.get("log_id")
    ):
        raise ValueError(f"{path} is not a hitlist log, or its header is damaged")
    if header.get("version") != _VERSION:
        raise ValueError(
            f"hitlist log {path} is version {header.get('version')}; this "
            f"version reads only version {_VERSION}: rebuild the store"
        )
    return str(header["log_id"]), handle.tell()


class LivingHitlist:
    """Per-address observation state with exponential score decay.

    Build empty (optionally bound to a fresh ``path`` for persistence)
    or via :meth:`open` to reload an existing store.  Feed scan outcomes
    with :meth:`observe`; plan re-probes with :meth:`due_for_reprobe`
    and read the current belief with :meth:`believed_live`.
    """

    def __init__(
        self,
        *,
        decay: float = DEFAULT_DECAY,
        path: str | os.PathLike | None = None,
        telemetry: "Telemetry | None" = None,
    ):
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must be in (0, 1): {decay}")
        self.decay = float(decay)
        self.path = os.fspath(path) if path is not None else None
        self._keys = np.empty(0, dtype="S16")
        self._hi = np.empty(0, dtype=np.uint64)
        self._lo = np.empty(0, dtype=np.uint64)
        self._last_seen = np.empty(0, dtype=np.int64)
        self._last_probed = np.empty(0, dtype=np.int64)
        self._score = np.empty(0, dtype=np.float64)
        #: Highest epoch any observation has been recorded at.
        self.latest_epoch = -1
        #: Events appended since the last snapshot (compaction trigger).
        self.events_since_snapshot = 0
        from ..telemetry.spans import ensure

        self._tele = ensure(telemetry)
        self._log: _Log | None = None
        if self.path is not None:
            if os.path.exists(self.path) and os.path.getsize(self.path):
                raise ValueError(
                    f"hitlist log {self.path} already exists: reload it "
                    "with LivingHitlist.open()"
                )
            self._log = _Log.create(self.path)

    # -- construction --------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        *,
        decay: float = DEFAULT_DECAY,
        telemetry: "Telemetry | None" = None,
    ) -> "LivingHitlist":
        """Reload a store from its log: the snapshot, then later records.

        Missing (or empty) files yield an empty store bound to ``path``
        — opening is how a longitudinal run bootstraps its first epoch.
        Version-1 (JSONL) logs, corrupt records before the last, and
        snapshots of another log or of more records than the log holds
        raise ``ValueError``.
        """
        path = os.fspath(path)
        if not os.path.exists(path) or not os.path.getsize(path):
            return cls(decay=decay, path=path, telemetry=telemetry)
        store = cls(decay=decay, telemetry=telemetry)
        store.path = path
        with open(path, "rb") as handle:
            log_id, offset = _read_header(handle, path)
            size = os.fstat(handle.fileno()).st_size
            # Walk the record headers, seeking past their payloads; a
            # record that runs past end of file is a torn tail.
            records: list[tuple[int, int, int, int]] = []  # offset, epoch, rows, crc
            while offset + _RECORD.size <= size:
                handle.seek(offset)
                epoch, rows, crc = _RECORD.unpack(handle.read(_RECORD.size))
                end = offset + _RECORD.size + _payload_size(rows)
                if end > size:
                    break
                records.append((offset, epoch, rows, crc))
                offset = end
            covered = 0
            snap = _snapshot_path(path)
            if os.path.exists(snap):
                covered = store._load_snapshot(snap, log_id, len(records))
            for index, (start, epoch, rows, crc) in enumerate(records[covered:], covered):
                handle.seek(start + _RECORD.size)
                payload = handle.read(_payload_size(rows))
                if _crc(epoch, rows, payload) != crc:
                    if index == len(records) - 1 and offset == size:
                        offset = start  # a torn last record
                        del records[index:]
                        break
                    raise ValueError(
                        f"hitlist log {path}: record {index} of "
                        f"{len(records)} fails its CRC"
                    )
                store._replay(epoch, rows, payload)
        store._log = _Log(path, log_id, offset, len(records))
        return store

    def _load_snapshot(self, snap_path: str, log_id: str, records: int) -> int:
        """Load a dump of this log; return how many records it covers."""
        with np.load(snap_path) as data:
            found = str(data["log_id"]) if "log_id" in data.files else None
            if found != log_id:
                raise ValueError(
                    f"hitlist snapshot {snap_path} belongs to log {found}, "
                    f"not to this log ({log_id}): remove the snapshot"
                )
            covered = int(data["records"])
            if covered > records:
                raise ValueError(
                    f"hitlist snapshot {snap_path} covers {covered} records "
                    f"but the log holds only {records}"
                )
            self._hi = data["hi"].astype(np.uint64)
            self._lo = data["lo"].astype(np.uint64)
            self._last_seen = data["last_seen"].astype(np.int64)
            self._last_probed = data["last_probed"].astype(np.int64)
            self._score = data["score"].astype(np.float64)
            self.latest_epoch = int(data["latest_epoch"])
        self._keys = fuse(self._hi, self._lo)
        self.events_since_snapshot = 0
        return covered

    def _replay(self, epoch: int, rows: int, payload: bytes) -> None:
        halves = np.frombuffer(payload, dtype="<u8", count=2 * rows)
        hi = halves[:rows].astype(np.uint64)
        lo = halves[rows:].astype(np.uint64)
        flags = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8, offset=16 * rows), count=rows
        ).astype(bool)
        self._apply(epoch, fuse(hi, lo), hi, lo, flags)
        self.events_since_snapshot += 1

    # -- ingestion -----------------------------------------------------

    def observe(
        self,
        epoch: int,
        probed,
        hits: "Iterable[int] | set[int]",
    ) -> dict:
        """Record one scan's outcome: every probed address, hit or miss.

        ``probed`` is the scan's target source and ``hits`` the
        responsive addresses, each as packed columns or ints; hits
        outside ``probed`` (retries of earlier targets, say) count as
        observations too.  Addresses never seen before are admitted;
        known addresses get their score decayed to ``epoch`` and bumped
        (hit) or left to fade (miss).  Returns a small summary dict:
        distinct ``hits`` and ``misses``, and ``new`` entries.
        """
        epoch = int(epoch)
        if epoch < self.latest_epoch:
            raise ValueError(
                f"observations must be epoch-ordered: got {epoch} after "
                f"{self.latest_epoch}"
            )
        hi, lo = _sorted_columns(probed)
        hit_hi, hit_lo = _sorted_columns(hits)
        keys, hit_keys = fuse(hi, lo), fuse(hit_hi, hit_lo)
        # Search the (few) hits in the probed rows, not the other way.
        pos, found = _locate(keys, hit_keys)
        flags = np.zeros(len(keys), dtype=bool)
        flags[pos[found]] = True
        extra = ~found
        if extra.any():
            keys, hi, lo, flags = _insert_rows(
                pos[extra],
                [
                    (keys, hit_keys[extra]),
                    (hi, hit_hi[extra]),
                    (lo, hit_lo[extra]),
                    (flags, True),
                ],
            )
        before = len(self._keys)
        self._apply(epoch, keys, hi, lo, flags)
        n_hits = int(np.count_nonzero(flags))
        summary = {
            "hits": n_hits,
            "misses": len(keys) - n_hits,
            "new": len(self._keys) - before,
        }
        if self._log is not None:
            self._log.append(epoch, hi, lo, flags)
            self.events_since_snapshot += 1
        if self._tele.enabled:
            self._tele.count("hitlist.observed", len(keys))
            self._tele.gauge("hitlist.size", len(self._keys))
        return summary

    def _apply(
        self,
        epoch: int,
        keys: np.ndarray,
        hi: np.ndarray,
        lo: np.ndarray,
        flags: np.ndarray,
    ) -> None:
        """Fold sorted, distinct rows (fused keys, halves, hit flags) in."""
        if len(keys):
            pos, found = _locate(self._keys, keys)
            outcome = flags.astype(np.float64)
            # Known addresses: decay the stored score to `epoch`, add the
            # outcome, stamp the probe (and the sighting on a hit).
            idx = pos[found]
            if len(idx):
                dt = np.maximum(epoch - self._last_probed[idx], 0)
                self._score[idx] = (
                    self._score[idx] * self.decay ** dt + outcome[found]
                )
                self._last_probed[idx] = epoch
                self._last_seen[idx[flags[found]]] = epoch
            # New addresses: merged in at their insertion positions.
            fresh = ~found
            if fresh.any():
                (
                    self._keys, self._hi, self._lo,
                    self._last_seen, self._last_probed, self._score,
                ) = _insert_rows(
                    pos[fresh],
                    [
                        (self._keys, keys[fresh]),
                        (self._hi, hi[fresh]),
                        (self._lo, lo[fresh]),
                        (self._last_seen, np.where(flags[fresh], epoch, -1)),
                        (self._last_probed, epoch),
                        (self._score, outcome[fresh]),
                    ],
                )
        self.latest_epoch = max(self.latest_epoch, epoch)

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def decayed_scores(self, epoch: int) -> np.ndarray:
        """Every entry's score decayed forward to ``epoch``."""
        dt = np.maximum(int(epoch) - self._last_probed, 0)
        return self._score * self.decay ** dt

    def believed_live(
        self, epoch: int, *, threshold: float = DEFAULT_LIVE_THRESHOLD
    ) -> tuple[np.ndarray, np.ndarray]:
        """Addresses believed responsive at ``epoch`` (packed columns)."""
        mask = (self._last_seen >= 0) & (
            self.decayed_scores(epoch) >= threshold
        )
        return self._hi[mask].copy(), self._lo[mask].copy()

    def due_for_reprobe(
        self,
        epoch: int,
        *,
        threshold: float = DEFAULT_REPROBE_THRESHOLD,
        miss_forget_age: int = DEFAULT_MISS_FORGET_AGE,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Known responders whose belief has decayed below ``threshold``.

        Addresses silent for more than ``miss_forget_age`` epochs since
        their last response are abandoned (exploration can rediscover
        them); addresses probed recently enough to still score above
        ``threshold`` are skipped — the delta campaign's probe savings.
        """
        decayed = self.decayed_scores(epoch)
        mask = (
            (self._last_seen >= 0)
            & (decayed < threshold)
            & (int(epoch) - self._last_seen <= miss_forget_age)
        )
        return self._hi[mask].copy(), self._lo[mask].copy()

    def probed_within(self, epoch: int, age: int) -> np.ndarray:
        """Fused S16 keys of entries probed in the last ``age`` epochs.

        The delta planner's exploration filter: freshly generated
        targets matching these keys were checked recently and are not
        worth re-spending probes on this epoch.
        """
        mask = (int(epoch) - self._last_probed) < age
        return self._keys[mask]

    def summary(self, epoch: int | None = None) -> dict:
        """Counts and score aggregates (for the CLI and the bench)."""
        epoch = self.latest_epoch if epoch is None else int(epoch)
        decayed = self.decayed_scores(epoch)
        responders = self._last_seen >= 0
        believed = responders & (decayed >= DEFAULT_LIVE_THRESHOLD)
        due = (
            responders
            & (decayed < DEFAULT_REPROBE_THRESHOLD)
            & (epoch - self._last_seen <= DEFAULT_MISS_FORGET_AGE)
        )
        return {
            "epoch": epoch,
            "entries": len(self._keys),
            "responders": int(responders.sum()),
            "believed_live": int(believed.sum()),
            "due_for_reprobe": int(due.sum()),
            "mean_score": float(decayed[responders].mean())
            if responders.any()
            else 0.0,
        }

    def freshness(
        self, epoch: int, live: tuple[np.ndarray, np.ndarray]
    ) -> dict:
        """Belief quality against ground-truth ``live`` columns.

        ``freshness`` is the fraction of truly live addresses the store
        currently believes live (recall); ``staleness`` the fraction of
        believed-live addresses that are actually gone (belief rot).
        """
        bhi, blo = self.believed_live(epoch)
        believed_keys = fuse(bhi, blo)
        live_keys = np.sort(fuse(*live))
        overlap = int(np.isin(believed_keys, live_keys).sum())
        return {
            "epoch": int(epoch),
            "live": len(live_keys),
            "believed": len(believed_keys),
            "overlap": overlap,
            "freshness": overlap / len(live_keys) if len(live_keys) else 1.0,
            "staleness": (
                (len(believed_keys) - overlap) / len(believed_keys)
                if len(believed_keys)
                else 0.0
            ),
        }

    # -- persistence ---------------------------------------------------

    def snapshot(self) -> str:
        """Compact: fsync the log, then dump the columns to ``.npz``.

        The dump is written next to the log via temp file + fsync +
        atomic rename, and records the ``log_id`` and how many records
        it covers.  A crash at any point leaves either the previous
        dump or the new one, each with the record count it was taken
        at, so reopening replays exactly the records neither covers.
        """
        if self._log is None:
            raise ValueError("snapshot() requires a store opened with a path")
        self._log.sync()
        final = _snapshot_path(self.path)
        tmp = final + ".tmp"
        with open(tmp, "wb") as handle:
            np.savez(
                handle,
                format=_FORMAT,
                version=_VERSION,
                log_id=self._log.log_id,
                records=self._log.records,
                hi=self._hi,
                lo=self._lo,
                last_seen=self._last_seen,
                last_probed=self._last_probed,
                score=self._score,
                latest_epoch=self.latest_epoch,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        self.events_since_snapshot = 0
        return final

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "LivingHitlist":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- interop -------------------------------------------------------

    def addresses(self) -> list[int]:
        """All tracked addresses as Python ints (ascending)."""
        return unpack(self._hi, self._lo)

    def known_responders(self) -> tuple[np.ndarray, np.ndarray]:
        """Every address that ever answered, as packed columns."""
        mask = self._last_seen >= 0
        return self._hi[mask].copy(), self._lo[mask].copy()

    def state_digest(self) -> str:
        """Order-sensitive digest of the full column state (parity tests)."""
        import hashlib

        digest = hashlib.sha256()
        for arr in (
            self._hi, self._lo, self._last_seen, self._last_probed,
        ):
            digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(
            np.ascontiguousarray(self._score).astype("<f8").tobytes()
        )
        digest.update(str(self.latest_epoch).encode())
        return digest.hexdigest()
