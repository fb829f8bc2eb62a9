"""Array-native scan plane: the batched pipeline over uint64 columns.

:class:`ScanPlane` is a frozen snapshot of everything a scan batch
needs — target hi/lo columns, the blacklist as a
:class:`~repro.ipv6.addrplane.PrefixMaskTable`, the ground truth's host
set as a :class:`~repro.ipv6.addrplane.FrozenKeySet`, aliased regions
as a second mask table, and the (optional) fault model — so one probe
batch is a handful of vectorised numpy passes instead of a Python loop
over boxed 128-bit ints.

Every scan runs in-process: :class:`~repro.scanner.execution.
ScanExecution` walks the permuted targets through
:meth:`ScanPlane.probe_range` one batch at a time.

Parity contract: every verdict here is the same pure function of
``(key, address, attempt)`` the scalar reference path computes —
:func:`loss_prf_arr` matches ``engine._loss_prf`` bit-for-bit (uint64
hash, then one exact power-of-two float scaling), membership tables are
exact, and fault models vectorise their own PRFs — so hits and stats
are identical to the reference scan for any batch size.
``ScanPlane.supports`` gates the plane to the exact types it can
snapshot (subclassed truths/blacklists scan through the engine's
per-address reference path, which obeys dynamic dispatch).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..ipv6.addrplane import FrozenKeySet, PrefixMaskTable, unpack
from ..simnet.ground_truth import GroundTruth
from .blacklist import Blacklist
from .schedule import CyclicPermutation, _mix64_np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.models import FaultModel
    from .probe import ScanStats

_TWO64 = np.float64(2**64)


class StaleWorldError(RuntimeError):
    """A frozen scan context outlived the world it was built against.

    Raised when a :class:`ScanPlane` (or a stepped
    :class:`~repro.scanner.execution.ScanExecution`) is used after the
    ground truth mutated — e.g. the churn layer advanced an epoch
    mid-campaign.  Frozen host/alias tables are snapshots; silently
    reusing them would report hits from a world that no longer exists.
    """


def loss_prf_arr(key: int, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Vectorised ``engine._loss_prf``: uniform-in-[0,1) per address.

    Bit-identical to the scalar form: the hash chain folds the low then
    the high column through splitmix64, and dividing the uint64 result
    by 2**64 is an exact power-of-two scaling, so the float compares
    equal to Python's correctly rounded ``h / 2**64``.
    """
    h = _mix64_np(np.uint64(key) ^ lo)
    h = _mix64_np(h ^ hi)
    return h / _TWO64


class ScanPlane:
    """Frozen array-native scan context (targets + lookup tables)."""

    __slots__ = (
        "hi", "lo", "blacklist_table", "host_keys", "alias_table",
        "fault", "loss_rate", "port", "permuted", "world_version",
    )

    def __init__(
        self,
        hi: np.ndarray,
        lo: np.ndarray,
        *,
        blacklist_table: PrefixMaskTable | None,
        host_keys: FrozenKeySet,
        alias_table: PrefixMaskTable | None,
        fault: "FaultModel | None",
        loss_rate: float,
        port: int,
        world_version: tuple[int, int] | None = None,
    ):
        self.hi = hi
        self.lo = lo
        self.blacklist_table = blacklist_table
        self.host_keys = host_keys
        self.alias_table = alias_table
        self.fault = fault
        self.loss_rate = loss_rate
        self.port = port
        # Version token of the truth this plane froze (None when built
        # from raw columns without a truth in hand).
        self.world_version = world_version
        # Lazily materialised permuted target columns (see gather()).
        self.permuted: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction -------------------------------------------------------
    @staticmethod
    def supports(truth: GroundTruth, blacklist: Blacklist) -> bool:
        """Can this truth/blacklist pair be snapshotted exactly?

        Only the concrete types the plane knows how to freeze qualify;
        any subclass with overridden lookup behaviour scans through
        the reference path so dynamic dispatch is honoured.
        """
        from ..faults.ground import FaultyGroundTruth

        if type(blacklist) is not Blacklist:
            return False
        return type(truth) in (GroundTruth, FaultyGroundTruth)

    @classmethod
    def build(
        cls,
        truth: GroundTruth,
        blacklist: Blacklist,
        targets: "tuple[np.ndarray, np.ndarray]",
        port: int,
        loss_rate: float,
    ) -> "ScanPlane":
        """Freeze a scan context over deduplicated ``(hi, lo)`` columns.

        The columns are adopted without conversion.
        """
        from ..faults.ground import FaultyGroundTruth

        hi, lo = targets
        fault = truth.fault if isinstance(truth, FaultyGroundTruth) else None
        return cls(
            hi,
            lo,
            blacklist_table=blacklist.frozen_table() if blacklist else None,
            host_keys=truth.frozen_hosts(port),
            alias_table=truth.aliased.frozen_table(port)
            if truth.aliased
            else None,
            fault=fault,
            loss_rate=loss_rate,
            port=port,
            world_version=getattr(truth, "world_version", None),
        )

    def ensure_fresh(self, truth: GroundTruth) -> None:
        """Raise :class:`StaleWorldError` if ``truth`` mutated since build."""
        if self.world_version is None:
            return
        current = getattr(truth, "world_version", None)
        if current is not None and current != self.world_version:
            raise StaleWorldError(
                "scan plane frozen at world version "
                f"{self.world_version} but the truth is now at {current}; "
                "rebuild the plane (or restart the scan) after mutating "
                "the world"
            )

    # -- probing ------------------------------------------------------------
    def gather(
        self, perm: CyclicPermutation | None, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One batch's target columns, in permuted probe order.

        The whole permuted column pair is materialised on first use:
        one big vectorised Feistel walk plus one fancy-gather beats
        thousands of small per-batch ones (the cycle-walk loop's fixed
        numpy overhead dominates at batch granularity), after which
        every batch is a zero-copy slice.  The copy costs 16 bytes per
        target, the size of the columns themselves.
        """
        if perm is None:
            return self.hi[start:stop], self.lo[start:stop]
        permuted = self.permuted
        if permuted is None:
            indices = perm.permute_range_arr(0, len(self.hi))
            permuted = self.permuted = (self.hi[indices], self.lo[indices])
        return permuted[0][start:stop], permuted[1][start:stop]

    def probe_range(
        self,
        perm: CyclicPermutation | None,
        start: int,
        stop: int,
        loss_key: int,
        stats: "ScanStats",
        hits: set[int],
    ) -> list[int]:
        """Round-0 probe of targets ``start..stop-1`` (permuted order)."""
        bhi, blo = self.gather(perm, start, stop)
        return self.probe_batch(bhi, blo, loss_key, stats, hits)

    def probe_batch(
        self,
        bhi: np.ndarray,
        blo: np.ndarray,
        loss_key: int,
        stats: "ScanStats",
        hits: set[int],
    ) -> list[int]:
        """Blacklist / loss / responsiveness for one column batch.

        Same accounting as one round-0 step of the engine's reference
        scan; returns the batch's responsive addresses (the checkpoint
        delta) in probe order.
        """
        if self.blacklist_table is not None:
            blocked = self.blacklist_table.match_any(bhi, blo)
            count = int(blocked.sum())
            if count:
                stats.blacklisted += count
                keep = ~blocked
                bhi, blo = bhi[keep], blo[keep]
        stats.probes_sent += len(bhi)
        if self.loss_rate:
            lost = loss_prf_arr(loss_key, bhi, blo) < self.loss_rate
            count = int(lost.sum())
            if count:
                stats.dropped += count
                keep = ~lost
                bhi, blo = bhi[keep], blo[keep]
        responded = self._responsive(bhi, blo, attempt=0)
        responsive = unpack(bhi[responded], blo[responded])
        stats.responses += len(responsive)
        hits.update(responsive)
        return responsive

    def retry_chunk(
        self,
        bhi: np.ndarray,
        blo: np.ndarray,
        round_key: int,
        round_: int,
        stats: "ScanStats",
        hits: set[int],
    ) -> list[int]:
        """One retry round over a pre-filtered pending chunk."""
        stats.retransmits += len(bhi)
        if self.loss_rate:
            lost = loss_prf_arr(round_key, bhi, blo) < self.loss_rate
            count = int(lost.sum())
            if count:
                stats.dropped += count
                keep = ~lost
                bhi, blo = bhi[keep], blo[keep]
        responded = self._responsive(bhi, blo, attempt=round_)
        responsive = unpack(bhi[responded], blo[responded])
        stats.responses += len(responsive)
        hits.update(responsive)
        return responsive

    def pending_columns(
        self,
        perm: CyclicPermutation | None,
        batch_size: int,
        hits: set[int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Non-responding, non-blacklisted targets in permuted order.

        The set each retry round re-probes: a pure function of
        (targets, permutation, hits) — which is what lets a resumed
        run rebuild exactly the pending set an uninterrupted run would
        carry into a retry round — chunked so the permutation is
        computed batch-wise like the scan itself.
        """
        hit_keys = FrozenKeySet.from_ints(hits)
        keep_hi: list[np.ndarray] = []
        keep_lo: list[np.ndarray] = []
        n = len(self.hi)
        for start in range(0, n, batch_size):
            bhi, blo = self.gather(perm, start, min(start + batch_size, n))
            keep = ~hit_keys.member(bhi, blo)
            if self.blacklist_table is not None:
                keep &= ~self.blacklist_table.match_any(bhi, blo)
            keep_hi.append(bhi[keep])
            keep_lo.append(blo[keep])
        if not keep_hi:
            empty = np.empty(0, dtype=np.uint64)
            return empty, empty
        return np.concatenate(keep_hi), np.concatenate(keep_lo)

    def _responsive(
        self, bhi: np.ndarray, blo: np.ndarray, attempt: int
    ) -> np.ndarray:
        """Would each probe get a response?  (Fault layer, then truth.)"""
        if self.fault is not None:
            dropped = self.fault.drops_many_arr(bhi, blo, self.port, attempt)
            flags = np.zeros(len(bhi), dtype=bool)
            live = ~dropped
            if live.any():
                flags[live] = self._base_responsive(bhi[live], blo[live])
            return flags
        return self._base_responsive(bhi, blo)

    def _base_responsive(self, bhi: np.ndarray, blo: np.ndarray) -> np.ndarray:
        flags = self.host_keys.member(bhi, blo)
        if self.alias_table is not None:
            flags |= self.alias_table.match_any(bhi, blo)
        return flags
