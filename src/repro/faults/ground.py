"""A ground truth wrapped in deterministic fault models.

:class:`FaultyGroundTruth` interposes a :class:`~repro.faults.models.
FaultModel` in front of an existing :class:`~repro.simnet.ground_truth.
GroundTruth`: a probe first survives the fault layer (or not), and only
survivors consult the underlying oracle.  It *is* a ``GroundTruth`` —
it shares the base instance's host tables and aliased regions rather
than copying them — so it drops into the scanner, the dealiaser, and
the experiment harness unchanged.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..simnet.ground_truth import GroundTruth
from .models import FaultModel


class FaultyGroundTruth(GroundTruth):
    """``GroundTruth`` overlay that loses probes per a fault model.

    The overlay shares (not copies) the base truth's internals, so
    host mutations through either object stay in sync.  Fault verdicts
    are pure functions of ``(seed, addr, attempt)`` — see
    :mod:`repro.faults.models` — which keeps faulty scans exactly as
    reproducible and order-independent as clean ones.
    """

    def __init__(self, base: GroundTruth, fault: FaultModel):
        super().__init__(base._hosts_by_port, base.aliased)
        self.base = base
        self.fault = fault

    # Memoised host tables and the mutation token live on the *base*
    # truth only: the overlay shares the base's host dict, so keeping a
    # second set of memos here would go stale whenever the world
    # mutates through the base (e.g. the churn layer advancing an
    # epoch).  Delegating makes a mutation through either object
    # invalidate — and version-stamp — exactly one place.
    @property
    def world_version(self) -> tuple[int, int]:
        return self.base.world_version

    def invalidate(self) -> None:
        self.base.invalidate()

    def frozen_hosts(self, port: int = 80):
        return self.base.frozen_hosts(port)

    def is_responsive(self, addr: int, port: int = 80, attempt: int = 0) -> bool:
        value = int(addr)
        if self.fault.drops(value, port, attempt):
            return False
        return super().is_responsive(value, port)

    def responsive_many(
        self, addrs: Iterable[int], port: int = 80, attempt: int = 0
    ) -> list[bool]:
        # One bulk conversion, no per-element int() when the input is
        # already plain ints or a numpy column (tolist is one C pass).
        if isinstance(addrs, np.ndarray):
            addrs = addrs.tolist()
        else:
            addrs = [int(a) for a in addrs]
        dropped = self.fault.drops_many(addrs, port, attempt)
        survivors = [a for a, lost in zip(addrs, dropped) if not lost]
        flags = [False] * len(addrs)
        if survivors:
            verdicts = super().responsive_many(survivors, port)
            cursor = 0
            for i, lost in enumerate(dropped):
                if not lost:
                    flags[i] = verdicts[cursor]
                    cursor += 1
        return flags

    def responsive_many_arr(
        self,
        hi: np.ndarray,
        lo: np.ndarray,
        port: int = 80,
        attempt: int = 0,
    ) -> np.ndarray:
        """Array-native overlay: fault layer first, oracle for survivors.

        Calls the *base class* oracle directly, matching the scalar
        ``super().responsive_many`` — when overlays nest, only the
        outermost fault model applies.
        """
        dropped = self.fault.drops_many_arr(hi, lo, port, attempt)
        flags = np.zeros(len(hi), dtype=bool)
        live = ~dropped
        if live.any():
            flags[live] = GroundTruth.responsive_many_arr(
                self, hi[live], lo[live], port
            )
        return flags
