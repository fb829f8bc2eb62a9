"""Scan scheduling: courteous target ordering and probe-rate policy.

The paper randomises destination order and runs scans serially "to
avoid overloading networks" (§6).  Uniform shuffling achieves that in
expectation; this module also provides a deterministic round-robin
interleave that bounds the *burst* any single routed prefix receives —
the property an operations team actually wants to promise — and the
ZMap-style :class:`CyclicPermutation` the scan engine uses to visit a
target list in pseudo-random order with O(1) auxiliary memory.

It is also where probe-rate *policy* lives: :class:`RatePolicy` is the
budget/window admission rule (admit at most ``budget`` of every
``window`` arrivals) that both sides of a rate cap share — the network
side as :class:`repro.faults.RateLimiter` (a throttling router
modelled as a fault) and the operator side as the campaign scheduler's
per-prefix cap.  :class:`TenantBudget` is the scheduler's mutable
per-tenant probe ledger.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..ipv6.addrplane import _mix64_np  # noqa: F401  (re-export)
from ..ipv6.addrplane import dedupe_columns, is_columns, unpack
from ..ipv6.prefix import Prefix
from ..simnet.bgp import BgpTable

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """The splitmix64 finaliser: a cheap, well-mixed 64-bit hash."""
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


class CyclicPermutation:
    """A keyed bijection over ``[0, n)`` — ZMap's trick for IPv6 lists.

    ZMap scans the IPv4 space in the order of a cyclic group generator
    so the whole permutation costs O(1) state.  The target lists here
    are arbitrary, so we permute their *index space* instead: a 4-round
    Feistel network over the smallest even-bit domain covering ``n``,
    with cycle-walking for out-of-range images.  Walking indices
    ``0..n-1`` through the permutation visits every target exactly once
    in a key-dependent pseudo-random order, with no shuffled copy of
    the list and no index array.

    The scalar :meth:`__call__` is the specification; the vectorised
    :meth:`permute_range_arr` computes the same mapping batch-wise (used
    by the batched scan path) and is verified equal in the tests.
    """

    __slots__ = ("n", "_half_bits", "_half_mask", "_keys")

    def __init__(self, n: int, key: int, rounds: int = 4):
        if n < 0:
            raise ValueError(f"permutation size must be non-negative: {n}")
        self.n = n
        bits = max(2, (n - 1).bit_length()) if n > 1 else 2
        half = (bits + 1) // 2
        self._half_bits = half
        self._half_mask = (1 << half) - 1
        self._keys = tuple(mix64(key + r * _GOLDEN) for r in range(rounds))

    def _encrypt(self, x: int) -> int:
        half, mask = self._half_bits, self._half_mask
        left, right = x >> half, x & mask
        for k in self._keys:
            left, right = right, left ^ (mix64(right ^ k) & mask)
        return (left << half) | right

    def __call__(self, index: int) -> int:
        """Image of ``index`` under the permutation (both in ``[0, n)``)."""
        if not 0 <= index < self.n:
            raise IndexError(f"index {index} out of range [0, {self.n})")
        image = self._encrypt(index)
        while image >= self.n:
            # Cycle-walk: the domain is < 4n, so this terminates fast,
            # and re-encrypting stays within the index's own cycle —
            # the first in-range image is unique to it (bijectivity).
            image = self._encrypt(image)
        return image

    def permute_range(self, start: int, stop: int) -> list[int]:
        """Images of ``start..stop-1`` as a Python list."""
        return self.permute_range_arr(start, stop).tolist()

    def permute_range_arr(self, start: int, stop: int) -> "np.ndarray":
        """Images of ``start..stop-1`` as a uint64 array (no boxing).

        The array scan plane indexes its hi/lo target columns with this
        directly; :meth:`permute_range` is its boxed form.
        """
        if not 0 <= start <= stop <= self.n:
            raise IndexError(f"range [{start}, {stop}) outside [0, {self.n})")
        if start == stop:
            return np.empty(0, dtype=np.uint64)
        half = np.uint64(self._half_bits)
        mask = np.uint64(self._half_mask)
        keys = [np.uint64(k) for k in self._keys]

        def encrypt(x: "np.ndarray") -> "np.ndarray":
            left, right = x >> half, x & mask
            for k in keys:
                left, right = right, left ^ (_mix64_np(right ^ k) & mask)
            return (left << half) | right

        images = encrypt(np.arange(start, stop, dtype=np.uint64))
        walking = images >= self.n
        while walking.any():
            images[walking] = encrypt(images[walking])
            walking = images >= self.n
        return images


@dataclass(frozen=True)
class RatePolicy:
    """Budget/window admission: admit ``budget`` of every ``window`` slots.

    The mechanics behind ICMPv6-style rate limiting, promoted from the
    :class:`repro.faults.RateLimiter` fault model to a first-class
    scheduling policy.  A probe hashed to arrival slot ``s`` is
    admitted iff ``s % window < budget``; everything else about *which*
    slot a probe lands in (the PRF over prefix/address/attempt) stays
    with the consumer, so the fault overlay and the scheduler share one
    definition of "over the cap" while keying it however they need.
    """

    budget: int = 64
    window: int = 256

    def __post_init__(self) -> None:
        if not 0 < self.budget <= self.window:
            raise ValueError(
                f"budget must be in (0, window]: {self.budget}/{self.window}"
            )

    @property
    def admitted_fraction(self) -> float:
        """Long-run fraction of arrivals the policy admits."""
        return self.budget / self.window

    def admits(self, slot: int) -> bool:
        """Whether the arrival hashed to ``slot`` is within the budget."""
        return slot % self.window < self.budget

    def admits_arr(self, slots: "np.ndarray") -> "np.ndarray":
        """Vectorised :meth:`admits` over a uint64 slot column."""
        return slots % np.uint64(self.window) < np.uint64(self.budget)


@dataclass
class TenantBudget:
    """Mutable per-tenant probe ledger for the campaign scheduler.

    ``limit`` is the tenant's total first-attempt probe budget across
    all of its campaigns (``None`` = unlimited); ``spent`` accumulates
    as the scheduler charges probe batches.  Enforcement is batch
    granular: the scheduler checks :attr:`exhausted` before dispatching
    a batch, so overshoot is bounded by one batch.
    """

    limit: int | None = None
    spent: int = 0

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"limit must be >= 0: {self.limit}")
        if self.spent < 0:
            raise ValueError(f"spent must be >= 0: {self.spent}")

    @property
    def exhausted(self) -> bool:
        return self.limit is not None and self.spent >= self.limit

    def remaining(self) -> float:
        """Probes left before exhaustion (``inf`` when unlimited)."""
        if self.limit is None:
            return float("inf")
        return max(0, self.limit - self.spent)

    def charge(self, probes: int) -> None:
        """Record ``probes`` first-attempt probes against the budget."""
        if probes < 0:
            raise ValueError(f"cannot charge negative probes: {probes}")
        self.spent += probes


def interleave_by_network(
    targets: "Iterable[int] | tuple[np.ndarray, np.ndarray]",
    bgp: BgpTable,
    *,
    rng_seed: int | None = 0,
) -> list[int]:
    """Round-robin targets across routed prefixes.

    Targets are grouped by routed prefix (unrouted targets form one
    group), each group is shuffled, and the groups are drained one
    address at a time in rotating order.  Any window of *k* consecutive
    probes touches a single prefix at most ``ceil(k / live_groups)``
    times — a hard burst bound that a plain shuffle only gives in
    expectation.

    ``targets`` may also be packed ``(hi, lo)`` columns; the dedupe
    then runs as a fused-key array pass producing the same first-seen
    order the scalar path yields, before unboxing for the inherently
    per-address routing lookups.
    """
    if is_columns(targets):
        deduped: "Iterable[int]" = unpack(*dedupe_columns(*targets))
    else:
        # dict.fromkeys, not a set: set iteration order varies with
        # hash randomisation / CPython build, which would leak into
        # each group's pre-shuffle order and break cross-run
        # determinism (the same footgun Scanner.scan's dedupe fixed).
        deduped = dict.fromkeys(int(t) for t in targets)
    rng = random.Random(rng_seed)
    groups: dict[Prefix | None, list[int]] = defaultdict(list)
    for addr in deduped:
        route = bgp.lookup(addr)
        groups[route.prefix if route else None].append(addr)
    queues = []
    for key in sorted(groups, key=lambda p: (p is None, p)):
        bucket = groups[key]
        rng.shuffle(bucket)
        queues.append(bucket)
    ordered: list[int] = []
    index = 0
    while queues:
        if index >= len(queues):
            index = 0
        queue = queues[index]
        ordered.append(queue.pop())
        if not queue:
            # The next queue slides into this index; do not advance.
            del queues[index]
        else:
            index += 1
    return ordered


def max_burst(ordered: Sequence[int], bgp: BgpTable, window: int) -> int:
    """Largest number of same-prefix probes in any length-``window`` slice.

    The verification metric for :func:`interleave_by_network`; useful
    in tests and when tuning scan rates.
    """
    if window <= 0:
        raise ValueError(f"window must be positive: {window}")
    prefixes = []
    for addr in ordered:
        route = bgp.lookup(int(addr))
        prefixes.append(route.prefix if route else None)
    worst = 0
    counts: dict[Prefix | None, int] = defaultdict(int)
    for i, prefix in enumerate(prefixes):
        counts[prefix] += 1
        if i >= window:
            counts[prefixes[i - window]] -= 1
        worst = max(worst, counts[prefix])
    return worst


def batched(targets: Sequence[int], batch_size: int) -> Iterator[list[int]]:
    """Split an ordered target list into probe batches."""
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive: {batch_size}")
    for start in range(0, len(targets), batch_size):
        yield list(targets[start : start + batch_size])
