"""Packed array plane for 128-bit addresses: the scan path's native currency.

Python-int addresses are flexible but expensive: every batch operation
on them is a Python-level loop over boxed 128-bit integers.  This
module gives the hot paths a columnar alternative — an address batch is
a pair of ``uint64`` numpy arrays ``(hi, lo)``, where ``hi`` holds the
top 64 bits and ``lo`` the bottom 64 — plus the two lookup structures
every scan-path membership question reduces to:

:class:`FrozenKeySet`
    A frozen host set as a *sorted* array of 16-byte big-endian keys.
    Membership reads one bucket of a hash directory per address and
    confirms it against the columns, instead of one Python set probe
    per address.

:class:`PrefixMaskTable`
    A frozen prefix set (blacklist entries, aliased regions) as one
    sorted table of disjoint 128-bit intervals.  A batch lookup is one
    search of that table, however many prefix lengths the set holds,
    instead of per-address dict walks.

The 16-byte key encoding (:func:`fuse`) views the two big-endian
``uint64`` columns as numpy ``S16`` byte strings: byte-wise
lexicographic comparison of big-endian fixed-width integers equals
numeric comparison, so sorting / searching the keys is sorting /
searching the 128-bit values.  (numpy compares ``S`` dtypes ignoring
trailing NUL bytes; with a *fixed* 16-byte width two distinct values
can never collide, because equal-after-stripping would require the
same byte prefix with different trailing-NUL counts — impossible at
equal total width.)

Everything here is shape-preserving and allocation-light on purpose:
lookup tables are plain contiguous ndarrays with no Python object
graphs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .address import IPv6Addr

_M64 = (1 << 64) - 1
_ALL_ONES = np.uint64(_M64)

#: Number of bits in one column.
COLUMN_BITS = 64


def _mix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser over uint64 (wrapping arithmetic)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


_HASH_SALT = np.uint64(0x9E3779B97F4A7C15)


def hash_columns(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """64-bit mixed hash of address columns (membership acceleration).

    One hash per address, chaining both halves through splitmix64.
    :meth:`FrozenKeySet.member` buckets its entries by this hash's top
    bits, so a query reads one bucket instead of searching the table,
    then confirms its candidate against the actual columns, so lookups
    stay exact.
    """
    return _mix64_np(hi ^ _mix64_np(lo ^ _HASH_SALT))


# -- packing ----------------------------------------------------------------
def split_int(addr: int) -> tuple[int, int]:
    """One 128-bit integer -> its ``(hi, lo)`` 64-bit halves."""
    value = int(addr)
    return value >> 64, value & _M64


def join_int(hi: int, lo: int) -> int:
    """Inverse of :func:`split_int`."""
    return (int(hi) << 64) | int(lo)


def pack(addrs: Sequence[int] | Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Pack addresses (ints or :class:`IPv6Addr`) into hi/lo columns.

    Accepts anything indexable/iterable whose elements coerce via
    ``int()``; already-int inputs (the scan path's deduplicated target
    lists) take the fast path with no per-element method calls beyond
    the two shifts.
    """
    if not isinstance(addrs, (list, tuple)):
        addrs = [int(a) for a in addrs]
    n = len(addrs)
    if n and not isinstance(addrs[0], int):
        addrs = [int(a) for a in addrs]
    hi = np.fromiter((a >> 64 for a in addrs), dtype=np.uint64, count=n)
    lo = np.fromiter((a & _M64 for a in addrs), dtype=np.uint64, count=n)
    return hi, lo


def unpack(hi: np.ndarray, lo: np.ndarray) -> list[int]:
    """Inverse of :func:`pack`: hi/lo columns -> Python-int addresses.

    ``tolist()`` converts each column to Python ints in one C-level
    pass; the join is then plain int arithmetic.
    """
    return [(h << 64) | l for h, l in zip(hi.tolist(), lo.tolist())]


def pack_addrs(addrs: Iterable["IPv6Addr"]) -> tuple[np.ndarray, np.ndarray]:
    """Pack :class:`IPv6Addr` instances (alias of :func:`pack`)."""
    return pack([int(a) for a in addrs])


def unpack_addrs(hi: np.ndarray, lo: np.ndarray) -> "list[IPv6Addr]":
    """Hi/lo columns -> :class:`IPv6Addr` instances."""
    from .address import IPv6Addr

    return [IPv6Addr(v) for v in unpack(hi, lo)]


# -- fused 128-bit keys -----------------------------------------------------
def fuse(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Hi/lo columns -> ``S16`` big-endian keys (order-preserving)."""
    buf = np.empty((len(hi), 2), dtype=">u8")
    buf[:, 0] = hi
    buf[:, 1] = lo
    return buf.view("S16").ravel()


def fuse_ints(addrs: Iterable[int]) -> np.ndarray:
    """Python-int addresses -> sorted-comparable ``S16`` keys."""
    return fuse(*pack(list(addrs)))


def unfuse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`fuse`: ``S16`` keys -> contiguous hi/lo columns."""
    cols = keys.view(">u8").reshape(-1, 2).astype(np.uint64)
    return np.ascontiguousarray(cols[:, 0]), np.ascontiguousarray(cols[:, 1])


def member_sorted(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Boolean membership of ``keys`` in a sorted, distinct key array."""
    if not len(table) or not len(keys):
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(table, keys)
    pos[pos == len(table)] = 0  # compare out-of-range against [0]
    return table[pos] == keys


def merge_sorted(base: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Merge two sorted, mutually disjoint key arrays into one sorted array.

    One ``searchsorted`` plus two scatter copies, where re-sorting the
    concatenation would compare ``S16`` keys O(n log n) times.
    """
    if not len(top):
        return base
    idx = np.searchsorted(base, top) + np.arange(len(top))
    merged = np.empty(len(base) + len(top), dtype=base.dtype)
    at_top = np.zeros(len(merged), dtype=bool)
    at_top[idx] = True
    merged[idx] = top
    merged[~at_top] = base
    return merged


# -- column-level set operations --------------------------------------------
def is_columns(obj) -> bool:
    """True if ``obj`` is a packed ``(hi, lo)`` column pair.

    The target-source detection used by the scan/generation handoff:
    a 2-tuple of equal-length 1-D uint64 arrays.
    """
    return (
        isinstance(obj, tuple)
        and len(obj) == 2
        and isinstance(obj[0], np.ndarray)
        and isinstance(obj[1], np.ndarray)
        and obj[0].dtype == np.uint64
        and obj[1].dtype == np.uint64
        and obj[0].ndim == 1
        and obj[0].shape == obj[1].shape
    )


def concat_columns(
    chunks: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate column chunks into one ``(hi, lo)`` pair."""
    parts = [c for c in chunks if len(c[0])]
    if not parts:
        empty = np.empty(0, dtype=np.uint64)
        return empty, empty
    if len(parts) == 1:
        return parts[0]
    return (
        np.concatenate([c[0] for c in parts]),
        np.concatenate([c[1] for c in parts]),
    )


def dedupe_columns(
    hi: np.ndarray, lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First-seen dedupe of address columns, order-preserving.

    ``np.unique`` over the fused keys yields the first-occurrence index
    of every distinct address; sorting those indices reconstructs the
    insertion order — the exact sequence ``dict.fromkeys`` produces on
    the unpacked list, without boxing a single int.
    """
    if not len(hi):
        return hi, lo
    first = _first_occurrence(hi, lo)[2]
    if len(first) == len(hi):
        return hi, lo
    first.sort()
    return hi[first], lo[first]


def _first_occurrence(
    hi: np.ndarray, lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct addresses in ascending order plus first-seen indices.

    Returns ``(sorted_hi, sorted_lo, first)`` where ``first`` holds the
    input index of each distinct address's first occurrence, aligned
    with the sorted columns.  A numeric ``lexsort`` over the uint64
    halves replaces ``np.unique`` on fused S16 keys — integer compares
    beat 16-byte memcmps by a wide margin, and lexsort's stability is
    what makes ``first`` the *first* occurrence.
    """
    if len(hi) > 1:
        ascending = bool(
            ((hi[1:] > hi[:-1]) | ((hi[1:] == hi[:-1]) & (lo[1:] > lo[:-1]))).all()
        )
    else:
        ascending = True
    if ascending:
        # Already strictly ascending (the common case: one range
        # expands in address order) — nothing to sort or dedupe.
        return hi, lo, np.arange(len(hi))
    order = np.lexsort((lo, hi))
    shi, slo = hi[order], lo[order]
    dup = (shi[1:] == shi[:-1]) & (slo[1:] == slo[:-1])
    keep = np.concatenate(([True], ~dup))
    return shi[keep], slo[keep], order[keep]


class ColumnDeduper:
    """Streaming first-seen dedupe across column chunks.

    Feed chunks through :meth:`add`; each call returns the chunk's
    fresh addresses (never seen in any earlier chunk or earlier in this
    one) in their first-seen order.  Concatenating the outputs equals
    ``dict.fromkeys`` over the concatenated unpacked input — the
    invariant that lets generation stream columns prefix-to-prefix into
    the scanner without materialising a global boxed list.

    Seen keys live in a small stack of sorted runs merged geometrically
    (each run at least double the one above it), so ``n`` addresses
    arriving in many small chunks cost O(n log² n) total instead of the
    O(n²) a single re-inserted sorted array would — the difference is
    decisive when a prefix emits one chunk per cluster.
    """

    __slots__ = ("_runs",)

    def __init__(self) -> None:
        self._runs: list[np.ndarray] = []

    def __len__(self) -> int:
        """Number of distinct addresses seen so far."""
        return sum(len(run) for run in self._runs)

    def add(
        self, hi: np.ndarray, lo: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if not len(hi):
            return hi, lo
        shi, slo, first = _first_occurrence(hi, lo)
        uniq = fuse(shi, slo)
        for run in self._runs:
            if not len(uniq):
                break
            fresh = ~member_sorted(run, uniq)
            uniq, first = uniq[fresh], first[fresh]
        if not len(uniq):
            return hi[:0], lo[:0]
        self._runs.append(uniq)
        while (
            len(self._runs) > 1
            and len(self._runs[-2]) < 2 * len(self._runs[-1])
        ):
            top = self._runs.pop()
            self._runs.append(merge_sorted(self._runs.pop(), top))
        first.sort()
        return hi[first], lo[first]


# -- frozen lookup tables ---------------------------------------------------
class FrozenKeySet:
    """An immutable address set with vectorised membership tests.

    Holds the member addresses as a sorted, deduplicated ``S16`` key
    array.  :meth:`member` answers a batch through a bucket directory
    over the entries' :func:`hash_columns` hashes, built lazily per
    process and never shipped, so a frozen set round-trips through
    shared memory as its plain contiguous key array.
    """

    __slots__ = ("keys", "_directory")

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        # None = unbuilt; () = hash collision, use the S16 path; else
        # (shift, bucket starts, entry hashes, entry hi, entry lo).
        self._directory: tuple | None = None

    @classmethod
    def from_ints(cls, values: Iterable[int]) -> "FrozenKeySet":
        keys = fuse_ints(values)
        keys = np.unique(keys) if len(keys) else keys
        return cls(keys)

    @classmethod
    def from_columns(cls, hi: np.ndarray, lo: np.ndarray) -> "FrozenKeySet":
        keys = fuse(hi, lo)
        keys = np.unique(keys) if len(keys) else keys
        return cls(keys)

    def __len__(self) -> int:
        return len(self.keys)

    def member_keys(self, keys: np.ndarray) -> np.ndarray:
        """Boolean membership flags for pre-fused query keys."""
        return member_sorted(self.keys, keys)

    def _hashed(self) -> tuple:
        """The bucket directory over entry hashes, built lazily.

        The entries are sorted by hash and bucketed by the hash's top
        ``bits``, with at least two buckets per entry.  ``starts[b]`` is
        the first entry whose bucket is ``b`` or later, so an empty
        bucket points at an entry hashing higher than any query that
        lands in it.  One sentinel row (the largest hash, a copy of the
        last entry's columns) ends the entry arrays, so walks never run
        off them.

        Returns ``()`` — meaning "use the exact S16 path" — if any two
        distinct entries share a hash: a walk stops at the first entry
        of a hash, so it could confirm only one of them.  (With 64-bit
        mixed hashes this is astronomically unlikely, but exactness here
        is a parity guarantee, not a probabilistic one.)
        """
        tables = self._directory
        if tables is None:
            hi, lo = unfuse(self.keys)
            hashes = hash_columns(hi, lo)
            order = np.argsort(hashes)
            hashes = hashes[order]
            if len(hashes) > 1 and bool((hashes[1:] == hashes[:-1]).any()):
                tables = ()
            else:
                bits = (2 * len(hashes) - 1).bit_length()
                shift = np.uint64(64 - bits)
                buckets = np.arange(1 << bits, dtype=np.uint64)
                hi, lo = hi[order], lo[order]
                tables = (
                    shift,
                    np.searchsorted(hashes >> shift, buckets),
                    np.append(hashes, _ALL_ONES),
                    np.append(hi, hi[-1]),
                    np.append(lo, lo[-1]),
                )
            self._directory = tables
        return tables

    def member(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Boolean membership flags for hi/lo query columns.

        Each query starts at its bucket's first entry and steps on while
        the entry hashes lower than the query; only the rows still
        walking are touched at each step, and buckets hold a handful of
        entries at most.  The walk ends on the first entry hashing at
        least as high as the query, which is compared against the
        query's columns, so the verdict is exact: entry hashes are
        unique here, so a member always ends on its own entry.
        """
        if not len(self.keys) or not len(hi):
            return np.zeros(len(hi), dtype=bool)
        tables = self._hashed()
        if not tables:
            return self.member_keys(fuse(hi, lo))
        shift, starts, entry_hash, entry_hi, entry_lo = tables
        hashes = hash_columns(hi, lo)
        pos = starts[hashes >> shift]
        walking = np.flatnonzero(entry_hash[pos] < hashes)
        while len(walking):
            pos[walking] += 1
            walking = walking[entry_hash[pos[walking]] < hashes[walking]]
        return (entry_hi[pos] == hi) & (entry_lo[pos] == lo)


def mask_columns(length: int) -> tuple[np.uint64, np.uint64]:
    """The /length network mask, split into hi/lo column masks."""
    if not 0 <= length <= 128:
        raise ValueError(f"prefix length out of range: {length}")
    mask = ((1 << length) - 1) << (128 - length)
    return np.uint64(mask >> 64), np.uint64(mask & _M64)


def _union_bounds(
    start_hi: np.ndarray,
    start_lo: np.ndarray,
    end_hi: np.ndarray,
    end_lo: np.ndarray,
) -> np.ndarray:
    """Sorted ``S16`` boundaries of the union of inclusive 128-bit intervals.

    A depth sweep: each interval opens at its start and closes one past
    its end (an interval ending at the last address never closes).
    With opens sorted before closes at equal addresses, the union's
    boundaries are the opens that lift the depth from zero and the
    closes that bring it back, so nested intervals leave no boundary
    and touching ones merge.
    """
    stop_lo = end_lo + np.uint64(1)
    stop_hi = end_hi + (stop_lo == 0).astype(np.uint64)
    closes = (end_hi != _ALL_ONES) | (end_lo != _ALL_ONES)
    hi = np.concatenate((start_hi, stop_hi[closes]))
    lo = np.concatenate((start_lo, stop_lo[closes]))
    step = np.ones(len(hi), dtype=np.int64)
    step[len(start_hi):] = -1
    order = np.lexsort((-step, lo, hi))
    step = step[order]
    depth = np.cumsum(step)
    edge = order[(depth == 0) | ((step == 1) & (depth == 1))]
    return fuse(hi[edge], lo[edge])


class PrefixMaskTable:
    """A frozen prefix set answering "does any prefix contain addr?".

    Two prefixes either nest or are disjoint, so the set covers exactly
    its maximal prefixes: sorted, disjoint 128-bit intervals.  The table
    keeps them as one ascending ``S16`` array of boundaries, each
    interval's first address followed by the address just past its
    last (none for an interval reaching the last address), so an
    address lies inside iff an odd number of boundaries is at or below
    it.  A batch lookup is one search of that array, however many
    prefix lengths the set holds.
    """

    __slots__ = ("bounds", "_bounds_hi")

    def __init__(self, bounds: np.ndarray):
        self.bounds = bounds
        self._bounds_hi = unfuse(bounds)[0]

    @classmethod
    def from_networks(
        cls, networks_by_length: dict[int, Iterable[int]]
    ) -> "PrefixMaskTable":
        """Build from ``{length: /length network ints}`` in one sweep."""
        columns: list[tuple[np.ndarray, ...]] = []
        for length, networks in networks_by_length.items():
            hi, lo = pack(list(networks))
            mask_hi, mask_lo = mask_columns(length)
            columns.append((hi, lo, hi | ~mask_hi, lo | ~mask_lo))
        if not columns:
            return cls(fuse(*pack([])))
        return cls(_union_bounds(*(np.concatenate(c) for c in zip(*columns))))

    def match_any(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """True where any prefix of the set contains the address.

        Counts the boundaries at or below each address.  The high column
        settles every address whose /64 holds no boundary; only the
        addresses sharing a /64 with a boundary compare 16-byte keys.
        """
        if not len(self.bounds) or not len(hi):
            return np.zeros(len(hi), dtype=bool)
        below = np.searchsorted(self._bounds_hi, hi)
        tied = np.flatnonzero(self._bounds_hi.take(below, mode="clip") == hi)
        if len(tied):
            below[tied] = np.searchsorted(
                self.bounds, fuse(hi[tied], lo[tied]), side="right"
            )
        return (below & 1).astype(bool)
