"""Packed array plane for 128-bit addresses: the scan path's native currency.

Python-int addresses are flexible but expensive: every batch operation
on them is a Python-level loop over boxed 128-bit integers.  This
module gives the hot paths a columnar alternative — an address batch is
a pair of ``uint64`` numpy arrays ``(hi, lo)``, where ``hi`` holds the
top 64 bits and ``lo`` the bottom 64 — plus the two lookup structures
every scan-path membership question reduces to:

:class:`FrozenKeySet`
    A frozen host set as a *sorted* array of 16-byte big-endian keys.
    Membership is one vectorised ``np.searchsorted`` (plus an equality
    check) instead of one Python set probe per address.

:class:`PrefixMaskTable`
    A frozen prefix set (blacklist entries, aliased regions) as one
    ``FrozenKeySet`` of masked networks per prefix length.  A batch
    lookup is "mask the columns, search the table" per length —
    vectorised prefix-mask compares instead of per-address dict walks.

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
these arrays travel through :mod:`multiprocessing.shared_memory`
segments into scan workers (see :mod:`repro.scanner.shm`), so lookup
tables are plain contiguous ndarrays with no Python object graphs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .address import IPv6Addr

_M64 = (1 << 64) - 1

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
    :meth:`FrozenKeySet.member` sorts its entries by this hash and
    binary-searches uint64 hashes instead of ``S16`` byte strings —
    roughly twice as fast per probe — then confirms candidates by
    comparing the actual columns, so lookups stay exact.
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
    array; :meth:`member_keys` answers a whole batch with one
    ``searchsorted``.  The backing array is a plain contiguous ndarray,
    so a frozen set round-trips through shared memory unchanged (the
    hash acceleration below is rebuilt lazily per process and never
    shipped).
    """

    __slots__ = ("keys", "_hash_tables")

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        # None = unbuilt; () = hash collision, use the S16 path;
        # else (sorted hashes, entry hi, entry lo) aligned by hash.
        self._hash_tables: tuple | None = None

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
        """Hash-sorted entry tables, built lazily (see ``hash_columns``).

        Returns ``()`` — meaning "use the exact S16 path" — if any two
        distinct entries share a hash: with duplicate hashes a single
        ``searchsorted`` position cannot confirm both, so the
        acceleration would produce false negatives.  (With 64-bit mixed
        hashes this is astronomically unlikely, but exactness here is a
        parity guarantee, not a probabilistic one.)
        """
        tables = self._hash_tables
        if tables is None:
            hi, lo = unfuse(self.keys)
            hashes = hash_columns(hi, lo)
            order = np.argsort(hashes, kind="stable")
            hashes = hashes[order]
            if len(hashes) > 1 and bool((hashes[1:] == hashes[:-1]).any()):
                tables = ()
            else:
                tables = (hashes, hi[order], lo[order])
            self._hash_tables = tables
        return tables

    def member(
        self,
        hi: np.ndarray,
        lo: np.ndarray,
        hashes: np.ndarray | None = None,
    ) -> np.ndarray:
        """Boolean membership flags for hi/lo query columns.

        ``hashes`` may carry precomputed ``hash_columns(hi, lo)`` so
        callers probing several tables hash each batch only once.  The
        position the hash search finds is confirmed against the actual
        columns, so the verdict is exact: a pair that compares equal at
        the found position *is* in the table, and a member pair always
        lands on its own entry (entry hashes are unique here).
        """
        if not len(self.keys) or not len(hi):
            return np.zeros(len(hi), dtype=bool)
        tables = self._hashed()
        if not tables:  # pragma: no cover - needs a 64-bit hash collision
            return self.member_keys(fuse(hi, lo))
        entry_hash, entry_hi, entry_lo = tables
        if hashes is None:
            hashes = hash_columns(hi, lo)
        pos = np.searchsorted(entry_hash, hashes)
        pos[pos == len(entry_hash)] = 0
        return (entry_hi[pos] == hi) & (entry_lo[pos] == lo)


def mask_columns(length: int) -> tuple[np.uint64, np.uint64]:
    """The /length network mask, split into hi/lo column masks."""
    if not 0 <= length <= 128:
        raise ValueError(f"prefix length out of range: {length}")
    mask = ((1 << length) - 1) << (128 - length)
    return np.uint64(mask >> 64), np.uint64(mask & _M64)


class PrefixMaskTable:
    """A frozen prefix set answering "does any prefix contain addr?".

    One ``(hi mask, lo mask, FrozenKeySet of networks)`` entry per
    distinct prefix length, checked shortest-length first (matching the
    scalar walk order in :class:`~repro.scanner.blacklist.Blacklist`
    and :class:`~repro.simnet.aliasing.AliasedRegionSet`).  Already-
    matched rows are skipped in later length passes.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: list[tuple[int, FrozenKeySet]]):
        self.entries = [
            (length, *mask_columns(length), keys) for length, keys in entries
        ]

    @classmethod
    def from_networks(
        cls, networks_by_length: dict[int, Iterable[int]]
    ) -> "PrefixMaskTable":
        return cls(
            [
                (length, FrozenKeySet.from_ints(networks_by_length[length]))
                for length in sorted(networks_by_length)
            ]
        )

    def __len__(self) -> int:
        return sum(len(keys) for _, _, _, keys in self.entries)

    def match_any(
        self,
        hi: np.ndarray,
        lo: np.ndarray,
        hashes: np.ndarray | None = None,
    ) -> np.ndarray:
        """True where any table prefix contains the address.

        ``hashes`` may carry the batch's ``hash_columns(hi, lo)``;
        ``/128`` entries (identity mask) then probe on them directly
        instead of re-masking and re-hashing the columns.  The first
        length pass writes its flags wholesale — no all-true boolean
        indexing — so single-length tables cost one membership test.
        """
        flags: np.ndarray | None = None
        for length, mask_hi, mask_lo, table in self.entries:
            exact = hashes if length == 128 and hashes is not None else None
            if flags is None:
                if exact is not None:
                    flags = table.member(hi, lo, hashes=exact)
                else:
                    flags = table.member(hi & mask_hi, lo & mask_lo)
                continue
            pending = ~flags
            if not pending.any():
                break
            sub_hi, sub_lo = hi[pending], lo[pending]
            if exact is not None:
                flags[pending] = table.member(
                    sub_hi, sub_lo, hashes=exact[pending]
                )
            else:
                flags[pending] = table.member(
                    sub_hi & mask_hi, sub_lo & mask_lo
                )
        if flags is None:
            flags = np.zeros(len(hi), dtype=bool)
        return flags
