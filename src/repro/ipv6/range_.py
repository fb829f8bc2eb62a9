"""Nybble-wildcard address ranges (the paper's cluster ranges, §5.3).

A :class:`NybbleRange` constrains each of the 32 nybble positions of an
IPv6 address to a set of allowed values, stored as a 16-bit mask per
position (bit ``v`` set means hex value ``v`` is allowed).  The range
covers exactly the product set of the per-position value sets.

Two clustering granularities from the paper are supported:

* **loose** — a position is either fixed to a single value or a full
  wildcard ``?`` accepting all 16 values;
* **tight** — positions may carry any subset of values, written with the
  paper's bracket syntax, e.g. ``[1-2,8-a]``.

Text syntax extends standard IPv6 notation: ``2001:db8::?:100?`` is a
range of 256 addresses; ``2001:db8::[0-3]1`` bounds one nybble to the
values 0–3.
"""

from __future__ import annotations

import itertools
import random
import re
from typing import Iterable, Iterator, Sequence

import numpy as np

from .address import AddressError
from .addrplane import (
    _M64,
    ColumnDeduper,
    _first_occurrence,
    concat_columns,
    fuse,
    member_sorted,
    merge_sorted,
    unfuse,
    unpack,
)
from .nybble import (
    FULL_MASK,
    HEXTET_COUNT,
    NYBBLE_COUNT,
    hex_digit,
    hex_value,
    mask_contains,
    mask_values,
    popcount16,
)
from .prefix import Prefix


class RangeError(ValueError):
    """Raised for malformed range text or invalid range operations."""


_BRACKET_RE = re.compile(r"^\[([0-9a-fA-F,\-]+)\]$")


def _parse_bracket(token: str) -> int:
    """Parse a ``[1-2,8-a]`` bracket expression into a 16-bit mask."""
    match = _BRACKET_RE.match(token)
    if not match:
        raise RangeError(f"invalid bracket expression: {token!r}")
    mask = 0
    for part in match.group(1).split(","):
        if not part:
            raise RangeError(f"empty item in bracket expression: {token!r}")
        lo_text, dash, hi_text = part.partition("-")
        lo = hex_value(lo_text) if len(lo_text) == 1 else None
        if lo is None:
            raise RangeError(f"invalid bracket item: {part!r}")
        if dash:
            hi = hex_value(hi_text) if len(hi_text) == 1 else None
            if hi is None or hi < lo:
                raise RangeError(f"invalid bracket span: {part!r}")
        else:
            hi = lo
        for v in range(lo, hi + 1):
            mask |= 1 << v
    return mask


def _format_mask(mask: int) -> str:
    """Format one position's mask as a digit, ``?``, or bracket expression."""
    if mask == FULL_MASK:
        return "?"
    values = mask_values(mask)
    if len(values) == 1:
        return hex_digit(values[0])
    # Collapse consecutive runs into spans.
    parts: list[str] = []
    run_start = prev = values[0]
    for v in values[1:] + (None,):  # type: ignore[operator]
        if v is not None and v == prev + 1:
            prev = v
            continue
        if run_start == prev:
            parts.append(hex_digit(run_start))
        else:
            parts.append(f"{hex_digit(run_start)}-{hex_digit(prev)}")
        if v is not None:
            run_start = prev = v
    return "[" + ",".join(parts) + "]"


def _tokenize_group(group: str) -> list[str]:
    """Split one colon-separated group into per-nybble tokens."""
    tokens: list[str] = []
    i = 0
    while i < len(group):
        ch = group[i]
        if ch == "[":
            end = group.find("]", i)
            if end == -1:
                raise RangeError(f"unterminated bracket in group: {group!r}")
            tokens.append(group[i : end + 1])
            i = end + 1
        else:
            tokens.append(ch)
            i += 1
    if not 1 <= len(tokens) <= 4:
        raise RangeError(f"group must contain 1-4 nybbles: {group!r}")
    return tokens


class NybbleRange:
    """A product-set region of IPv6 address space, one value-mask per nybble.

    Immutable; all growth operations return new ranges.
    """

    __slots__ = ("_masks", "_size")

    def __init__(self, masks: Sequence[int]):
        masks = tuple(masks)
        if len(masks) != NYBBLE_COUNT:
            raise RangeError(f"expected {NYBBLE_COUNT} masks, got {len(masks)}")
        size = 1
        for m in masks:
            if not 0 < m <= FULL_MASK:
                raise RangeError(f"invalid nybble mask: {m:#x}")
            size *= popcount16(m)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_size", size)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("NybbleRange is immutable")

    def __reduce__(self):
        # immutability guard blocks default unpickling; rebuild via ctor
        return (NybbleRange, (self._masks,))

    # -- constructors ---------------------------------------------------
    @classmethod
    def _make(cls, masks: tuple[int, ...], size: int) -> "NybbleRange":
        """Trusted constructor: masks known valid, size precomputed.

        Used by the vectorised 6Gen kernel, which builds span masks from
        an existing (validated) range and tracks the size incrementally;
        skipping the 32-position validation loop matters when thousands
        of candidate spans are built per run.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_size", size)
        return self

    @classmethod
    def from_address(cls, addr: int) -> "NybbleRange":
        """The singleton range covering exactly one address."""
        value = int(addr)
        masks = [
            1 << ((value >> (4 * i)) & 0xF) for i in range(NYBBLE_COUNT - 1, -1, -1)
        ]
        return cls(masks)

    @classmethod
    def full(cls) -> "NybbleRange":
        """The range covering the entire 128-bit address space."""
        return cls([FULL_MASK] * NYBBLE_COUNT)

    @classmethod
    def from_prefix(cls, prefix: Prefix) -> "NybbleRange":
        """A range equivalent to a nybble-aligned CIDR prefix.

        The prefix length must be a multiple of 4 (a bit-aligned prefix
        has no exact nybble-mask representation otherwise).
        """
        if prefix.length % 4 != 0:
            raise RangeError(
                f"prefix length {prefix.length} is not nybble-aligned"
            )
        fixed = prefix.length // 4
        masks = []
        for i in range(NYBBLE_COUNT):
            if i < fixed:
                masks.append(1 << ((prefix.network >> (4 * (NYBBLE_COUNT - 1 - i))) & 0xF))
            else:
                masks.append(FULL_MASK)
        return cls(masks)

    @classmethod
    def parse(cls, text: str) -> "NybbleRange":
        """Parse wildcard range text (IPv6 grammar + ``?`` + brackets)."""
        text = text.strip()
        if not text:
            raise RangeError("empty range")
        if text.count("::") > 1:
            raise RangeError(f"multiple '::' in range: {text!r}")

        def groups_to_masks(groups: list[str]) -> list[int]:
            masks: list[int] = []
            for group in groups:
                tokens = _tokenize_group(group)
                group_masks = []
                for token in tokens:
                    if token == "?":
                        group_masks.append(FULL_MASK)
                    elif token.startswith("["):
                        group_masks.append(_parse_bracket(token))
                    else:
                        try:
                            group_masks.append(1 << hex_value(token))
                        except ValueError:
                            raise RangeError(
                                f"invalid character {token!r} in range {text!r}"
                            ) from None
                # Implied leading zeros for short groups (e.g. "?" == "000?").
                masks.extend([1 << 0] * (4 - len(group_masks)))
                masks.extend(group_masks)
            return masks

        if "::" in text:
            left_text, right_text = text.split("::", 1)
            left = [g for g in left_text.split(":") if g] if left_text else []
            right = [g for g in right_text.split(":") if g] if right_text else []
            fill = HEXTET_COUNT - len(left) - len(right)
            if fill < 1:
                raise RangeError(f"'::' must replace at least one group: {text!r}")
            left_masks = groups_to_masks(left)
            right_masks = groups_to_masks(right)
            masks = left_masks + [1 << 0] * (4 * fill) + right_masks
        else:
            groups = text.split(":")
            if len(groups) != HEXTET_COUNT:
                raise RangeError(
                    f"expected {HEXTET_COUNT} groups, got {len(groups)}: {text!r}"
                )
            masks = groups_to_masks(groups)
        if len(masks) != NYBBLE_COUNT:
            raise RangeError(f"range does not span 32 nybbles: {text!r}")
        return cls(masks)

    # -- accessors -------------------------------------------------------
    @property
    def masks(self) -> tuple[int, ...]:
        """Per-position 16-bit value masks (index 0 = most significant)."""
        return self._masks

    def size(self) -> int:
        """Number of addresses covered (product of per-position set sizes)."""
        return self._size

    def mask(self, index: int) -> int:
        """The value mask at one nybble position."""
        return self._masks[index]

    def values_at(self, index: int) -> tuple[int, ...]:
        """Allowed nybble values at one position, ascending."""
        return mask_values(self._masks[index])

    def is_singleton(self) -> bool:
        """True if the range covers exactly one address."""
        return self._size == 1

    def dynamic_positions(self) -> tuple[int, ...]:
        """Indices of positions allowing more than one value (paper Fig. 6)."""
        return tuple(i for i, m in enumerate(self._masks) if popcount16(m) > 1)

    def fixed_positions(self) -> tuple[int, ...]:
        """Indices of positions fixed to a single value."""
        return tuple(i for i, m in enumerate(self._masks) if popcount16(m) == 1)

    # -- membership & set relations ---------------------------------------
    def contains(self, addr: int) -> bool:
        """True if the address lies within the range."""
        value = int(addr)
        for i in range(NYBBLE_COUNT):
            nybble = (value >> (4 * (NYBBLE_COUNT - 1 - i))) & 0xF
            if not mask_contains(self._masks[i], nybble):
                return False
        return True

    def is_subset(self, other: "NybbleRange") -> bool:
        """True if every address in this range is also in ``other``."""
        return all(
            (mine & ~theirs) == 0 for mine, theirs in zip(self._masks, other._masks)
        )

    def is_strict_subset(self, other: "NybbleRange") -> bool:
        """True if this range is a subset of ``other`` and not equal to it."""
        return self._masks != other._masks and self.is_subset(other)

    def overlaps(self, other: "NybbleRange") -> bool:
        """True if the ranges share at least one address."""
        return all(
            (mine & theirs) != 0 for mine, theirs in zip(self._masks, other._masks)
        )

    def intersection(self, other: "NybbleRange") -> "NybbleRange | None":
        """The shared region, or ``None`` if the ranges are disjoint."""
        masks = [mine & theirs for mine, theirs in zip(self._masks, other._masks)]
        if any(m == 0 for m in masks):
            return None
        return NybbleRange(masks)

    # -- growth (cluster expansion, §5.4) ----------------------------------
    def span_tight(self, addr: int) -> "NybbleRange":
        """Smallest tight range covering this range plus one address.

        Each differing position gains exactly the address's nybble value.
        """
        value = int(addr)
        masks = list(self._masks)
        for i in range(NYBBLE_COUNT):
            nybble = (value >> (4 * (NYBBLE_COUNT - 1 - i))) & 0xF
            masks[i] |= 1 << nybble
        return NybbleRange(masks)

    def span_loose(self, addr: int) -> "NybbleRange":
        """Loose range covering this range plus one address.

        Each position whose mask does not already contain the address's
        nybble becomes a full ``?`` wildcard.
        """
        value = int(addr)
        masks = list(self._masks)
        for i in range(NYBBLE_COUNT):
            nybble = (value >> (4 * (NYBBLE_COUNT - 1 - i))) & 0xF
            if not mask_contains(masks[i], nybble):
                masks[i] = FULL_MASK
        return NybbleRange(masks)

    def span(self, addr: int, loose: bool) -> "NybbleRange":
        """Dispatch to :meth:`span_loose` or :meth:`span_tight`."""
        return self.span_loose(addr) if loose else self.span_tight(addr)

    # -- enumeration & sampling -------------------------------------------
    def iter_ints(self) -> Iterator[int]:
        """Iterate covered addresses as integers, ascending.

        The caller is responsible for checking :meth:`size` first; a
        range can cover up to 2**128 addresses.
        """
        value_lists = [mask_values(m) for m in self._masks]
        for combo in itertools.product(*value_lists):
            value = 0
            for nybble in combo:
                value = (value << 4) | nybble
            yield value

    def iter_new_ints(self, old: "NybbleRange") -> Iterator[int]:
        """Iterate addresses in this range that are *not* in ``old``.

        ``old`` must be a subset of this range (the cluster-growth case:
        a grown range always contains its pre-growth range).  The cost is
        proportional to the size of the *difference*, not of the full
        range: the difference of two product sets is partitioned by the
        first widened position that takes a newly added value.
        """
        if not old.is_subset(self):
            raise RangeError("iter_new_ints requires old ⊆ new")
        widened = [
            i
            for i in range(NYBBLE_COUNT)
            if self._masks[i] != old._masks[i]
        ]
        for k, pivot in enumerate(widened):
            # Positions before the pivot (among widened ones) take OLD
            # values, the pivot takes NEW-ONLY values, later widened
            # positions take NEW values; unchanged positions keep their
            # common mask.
            value_lists: list[tuple[int, ...]] = []
            for i in range(NYBBLE_COUNT):
                if i == pivot:
                    values = mask_values(self._masks[i] & ~old._masks[i])
                elif i in widened[:k]:
                    values = mask_values(old._masks[i])
                else:
                    values = mask_values(self._masks[i])
                value_lists.append(values)
            for combo in itertools.product(*value_lists):
                value = 0
                for nybble in combo:
                    value = (value << 4) | nybble
                yield value

    def difference_size(self, old: "NybbleRange") -> int:
        """``len(self \\ old)`` for ``old`` a subset of this range."""
        if not old.is_subset(self):
            raise RangeError("difference_size requires old ⊆ new")
        return self._size - old._size

    def sample_new_ints(
        self, old: "NybbleRange", count: int, rng: random.Random
    ) -> list[int]:
        """``count`` distinct random addresses from ``self \\ old``.

        Implements the paper's final-growth sampling (§5.4): when the
        last cluster growth would exceed the probe budget, the budget is
        consumed exactly by randomly selecting addresses of the grown
        range that were not already in the pre-growth range.  Uses
        rejection sampling when the difference is large (the acceptance
        rate is at least 1/16 per widened position because masks only
        widen), falling back to enumeration for small differences.
        Both branches run on packed columns and draw exactly as the
        per-address loops over :meth:`random_int` and ``rng.sample``
        do (:func:`sample_range_arr`, :func:`sample_rows`).
        """
        diff_size = self.difference_size(old)
        if count > diff_size:
            raise RangeError(
                f"cannot sample {count} addresses from difference of size {diff_size}"
            )
        if diff_size <= 4 * count or diff_size <= 4096:
            return unpack(*sample_rows(*expand_new_arr(self, old), count, rng))
        return unpack(*sample_range_arr(self, count, rng, old=old))

    def random_int(self, rng: random.Random) -> int:
        """A uniformly random covered address."""
        value = 0
        for m in self._masks:
            values = mask_values(m)
            value = (value << 4) | rng.choice(values)
        return value

    def sample_ints(self, count: int, rng: random.Random) -> list[int]:
        """``count`` distinct covered addresses, uniformly at random.

        Raises :class:`RangeError` if the range holds fewer than
        ``count`` addresses.  Uses rejection sampling (cheap because the
        per-position draws are independent) with an enumeration fallback
        for small ranges.
        """
        if count > self._size:
            raise RangeError(
                f"cannot sample {count} distinct addresses from range of size {self._size}"
            )
        if self._size <= 4 * count:
            return unpack(*sample_rows(*expand_range_arr(self), count, rng))
        return unpack(*sample_range_arr(self, count, rng))

    # -- formatting & protocol --------------------------------------------
    def wildcard_text(self) -> str:
        """Paper-style text form with ``?`` wildcards and brackets.

        Runs of two or more all-zero groups are compressed with ``::``
        like plain addresses.
        """
        group_texts = []
        for g in range(HEXTET_COUNT):
            masks = self._masks[4 * g : 4 * g + 4]
            tokens = [_format_mask(m) for m in masks]
            # Strip implied leading zeros, keeping at least one token.
            while len(tokens) > 1 and tokens[0] == "0":
                tokens.pop(0)
            group_texts.append("".join(tokens))
        # Compress the longest run (>= 2) of "0" groups, leftmost first.
        best_start, best_len = -1, 0
        run_start, run_len = -1, 0
        for i, g in enumerate(group_texts + ["x"]):
            if g == "0":
                if run_len == 0:
                    run_start = i
                run_len += 1
            else:
                if run_len > best_len:
                    best_start, best_len = run_start, run_len
                run_len = 0
        if best_len < 2:
            return ":".join(group_texts)
        left = ":".join(group_texts[:best_start])
        right = ":".join(group_texts[best_start + best_len:])
        return f"{left}::{right}"

    def __str__(self) -> str:
        return self.wildcard_text()

    def __repr__(self) -> str:
        return f"NybbleRange({self.wildcard_text()!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, NybbleRange):
            return self._masks == other._masks
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._masks)

    def __contains__(self, addr) -> bool:
        try:
            return self.contains(int(addr))
        except (TypeError, ValueError, AddressError):
            return False


# -- column-native expansion (generation plane) -----------------------------
def _expand_masks_arr(masks: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian product of 32 nybble masks as ``(hi, lo)`` columns.

    Fixed positions fold into one constant per column; each dynamic
    position then ORs its values into its column in one broadcast pass
    over the full-size output — leftmost varying slowest, exactly the
    ``itertools.product`` order of :meth:`NybbleRange.iter_ints`.  One
    full-size array op per *dynamic* position (typically 1–3) instead
    of one per position.
    """
    size = 1
    const = 0
    dynamic: list[tuple[int, tuple[int, ...]]] = []
    shift = 128
    for m in masks:
        shift -= 4
        if m & (m - 1):
            values = mask_values(m)
            dynamic.append((shift, values))
            size *= len(values)
        else:
            const |= (m.bit_length() - 1) << shift
    cols = [
        np.full(size, const >> 64, dtype=np.uint64),
        np.full(size, const & _M64, dtype=np.uint64),
    ]
    stride = size
    for shift, values in dynamic:
        stride //= len(values)
        column, bit = divmod(shift, 64)
        bits = np.array([v << bit for v in values], dtype=np.uint64)
        view = cols[1 - column].reshape(-1, stride * len(values))
        view |= np.repeat(bits, stride)
    return cols[0], cols[1]


def _expand_prefix_arr(
    masks: Sequence[int], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``n`` addresses of the product set, as hi/lo columns.

    The product order is a mixed-radix counter (rightmost position is
    the fastest digit), so address ``j`` decodes positionally:
    ``digit = (j // stride) % count`` with ``stride`` the product of all
    value counts to the right.  Positions whose stride already exceeds
    ``n`` never advance and contribute their first value as a constant.
    """
    idx = np.arange(n, dtype=np.uint64)
    hi = np.zeros(n, dtype=np.uint64)
    lo = np.zeros(n, dtype=np.uint64)
    stride = 1
    for pos in range(NYBBLE_COUNT - 1, -1, -1):
        values = mask_values(masks[pos])
        count = len(values)
        nybble_index = NYBBLE_COUNT - 1 - pos  # 0 = least significant
        column = hi if nybble_index >= 16 else lo
        shift = np.uint64(4 * (nybble_index % 16))
        if count == 1 or stride >= n:
            if values[0]:
                column |= np.uint64(values[0]) << shift
        else:
            digits = (idx // np.uint64(stride)) % np.uint64(count)
            column |= np.array(values, dtype=np.uint64)[digits] << shift
        stride *= count
    return hi, lo


def expand_range_arr(
    range_: NybbleRange, *, limit: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Materialise a range directly into packed ``(hi, lo)`` columns.

    Column-native counterpart of :meth:`NybbleRange.iter_ints`: the
    output order is exactly the scalar iteration order (ascending), and
    with ``limit`` the first ``limit`` addresses of that order.  No
    Python big-ints are boxed along the way.  As with ``iter_ints``, the
    caller is responsible for keeping ``min(size, limit)`` sane.
    """
    size = range_.size()
    n = size if limit is None else min(limit, size)
    if n <= 0:
        empty = np.empty(0, dtype=np.uint64)
        return empty, empty
    if n < size:
        return _expand_prefix_arr(range_.masks, n)
    return _expand_masks_arr(range_.masks)


def expand_new_arr(
    new: NybbleRange, old: NybbleRange
) -> tuple[np.ndarray, np.ndarray]:
    """Column-native :meth:`NybbleRange.iter_new_ints`: same rows, same order.

    One product-set expansion per widened (pivot) position: earlier
    pivots hold their old values, the pivot its new-only values, later
    positions their new values.
    """
    if not old.is_subset(new):
        raise RangeError("expand_new_arr requires old ⊆ new")
    masks = list(new.masks)
    parts = []
    for pos, (mine, theirs) in enumerate(zip(new.masks, old.masks)):
        if mine != theirs:
            masks[pos] = mine & ~theirs
            parts.append(_expand_masks_arr(masks))
            masks[pos] = theirs
    return concat_columns(parts)


def sample_rows(
    hi: np.ndarray, lo: np.ndarray, count: int, rng: random.Random
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` rows in the order ``rng.sample(rows, count)`` picks them.

    ``Random.sample`` draws from the population's length alone, so
    sampling ``range(n)`` and gathering is draw for draw the same as
    sampling a boxed list of the rows.
    """
    idx = np.array(rng.sample(range(len(hi)), count), dtype=np.intp)
    return hi[idx], lo[idx]


#: Most fresh generator words :func:`sample_range_arr` draws per block
#: (1 MiB), so its memory stays bounded whatever the sample size.
_WORD_BLOCK = 1 << 18
_TOP_BIT = 1 << 31


def _twister(rng: random.Random) -> np.random.MT19937:
    """A numpy Mersenne Twister at ``rng``'s state.

    CPython's ``random.Random`` and numpy's ``MT19937`` run the same
    generator over the same 624-word key and position, so the twister's
    raw outputs are the words ``rng.getrandbits(32)`` would return.
    """
    key = rng.getstate()[1]
    twister = np.random.MT19937()
    twister.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(key[:-1], dtype=np.uint32), "pos": key[-1]},
    }
    return twister


def _accepted_words(words: np.ndarray, thresholds: list[int]) -> np.ndarray:
    """Indices of the words each whole candidate accepts, shape ``(n, 32)``.

    Position ``p`` accepts a word ``w`` iff ``w < thresholds[p]``, and a
    candidate moves to its next position after each accepted word, so
    the position a word meets is the number of words accepted before
    it, mod 32.  Every threshold is at least 2**31: words below 2**31
    are accepted wherever they land, and when every position has a
    power-of-two value count (all loose ranges) those are the only
    accepted words.  Otherwise words in ``[2**31, max threshold)`` are
    settled by one walk over just them, each with a bitmask of the
    positions that would accept it.
    """
    accepted = words < _TOP_BIT
    ambiguous = np.flatnonzero(~accepted & (words < max(thresholds)))
    if len(ambiguous):
        amb_words = words[ambiguous]
        admits = np.zeros(len(ambiguous), dtype=np.uint64)
        for pos, threshold in enumerate(thresholds):
            if threshold > _TOP_BIT:
                admits[amb_words < threshold] |= np.uint64(1 << pos)
        low_before = np.cumsum(accepted)[ambiguous].tolist()
        taken: list[int] = []
        for i, (low, bits) in enumerate(zip(low_before, admits.tolist())):
            if bits >> ((low + len(taken)) % NYBBLE_COUNT) & 1:
                taken.append(i)
        accepted[ambiguous[taken]] = True
    idx = np.flatnonzero(accepted)
    whole = len(idx) // NYBBLE_COUNT
    return idx[: whole * NYBBLE_COUNT].reshape(whole, NYBBLE_COUNT)


def sample_range_arr(
    range_: NybbleRange,
    count: int,
    rng: random.Random,
    *,
    old: NybbleRange | None = None,
    exclude: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sample ``count`` addresses from raw generator words.

    Column-native counterpart of the loop ::

        chosen = set()
        while len(chosen) < count:
            addr = range_.random_int(rng)
            if addr not in old and addr not in exclude:
                chosen.add(addr)
        return sorted(chosen)

    with the same addresses, as ascending ``(hi, lo)`` columns, and the
    same ``rng`` state afterwards.  ``exclude`` is a sorted array of
    fused keys (:func:`~repro.ipv6.addrplane.fuse`).

    ``random_int`` makes one ``rng.choice`` per nybble position.  Over
    ``n`` values, ``choice`` takes 32-bit Mersenne Twister words ``w``
    until ``w >> (32 - k) < n`` (``k = n.bit_length()``), that is until
    ``w < n << (32 - k)``, and picks value index ``w >> (32 - k)``.  A
    numpy ``MT19937`` loaded with ``rng``'s state yields those same
    words in blocks (:func:`_twister`), which decode into whole
    candidates (:func:`_accepted_words`) and are filtered in bulk:
    outside ``old``, outside ``exclude``, first seen.  Finally the
    twister is reloaded with the last block's starting state, advanced
    by exactly the words consumed up to the ``count``-th pick, and its
    state written back into ``rng``.  ``tests/test_ledger_parity.py``
    pins the interpreter and numpy behaviour this relies on.
    """
    empty = np.empty(0, dtype=np.uint64)
    if count <= 0:
        return empty, empty
    thresholds: list[int] = []
    const = [0, 0]  # fixed nybbles of the hi and lo columns
    dynamic = []  # (position, shift, column, value bits by value index)
    widened = []  # (position, shift, old-membership by value index)
    for pos, mask in enumerate(range_.masks):
        values = mask_values(mask)
        shift = 32 - len(values).bit_length()
        thresholds.append(len(values) << shift)
        column, bit = pos // 16, 4 * (15 - pos % 16)
        if len(values) == 1:
            const[column] |= values[0] << bit
        else:
            bits = np.array([v << bit for v in values], dtype=np.uint64)
            dynamic.append((pos, shift, column, bits))
        if old is not None and old.masks[pos] != mask:
            inside = np.array([bool(old.masks[pos] >> v & 1) for v in values])
            widened.append((pos, shift, inside))
    size = range_.size()
    available = size - (old.size() if old is not None else 0)
    if count > available:
        raise RangeError(f"cannot sample {count} addresses from {available}")
    if exclude is not None:
        available -= len(exclude)
    # Expected words per pick, from the per-position acceptance rates
    # and a pessimistic share of candidates that survive the filters.
    words_per_pick = sum(2**32 / t for t in thresholds) * size / max(available, 1)

    twister = _twister(rng)
    chosen = np.empty(0, dtype="S16")
    carry = np.empty(0, dtype=np.uint32)
    while True:
        need = count - len(chosen)
        fresh = min(_WORD_BLOCK, int(words_per_pick * need * 1.1) + 64)
        block_state = twister.state
        drawn = twister.random_raw(fresh).astype(np.uint32)
        words = np.concatenate([carry, drawn])
        acc = _accepted_words(words, thresholds)
        rows = np.arange(len(acc))
        if widened:
            in_old = np.ones(len(acc), dtype=bool)
            for pos, shift, inside in widened:
                in_old &= inside[words[acc[:, pos]] >> shift]
            rows = rows[~in_old]
        cols = [np.full(len(rows), c, dtype=np.uint64) for c in const]
        for pos, shift, column, bits in dynamic:
            cols[column] |= bits[words[acc[rows, pos]] >> shift]
        shi, slo, first = _first_occurrence(*cols)
        uniq = fuse(shi, slo)
        keep = ~member_sorted(chosen, uniq)
        if exclude is not None:
            keep &= ~member_sorted(exclude, uniq)
        uniq, first = uniq[keep], first[keep]
        if len(uniq) >= need:
            # The first ``need`` candidates in draw order; taking them in
            # index order keeps the keys sorted.
            picks = np.sort(np.argsort(first)[:need])
            first = first[picks]
            chosen = merge_sorted(chosen, uniq[picks])
            break
        chosen = merge_sorted(chosen, uniq)
        # Words after the last whole candidate start the next block.
        carry = words[int(acc[-1, -1]) + 1 if len(acc) else 0 :]
    # The last pick's final word lies past the carry (a candidate ending
    # inside it would have been whole in the previous block), so
    # rewinding to this block's draw and re-drawing up to that word
    # leaves the generator where the scalar loop leaves it.
    twister.state = block_state
    twister.random_raw(int(acc[rows[first.max()], -1]) + 1 - len(carry), output=False)
    version, _, gauss_next = rng.getstate()
    state = twister.state["state"]
    rng.setstate((version, (*state["key"].tolist(), int(state["pos"])), gauss_next))
    return unfuse(chosen)


def expand_ranges_arr(
    ranges: Iterable[NybbleRange], *, limit: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Column-native :func:`repro.datasets.rangelist.expand_ranges`.

    Same contract as the scalar version: distinct addresses, ranges
    expanded in the given order (each ascending internally), optionally
    capped at ``limit`` total.  Only ranges that overlap another range
    in the list pay for dedupe tracking — pairwise-disjoint ranges
    cannot repeat an address, exactly mirroring the scalar code's
    ``seen``-set gating, so the emitted sequence is bit-identical.

    One divergence in *cost* (not output): a tracked range is expanded
    fully before the cap is applied, where the scalar generator stops
    mid-iteration.  6Gen cluster lists are budget-bounded, so this does
    not matter in practice.
    """
    range_list = list(ranges)
    overlapping = [
        any(
            i != j and range_.overlaps(other)
            for j, other in enumerate(range_list)
        )
        for i, range_ in enumerate(range_list)
    ]
    dedupe = ColumnDeduper()
    parts_hi: list[np.ndarray] = []
    parts_lo: list[np.ndarray] = []
    emitted = 0
    for range_, tracked in zip(range_list, overlapping):
        remaining = None if limit is None else limit - emitted
        if remaining is not None and remaining <= 0:
            break
        hi, lo = expand_range_arr(
            range_, limit=None if tracked else remaining
        )
        if tracked:
            hi, lo = dedupe.add(hi, lo)
            if remaining is not None and len(hi) > remaining:
                hi, lo = hi[:remaining], lo[:remaining]
        if len(hi):
            parts_hi.append(hi)
            parts_lo.append(lo)
            emitted += len(hi)
    if not parts_hi:
        empty = np.empty(0, dtype=np.uint64)
        return empty, empty
    return np.concatenate(parts_hi), np.concatenate(parts_lo)


def spanning_range(addrs: Iterable[int], loose: bool = True) -> NybbleRange:
    """Smallest range (of the given granularity) covering all addresses."""
    it = iter(addrs)
    try:
        first = next(it)
    except StopIteration:
        raise RangeError("spanning_range needs at least one address") from None
    rng = NybbleRange.from_address(int(first))
    for addr in it:
        rng = rng.span(int(addr), loose=loose)
    return rng
