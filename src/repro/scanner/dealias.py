"""Aliased-prefix detection and hit filtering (paper §6.2).

The paper's best-effort dealiasing: for every /96 prefix containing a
responsive target, probe three random addresses in the prefix with
three TCP SYNs each; if all three addresses respond, the prefix is
aliased (the chance of three random picks all hitting real hosts in a
non-aliased /96 is negligible — below 1e-10 even with a million hosts
in the prefix).

Because /96 probing cannot see finer-grained aliasing, the paper then
manually inspected the top-10 ASes of the remaining hits and found two
(Cloudflare, Mittwald) aliased at /112.  :func:`as_level_inspection`
automates that step: it re-runs the random-probe test at /112 inside
the top ASes and excludes ASes where most hit-/112s test aliased.

Hits stay packed ``(hi, lo)`` address columns
(:mod:`repro.ipv6.addrplane`) from the /96 grouping through the AS
step.  Grouping masks the columns to /length and sorts them once; for
one length that order is ``sorted(Prefix)`` order.  Each prefix draws
its sample addresses from a generator seeded by a pure function of
``(rng_seed, prefix)`` — never from a stream shared across prefixes —
and all samples go through one :meth:`Scanner.probe_columns` call,
whose verdicts are pure functions of address and attempt.  A verdict
therefore depends on neither test order nor batch composition.

The per-hit functions at the end of the module
(:func:`group_hits_by_prefix`, :func:`is_prefix_aliased`,
:func:`split_hits` and :func:`reference_dealias`) are the readable
reference oracle the parity suite checks the column path against; no
production path calls them.
"""

from __future__ import annotations

import random
from collections import defaultdict
from collections.abc import Set
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

from ..ipv6.addrplane import (
    _mix64_np,
    concat_columns,
    dedupe_columns,
    is_columns,
    mask_columns,
    pack,
    unpack,
)
from ..ipv6.prefix import Prefix
from ..simnet.bgp import BgpTable, group_by_asn
from ..telemetry.spans import Telemetry, ensure
from .engine import Scanner
from .probe import DEFAULT_PORT
from .schedule import mix64

_M64 = (1 << 64) - 1
_NO_ROWS = np.empty(0, dtype=np.uint64)


def _base_key(rng_seed: int | None) -> int:
    """One 64-bit key per pipeline run, derived the same way everywhere."""
    return random.Random(rng_seed).getrandbits(64)


def _derived_seed(base_key: int, prefix: Prefix) -> int:
    """Deterministic per-prefix RNG seed: a pure function of the prefix."""
    h = mix64(base_key ^ (prefix.network & _M64))
    h = mix64(h ^ (prefix.network >> 64) ^ prefix.length)
    return h


def _columns(hits) -> tuple[np.ndarray, np.ndarray]:
    """Hits as packed columns: columns pass through, ints are packed."""
    return hits if is_columns(hits) else pack(hits)


def group_columns(
    hi: np.ndarray, lo: np.ndarray, length: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct /length networks of address columns, and each row's.

    Returns ``(net_hi, net_lo, inverse)``: the networks in ascending
    order, which for one length is ``sorted(Prefix)`` order, and per
    input row the index of its network.  A lexsort of the masked
    uint64 halves gives what ``np.unique(..., return_inverse=True)``
    gives on fused keys, without 16-byte compares.
    """
    mask_hi, mask_lo = mask_columns(length)
    key_hi, key_lo = hi & mask_hi, lo & mask_lo
    order = np.lexsort((key_lo, key_hi))
    key_hi, key_lo = key_hi[order], key_lo[order]
    start = np.ones(len(order), dtype=bool)
    start[1:] = (key_hi[1:] != key_hi[:-1]) | (key_lo[1:] != key_lo[:-1])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(start) - 1
    return key_hi[start], key_lo[start], inverse


def _sample_columns(
    net_hi: np.ndarray,
    net_lo: np.ndarray,
    length: int,
    base_key: int,
    sample_addrs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``sample_addrs`` random addresses per network row, row by row.

    The draws are :meth:`Prefix.random_address`'s under
    ``random.Random(_derived_seed(base_key, prefix))``.  The seeds come
    from ``_mix64_np`` over the columns; one generator is re-seeded per
    prefix through the C-level ``seed``, which sets exactly the state
    ``random.Random(seed)`` starts in.  The loop is the cost floor of a
    bit-identical test: about 7 µs per prefix, nearly all of it seeding.
    """
    seeds = _mix64_np(
        _mix64_np(np.uint64(base_key) ^ net_lo) ^ net_hi ^ np.uint64(length)
    )
    bits = 128 - length
    rng = random.Random()
    reseed = super(random.Random, rng).seed
    draw = rng.getrandbits
    offsets: list[int] = []
    extend = offsets.extend
    for seed in seeds.tolist():
        reseed(seed)
        extend(map(draw, repeat(bits, sample_addrs)))
    hi = np.repeat(net_hi, sample_addrs)
    lo = np.repeat(net_lo, sample_addrs)
    if bits <= 64:
        lo |= np.array(offsets, dtype=np.uint64)
    else:
        off_hi, off_lo = pack(offsets)
        hi |= off_hi
        lo |= off_lo
    return hi, lo


def _alias_tests(
    net_hi: np.ndarray,
    net_lo: np.ndarray,
    length: int,
    scanner: Scanner,
    *,
    rng_seed: int | None,
    sample_addrs: int,
    probes_per_addr: int,
    port: int,
) -> np.ndarray:
    """The random-probe verdict of every network row, in one probe call.

    A prefix is aliased iff every one of its samples answers within
    ``probes_per_addr`` attempts.
    """
    hi, lo = _sample_columns(
        net_hi, net_lo, length, _base_key(rng_seed), sample_addrs
    )
    flags = scanner.probe_columns(hi, lo, port, attempts=probes_per_addr)
    return flags.reshape(len(net_hi), sample_addrs).all(axis=1)


class PrefixSet(Set):
    """A read-only set of same-length prefixes held as network columns.

    ``hi`` and ``lo`` hold the networks in ascending order.  ``len``
    and ``in`` read the columns; iterating boxes :class:`Prefix`
    objects on demand, so a pass that only counts prefixes builds none.
    Set operators return plain ``set`` objects.
    """

    __slots__ = ("length", "hi", "lo")

    def __init__(
        self,
        length: int = 96,
        hi: np.ndarray = _NO_ROWS,
        lo: np.ndarray = _NO_ROWS,
    ):
        self.length = length
        self.hi = hi
        self.lo = lo

    @classmethod
    def _from_iterable(cls, iterable) -> set:
        return set(iterable)

    def __len__(self) -> int:
        return len(self.hi)

    def __iter__(self) -> Iterator[Prefix]:
        for network in unpack(self.hi, self.lo):
            yield Prefix(network, self.length)

    def __contains__(self, prefix) -> bool:
        if not isinstance(prefix, Prefix) or prefix.length != self.length:
            return False
        hi = np.uint64(prefix.network >> 64)
        start = np.searchsorted(self.hi, hi, side="left")
        stop = np.searchsorted(self.hi, hi, side="right")
        return bool((self.lo[start:stop] == np.uint64(prefix.network & _M64)).any())

    def __repr__(self) -> str:
        return f"PrefixSet(/{self.length}, {len(self)} prefixes)"


class AliasedPrefixes(PrefixSet):
    """What one random-probe pass over hit columns found.

    The set holds the prefixes that tested aliased.  ``hit_mask`` flags
    each input hit row that lies inside one of them, and ``tested``
    counts the hit-holding prefixes the pass tested.
    """

    __slots__ = ("hit_mask", "tested")

    def __init__(self, length, hi, lo, *, hit_mask: np.ndarray, tested: int):
        super().__init__(length, hi, lo)
        self.hit_mask = hit_mask
        self.tested = tested


def detect_aliased_prefixes(
    hits,
    scanner: Scanner,
    *,
    length: int = 96,
    sample_addrs: int = 3,
    probes_per_addr: int = 3,
    port: int = DEFAULT_PORT,
    rng_seed: int | None = 0,
    telemetry: Telemetry | None = None,
) -> AliasedPrefixes:
    """All hit-containing /length prefixes that test as aliased.

    ``hits`` are ints or packed ``(hi, lo)`` columns.  Prefixes are
    tested in ascending order with per-prefix derived RNGs, so the
    result is a pure function of ``(hits, rng_seed)`` and the scanner
    — identical with telemetry on or off (verdict RNGs derive from the
    prefix, never from the observer).
    """
    tele = ensure(telemetry)
    hi, lo = _columns(hits)
    net_hi, net_lo, inverse = group_columns(hi, lo, length)
    probes_before = scanner.total_probes
    with tele.span("alias_detect", length=length, prefixes=len(net_hi)):
        flags = _alias_tests(
            net_hi, net_lo, length, scanner,
            rng_seed=rng_seed,
            sample_addrs=sample_addrs,
            probes_per_addr=probes_per_addr,
            port=port,
        )
    aliased = AliasedPrefixes(
        length, net_hi[flags], net_lo[flags],
        hit_mask=flags[inverse], tested=len(net_hi),
    )
    if tele.enabled:
        tele.count("dealias.prefixes_tested", len(net_hi))
        tele.count("dealias.aliased_prefixes", len(aliased))
        tele.count("dealias.probes", scanner.total_probes - probes_before)
    return aliased


def as_level_inspection(
    clean_hits,
    bgp: BgpTable,
    scanner: Scanner,
    *,
    top_k: int = 10,
    length: int = 112,
    aliased_fraction: float = 0.5,
    port: int = DEFAULT_PORT,
    rng_seed: int | None = 1,
    telemetry: Telemetry | None = None,
) -> set[int]:
    """Find ASes aliased at a finer granularity than /96 (§6.2's manual step).

    ``clean_hits`` are ints or packed ``(hi, lo)`` columns.  ASes are
    ranked by remaining hits, most first and ties to the lower ASN, so
    the choice never depends on input order.  For each of the
    ``top_k``, every hit-containing /length prefix gets the
    random-probe test, all of them in one probe call; an AS is flagged
    when more than ``aliased_fraction`` of its hits sit in prefixes
    that test aliased.
    """
    tele = ensure(telemetry)
    hi, lo = _columns(clean_hits)
    origin = bgp.origin_asn_columns(hi, lo)
    asns, totals = np.unique(origin[origin >= 0], return_counts=True)
    top = np.lexsort((asns, -totals))[:top_k]
    top_ases, top_totals = asns[top].tolist(), totals[top].tolist()
    groups = []
    for asn in top_ases:
        rows = origin == asn
        groups.append(group_columns(hi[rows], lo[rows], length))
    net_hi, net_lo = concat_columns([(g_hi, g_lo) for g_hi, g_lo, _ in groups])
    with tele.span("as_inspection", ases=len(top_ases), prefixes=len(net_hi)):
        flags = _alias_tests(
            net_hi, net_lo, length, scanner,
            rng_seed=rng_seed, sample_addrs=3, probes_per_addr=3, port=port,
        )
    if tele.enabled:
        tele.count("dealias.as_prefixes_tested", len(net_hi))
    # Weight by hits, not by prefix count: an AS whose hits
    # overwhelmingly sit inside aliased sub-prefixes is flagged even
    # if it also has a few genuine host prefixes.
    flagged_asns: set[int] = set()
    start = 0
    for asn, total, (g_hi, _, inverse) in zip(top_ases, top_totals, groups):
        aliased = int(flags[start : start + len(g_hi)][inverse].sum())
        start += len(g_hi)
        if aliased / total > aliased_fraction:
            flagged_asns.add(asn)
    if tele.enabled:
        tele.count("dealias.aliased_asns", len(flagged_asns))
    return flagged_asns


@dataclass
class AliasedSummary:
    """Aggregation of detected aliased prefixes (paper §6.2 reporting).

    The paper collapses its 10.0 M aliased /96s to "205 routed prefixes
    in 138 ASes"; this mirrors that roll-up.
    """

    aliased_prefix_count: int
    routed_prefixes: set[Prefix] = field(default_factory=set)
    asns: set[int] = field(default_factory=set)


def summarize_aliased_prefixes(
    aliased_prefixes: Iterable[Prefix], bgp: BgpTable
) -> AliasedSummary:
    """Collapse detected aliased prefixes to routed prefixes and ASes."""
    summary = AliasedSummary(aliased_prefix_count=0)
    for prefix in aliased_prefixes:
        summary.aliased_prefix_count += 1
        route = bgp.lookup(prefix.network)
        if route is not None:
            summary.routed_prefixes.add(route.prefix)
            summary.asns.add(route.asn)
    return summary


@dataclass
class DealiasReport:
    """Full §6.2 dealiasing outcome for one hit set.

    ``aliased_prefixes`` is a set of :class:`Prefix`; :func:`dealias`
    stores a column-backed :class:`PrefixSet` that boxes only when
    read.  ``prefixes_tested`` counts the hit-holding /length prefixes
    the random-probe pass tested.
    """

    aliased_prefixes: Set[Prefix] = field(default_factory=PrefixSet)
    aliased_asns: set[int] = field(default_factory=set)
    aliased_hits: set[int] = field(default_factory=set)
    clean_hits: set[int] = field(default_factory=set)
    prefixes_tested: int = 0

    @property
    def total_hits(self) -> int:
        return len(self.aliased_hits) + len(self.clean_hits)

    def aliased_fraction(self) -> float:
        """Fraction of raw hits in aliased space (the paper's 98 %)."""
        total = self.total_hits
        return len(self.aliased_hits) / total if total else 0.0


def _emit_summary(tele: Telemetry, report: DealiasReport) -> None:
    if tele.enabled:
        tele.count("dealias.hits_in", report.total_hits)
        tele.count("dealias.aliased_hits", len(report.aliased_hits))
        tele.count("dealias.clean_hits", len(report.clean_hits))
        tele.event(
            "dealias_summary",
            {
                "hits_in": report.total_hits,
                "aliased_prefixes": len(report.aliased_prefixes),
                "aliased_asns": sorted(report.aliased_asns),
                "aliased_hits": len(report.aliased_hits),
                "clean_hits": len(report.clean_hits),
                "aliased_fraction": round(report.aliased_fraction(), 6),
            },
        )


def _distinct_hits(hits) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Hits as distinct ``(hi, lo)`` columns.

    For int input the third item holds the same hits as Python ints in
    an object array, aligned with the columns, so the report's sets
    are built without re-joining the halves; it is ``None`` for column
    input.  A set is distinct already and is not deduplicated again.
    """
    if is_columns(hits):
        return (*dedupe_columns(*hits), None)
    values = list(hits)
    if values and not isinstance(values[0], int):
        values = [int(v) for v in values]
    if not isinstance(hits, (set, frozenset)):
        values = list(dict.fromkeys(values))
    return (*pack(values), np.array(values, dtype=object))


def _boxed(hi, lo, values, mask: np.ndarray) -> set[int]:
    if values is not None:
        return set(values[mask])
    return set(unpack(hi[mask], lo[mask]))


def dealias(
    hits,
    scanner: Scanner,
    bgp: BgpTable | None = None,
    *,
    length: int = 96,
    as_inspection: bool = True,
    port: int = DEFAULT_PORT,
    rng_seed: int | None = 0,
    telemetry: Telemetry | None = None,
) -> DealiasReport:
    """Run the full dealiasing pipeline: /length detection + AS inspection.

    ``hits`` are ints or packed ``(hi, lo)`` columns, deduplicated once
    here.  They stay columns through both stages; only the report's
    two hit sets are boxed.
    """
    tele = ensure(telemetry)
    hi, lo, values = _distinct_hits(hits)
    with tele.span("dealias", hits=len(hi)):
        aliased = detect_aliased_prefixes(
            (hi, lo), scanner, length=length, port=port, rng_seed=rng_seed,
            telemetry=tele,
        )
        in_aliased = aliased.hit_mask
        aliased_asns: set[int] = set()
        if as_inspection and bgp is not None and not in_aliased.all():
            clean = np.flatnonzero(~in_aliased)
            aliased_asns = as_level_inspection(
                (hi[clean], lo[clean]), bgp, scanner, port=port,
                rng_seed=rng_seed, telemetry=tele,
            )
            if aliased_asns:
                asn = bgp.origin_asn_columns(hi[clean], lo[clean])
                moved = clean[np.isin(asn, sorted(aliased_asns))]
                in_aliased = in_aliased.copy()
                in_aliased[moved] = True
                tele.count("dealias.hits_moved_by_as_inspection", len(moved))
    report = DealiasReport(
        aliased_prefixes=PrefixSet(length, aliased.hi, aliased.lo),
        aliased_asns=aliased_asns,
        aliased_hits=_boxed(hi, lo, values, in_aliased),
        clean_hits=_boxed(hi, lo, values, ~in_aliased),
        prefixes_tested=aliased.tested,
    )
    _emit_summary(tele, report)
    return report


# -- reference oracle --------------------------------------------------------
#
# The per-hit pipeline the column path replaced: boxed prefixes, one
# test per prefix.  Same verdicts, report, probe total and telemetry as
# the column path; the parity suite and the census benchmark compare
# the two.


def group_hits_by_prefix(hits: Iterable[int], length: int = 96) -> dict[Prefix, list[int]]:
    """Group responsive addresses by their containing /length prefix."""
    groups: dict[Prefix, list[int]] = defaultdict(list)
    for addr in hits:
        groups[Prefix.containing(int(addr), length)].append(int(addr))
    return dict(groups)


def is_prefix_aliased(
    prefix: Prefix,
    scanner: Scanner,
    rng: random.Random,
    *,
    sample_addrs: int = 3,
    probes_per_addr: int = 3,
    port: int = DEFAULT_PORT,
) -> bool:
    """The paper's random-probe aliasing test for one prefix.

    Draws ``sample_addrs`` random addresses in the prefix and sends up
    to ``probes_per_addr`` probes to each; the prefix is aliased iff
    every sampled address answers at least once.
    """
    addrs = [prefix.random_address(rng).value for _ in range(sample_addrs)]
    return all(scanner.probe_many(addrs, port, attempts=probes_per_addr))


def split_hits(
    hits: Iterable[int], aliased_prefixes: Set[Prefix]
) -> tuple[set[int], set[int]]:
    """Partition hits into (aliased, clean) by the detected prefixes."""
    by_length: dict[int, set[int]] = defaultdict(set)
    for prefix in aliased_prefixes:
        by_length[prefix.length].add(prefix.network)
    aliased_hits: set[int] = set()
    clean_hits: set[int] = set()
    for addr in hits:
        value = int(addr)
        in_aliased = any(
            Prefix.containing(value, length).network in networks
            for length, networks in by_length.items()
        )
        (aliased_hits if in_aliased else clean_hits).add(value)
    return aliased_hits, clean_hits


def reference_dealias(
    hits: Iterable[int],
    scanner: Scanner,
    bgp: BgpTable | None = None,
    *,
    length: int = 96,
    as_inspection: bool = True,
    port: int = DEFAULT_PORT,
    rng_seed: int | None = 0,
    telemetry: Telemetry | None = None,
) -> DealiasReport:
    """Per-hit oracle for :func:`dealias`: the same report, probes and telemetry.

    The AS step runs with :func:`as_level_inspection`'s defaults (top
    10 ASes, /112, more than half of an AS's hits), as ``dealias`` does.
    """
    tele = ensure(telemetry)
    base = _base_key(rng_seed)

    def tests_aliased(prefix: Prefix) -> bool:
        rng = random.Random(_derived_seed(base, prefix))
        return is_prefix_aliased(prefix, scanner, rng, port=port)

    hit_set = {int(h) for h in hits}
    with tele.span("dealias", hits=len(hit_set)):
        prefixes = sorted(group_hits_by_prefix(hit_set, length))
        probes_before = scanner.total_probes
        with tele.span("alias_detect", length=length, prefixes=len(prefixes)):
            aliased_prefixes = {p for p in prefixes if tests_aliased(p)}
        if tele.enabled:
            tele.count("dealias.prefixes_tested", len(prefixes))
            tele.count("dealias.aliased_prefixes", len(aliased_prefixes))
            tele.count("dealias.probes", scanner.total_probes - probes_before)
        aliased_hits, clean_hits = split_hits(hit_set, aliased_prefixes)
        aliased_asns: set[int] = set()
        if as_inspection and bgp is not None and clean_hits:
            by_asn = group_by_asn(clean_hits, bgp)
            top_ases = sorted(by_asn, key=lambda a: (-len(by_asn[a]), a))[:10]
            tests = [
                (asn, prefix, len(addrs))
                for asn in top_ases
                for prefix, addrs in sorted(
                    group_hits_by_prefix(by_asn[asn], 112).items()
                )
            ]
            with tele.span("as_inspection", ases=len(top_ases), prefixes=len(tests)):
                flags = [tests_aliased(prefix) for _, prefix, _ in tests]
            aliased_by_asn: dict[int, int] = defaultdict(int)
            for (asn, _, addr_count), flagged in zip(tests, flags):
                if flagged:
                    aliased_by_asn[asn] += addr_count
            aliased_asns = {
                asn for asn in top_ases
                if aliased_by_asn[asn] / len(by_asn[asn]) > 0.5
            }
            if tele.enabled:
                tele.count("dealias.as_prefixes_tested", len(tests))
                tele.count("dealias.aliased_asns", len(aliased_asns))
            if aliased_asns:
                moved = {
                    addr for addr in clean_hits
                    if bgp.origin_asn(addr) in aliased_asns
                }
                clean_hits -= moved
                aliased_hits |= moved
                tele.count("dealias.hits_moved_by_as_inspection", len(moved))
    report = DealiasReport(
        aliased_prefixes=aliased_prefixes,
        aliased_asns=aliased_asns,
        aliased_hits=aliased_hits,
        clean_hits=clean_hits,
        prefixes_tested=len(prefixes),
    )
    _emit_summary(tele, report)
    return report
