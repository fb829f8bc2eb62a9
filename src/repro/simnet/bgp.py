"""BGP routing-table substrate: routed prefixes and longest-prefix match.

Stands in for the CAIDA RouteViews prefix-to-AS mapping the paper uses
to group seeds "by BGP origin routed prefix" (§6.1).  Lookups are
longest-prefix match over a per-length hash index, so a full-table
lookup costs one dictionary probe per distinct prefix length present.

Column batches (:meth:`BgpTable.origin_asn_columns`) run the same
match over packed ``(hi, lo)`` address columns: one masked-key search
per route length, longest first.

The paper notes (§4.2) that some routed prefixes are longer than
64 bits despite RFC 4291; the table imposes no such limit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..ipv6.addrplane import fuse, mask_columns, pack
from ..ipv6.prefix import Prefix, network_mask


@dataclass(frozen=True)
class Route:
    """One routing-table entry: a routed prefix originated by an AS."""

    prefix: Prefix
    asn: int

    def __str__(self) -> str:
        return f"{self.prefix} -> AS{self.asn}"


class BgpTable:
    """Longest-prefix-match table from prefixes to origin ASNs."""

    def __init__(self, routes: Iterable[Route] = ()) -> None:
        # _index[length][network_int] = Route
        self._index: dict[int, dict[int, Route]] = defaultdict(dict)
        self._lengths: list[int] = []  # descending, maintained on insert
        self._count = 0
        # Per-length sorted network keys for column lookups; built on
        # first use, dropped by add().
        self._columns: list[tuple] | None = None
        for route in routes:
            self.add(route)

    def add(self, route: Route) -> None:
        """Insert a route; replacing an existing identical prefix is an error."""
        bucket = self._index[route.prefix.length]
        if route.prefix.network in bucket:
            raise ValueError(f"duplicate route for {route.prefix}")
        bucket[route.prefix.network] = route
        self._count += 1
        self._columns = None
        if route.prefix.length not in self._lengths:
            self._lengths.append(route.prefix.length)
            self._lengths.sort(reverse=True)

    def add_route(self, prefix: Prefix, asn: int) -> Route:
        route = Route(prefix, asn)
        self.add(route)
        return route

    def lookup(self, addr: int) -> Route | None:
        """Longest-prefix match for an address, or ``None`` if unrouted."""
        value = int(addr)
        for length in self._lengths:
            network = value & network_mask(length)
            route = self._index[length].get(network)
            if route is not None:
                return route
        return None

    def origin_asn(self, addr: int) -> int | None:
        route = self.lookup(addr)
        return route.asn if route else None

    def _column_index(self) -> list[tuple]:
        """``(mask hi, mask lo, sorted network keys, ASNs)``, longest first."""
        if self._columns is None:
            index = []
            for length in self._lengths:
                bucket = self._index[length]
                networks = sorted(bucket)
                asns = np.array(
                    [bucket[network].asn for network in networks], dtype=np.int64
                )
                index.append((*mask_columns(length), fuse(*pack(networks)), asns))
            self._columns = index
        return self._columns

    def origin_asn_columns(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """:meth:`origin_asn` over address columns; -1 where unrouted.

        Masks the still-unmatched rows to each route length, longest
        first, and searches that length's sorted network keys; the
        first length that matches gives the longest-prefix route.
        """
        asn = np.full(len(hi), -1, dtype=np.int64)
        pending = np.arange(len(hi))
        for mask_hi, mask_lo, keys, asns in self._column_index():
            if not len(pending):
                break
            query = fuse(hi[pending] & mask_hi, lo[pending] & mask_lo)
            pos = np.searchsorted(keys, query)
            pos[pos == len(keys)] = 0
            found = keys[pos] == query
            asn[pending[found]] = asns[pos[found]]
            pending = pending[~found]
        return asn

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Route]:
        for length in self._lengths:
            yield from self._index[length].values()

    def routes(self) -> list[Route]:
        return sorted(self, key=lambda r: (r.prefix.network, r.prefix.length))

    def asns(self) -> set[int]:
        return {route.asn for route in self}


def group_by_routed_prefix(
    addrs: Sequence[int] | Iterable[int], table: BgpTable
) -> dict[Prefix, list[int]]:
    """Group addresses by their routed prefix (paper §6.1 grouping).

    Addresses that match no route are dropped, mirroring the paper's
    restriction to seeds inside routed space.
    """
    groups: dict[Prefix, list[int]] = defaultdict(list)
    for addr in addrs:
        route = table.lookup(int(addr))
        if route is not None:
            groups[route.prefix].append(int(addr))
    return dict(groups)


def group_by_asn(
    addrs: Sequence[int] | Iterable[int], table: BgpTable
) -> dict[int, list[int]]:
    """Group addresses by origin AS (used for Table 1 / Figure 3)."""
    groups: dict[int, list[int]] = defaultdict(list)
    for addr in addrs:
        asn = table.origin_asn(int(addr))
        if asn is not None:
            groups[asn].append(int(addr))
    return dict(groups)
