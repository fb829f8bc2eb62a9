"""Aliased-region model (paper §6.2).

The paper's key measurement finding: in several large networks *every*
address of an enormous prefix answers TCP/80 probes — e.g. a fully
responsive Akamai /56 — so responsive addresses stop corresponding to
distinct hosts.  An :class:`AliasedRegion` models one such prefix: all
of its addresses respond on the configured ports regardless of any host
list.  The set type gives the ground truth (and the dealiasing tests)
fast membership checks via per-length indexing, like the BGP table.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from ..ipv6.prefix import Prefix, network_mask

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..ipv6.addrplane import PrefixMaskTable


@dataclass(frozen=True)
class AliasedRegion:
    """A fully responsive prefix: every contained address answers."""

    prefix: Prefix
    ports: frozenset[int] = frozenset({80})

    def responds(self, addr: int, port: int) -> bool:
        return port in self.ports and self.prefix.contains(addr)

    def __str__(self) -> str:
        ports = ",".join(str(p) for p in sorted(self.ports))
        return f"AliasedRegion({self.prefix}, ports={ports})"


#: Entries kept in the per-/64 decision cache before it is reset.
_CACHE_LIMIT = 1 << 16


@dataclass
class AliasedRegionSet:
    """Indexed collection of aliased regions for fast membership tests.

    Lengths are checked shortest-first, so :meth:`find` returns the
    *shortest* containing region when regions nest (e.g. an aliased /56
    carved around an aliased /96).  The batched lookup
    (:meth:`responds_many`) additionally caches the ≤/64 part of each
    decision per /64 block: target streams from 6Gen
    are locality-heavy (cluster ranges vary low nybbles), so successive
    addresses usually share a /64 and skip the per-length walk.
    """

    _by_length: dict[int, dict[int, AliasedRegion]] = field(
        default_factory=lambda: defaultdict(dict)
    )
    _lengths: list[int] = field(default_factory=list)
    #: /64 network -> tuple of containing regions with length <= 64
    #: (shortest first); invalidated on every mutation.
    _short_cache: dict[int, tuple[AliasedRegion, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: port -> frozen mask table for the array scan plane; invalidated
    #: on every mutation.
    _frozen_tables: dict = field(default_factory=dict, repr=False, compare=False)
    #: Monotone mutation counter (see ``GroundTruth.world_version``).
    _version: int = field(default=0, repr=False, compare=False)

    @property
    def version(self) -> int:
        return self._version

    def _invalidate(self) -> None:
        self._short_cache.clear()
        self._frozen_tables.clear()
        self._version += 1

    def add(self, region: AliasedRegion) -> None:
        bucket = self._by_length[region.prefix.length]
        if region.prefix.network in bucket:
            raise ValueError(f"duplicate aliased region {region.prefix}")
        bucket[region.prefix.network] = region
        if region.prefix.length not in self._lengths:
            self._lengths.append(region.prefix.length)
            self._lengths.sort()
        self._invalidate()

    def remove(self, region: AliasedRegion) -> None:
        """Delete a region (an aliased prefix going dark under churn).

        Invalidates the per-/64 decision cache and the frozen mask
        tables like :meth:`add` — the two memos that would otherwise
        keep answering for a region that no longer exists.
        """
        bucket = self._by_length.get(region.prefix.length)
        if bucket is None or region.prefix.network not in bucket:
            raise KeyError(f"no aliased region {region.prefix}")
        del bucket[region.prefix.network]
        if not bucket:
            del self._by_length[region.prefix.length]
            self._lengths.remove(region.prefix.length)
        self._invalidate()

    def add_prefix(self, prefix: Prefix, ports: Iterable[int] = (80,)) -> AliasedRegion:
        region = AliasedRegion(prefix, frozenset(ports))
        self.add(region)
        return region

    def find(self, addr: int) -> AliasedRegion | None:
        """The (shortest-prefix) aliased region containing the address."""
        value = int(addr)
        for length in self._lengths:
            network = value & network_mask(length)
            region = self._by_length[length].get(network)
            if region is not None:
                return region
        return None

    def responds(self, addr: int, port: int) -> bool:
        value = int(addr)
        for length in self._lengths:
            network = value & network_mask(length)
            region = self._by_length[length].get(network)
            if region is not None and port in region.ports:
                return True
        return False

    # -- batched lookups ----------------------------------------------------
    def _short_regions(self, value: int) -> tuple[AliasedRegion, ...]:
        """All ≤/64 regions containing ``value``, cached per /64 block."""
        key = value >> 64
        cached = self._short_cache.get(key)
        if cached is None:
            found = []
            for length in self._lengths:
                if length > 64:
                    break
                region = self._by_length[length].get(value & network_mask(length))
                if region is not None:
                    found.append(region)
            if len(self._short_cache) >= _CACHE_LIMIT:
                self._short_cache.clear()
            cached = tuple(found)
            self._short_cache[key] = cached
        return cached

    def _long_index(self) -> list[tuple[int, dict[int, AliasedRegion]]]:
        return [
            (network_mask(length), self._by_length[length])
            for length in self._lengths
            if length > 64
        ]

    def responds_many(self, addrs: Iterable[int], port: int) -> list[bool]:
        """Batched :meth:`responds` for the chunked scan path."""
        addrs = [int(a) for a in addrs]
        if not self._lengths:
            return [False] * len(addrs)
        long_index = self._long_index()
        out = []
        for value in addrs:
            hit = any(port in r.ports for r in self._short_regions(value))
            if not hit:
                for mask, bucket in long_index:
                    region = bucket.get(value & mask)
                    if region is not None and port in region.ports:
                        hit = True
                        break
            out.append(hit)
        return out

    # -- array plane --------------------------------------------------------
    def frozen_table(self, port: int) -> "PrefixMaskTable | None":
        """Regions answering ``port`` as a frozen mask table.

        Tables are memoised per port until the next :meth:`add`;
        ``None`` is returned when no region qualifies.
        """
        port = int(port)
        if port in self._frozen_tables:
            return self._frozen_tables[port]
        networks: dict[int, list[int]] = {}
        for length in self._lengths:
            matching = [
                network
                for network, region in self._by_length[length].items()
                if port in region.ports
            ]
            if matching:
                networks[length] = matching
        if networks:
            from ..ipv6.addrplane import PrefixMaskTable

            table = PrefixMaskTable.from_networks(networks)
        else:
            table = None
        self._frozen_tables[port] = table
        return table

    def responds_arr(
        self, hi: "np.ndarray", lo: "np.ndarray", port: int
    ) -> "np.ndarray":
        """Array-native :meth:`responds_many` over hi/lo uint64 columns."""
        table = self.frozen_table(port)
        if table is None:
            import numpy as np

            return np.zeros(len(hi), dtype=bool)
        return table.match_any(hi, lo)

    def __iter__(self) -> Iterator[AliasedRegion]:
        for length in self._lengths:
            yield from self._by_length[length].values()

    def __len__(self) -> int:
        return sum(len(b) for b in self._by_length.values())

    def __bool__(self) -> bool:
        return len(self) > 0
