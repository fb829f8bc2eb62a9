"""Scan blacklist: opt-out prefixes the scanner must never probe.

The paper follows the ZMap ethical-scanning guidelines and honours all
opt-out requests (§6); this module is the enforcement point.  The
simulated scanner consults the blacklist before every probe, and the
tests inject blacklist entries to verify nothing leaks through.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from collections import defaultdict

from ..ipv6.prefix import Prefix, network_mask

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..ipv6.addrplane import PrefixMaskTable


class Blacklist:
    """A set of never-probe prefixes with fast membership checks."""

    def __init__(self, prefixes: Iterable[Prefix] = ()) -> None:
        self._by_length: dict[int, set[int]] = defaultdict(set)
        self._lengths: list[int] = []
        self._count = 0
        self._frozen: "PrefixMaskTable | None" = None
        for prefix in prefixes:
            self.add(prefix)

    def add(self, prefix: Prefix) -> None:
        bucket = self._by_length[prefix.length]
        if prefix.network not in bucket:
            bucket.add(prefix.network)
            self._count += 1
            self._frozen = None
            if prefix.length not in self._lengths:
                self._lengths.append(prefix.length)
                self._lengths.sort()

    def add_address(self, addr: int) -> None:
        """Blacklist a single address (a /128 entry)."""
        self.add(Prefix(int(addr), 128))

    def contains(self, addr: int) -> bool:
        value = int(addr)
        for length in self._lengths:
            if value & network_mask(length) in self._by_length[length]:
                return True
        return False

    def contains_many(self, addrs: Sequence[int]) -> list[bool]:
        """Batched :meth:`contains` for the chunked scan path.

        One pass per prefix length over the still-unmatched addresses,
        instead of one method call (and mask rebuild) per address.
        """
        if not self._count:
            return [False] * len(addrs)
        lengths = iter(self._lengths)
        first = next(lengths)
        mask = network_mask(first)
        bucket = self._by_length[first]
        flags = [int(a) & mask in bucket for a in addrs]
        for length in lengths:
            mask = network_mask(length)
            bucket = self._by_length[length]
            for i, flagged in enumerate(flags):
                if not flagged and int(addrs[i]) & mask in bucket:
                    flags[i] = True
        return flags

    def frozen_table(self) -> "PrefixMaskTable | None":
        """The blacklist as a frozen mask table, memoised until :meth:`add`.

        ``None`` when empty.  The table's arrays are immutable
        snapshots.
        """
        if not self._count:
            return None
        if self._frozen is None:
            from ..ipv6.addrplane import PrefixMaskTable

            self._frozen = PrefixMaskTable.from_networks(
                {length: self._by_length[length] for length in self._lengths}
            )
        return self._frozen

    def contains_arr(self, hi: "np.ndarray", lo: "np.ndarray") -> "np.ndarray":
        """Array-native :meth:`contains_many` over hi/lo uint64 columns."""
        table = self.frozen_table()
        if table is None:
            import numpy as np

            return np.zeros(len(hi), dtype=bool)
        return table.match_any(hi, lo)

    def __contains__(self, addr) -> bool:
        return self.contains(int(addr))

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def prefixes(self) -> Iterator[Prefix]:
        for length in sorted(self._by_length):
            for network in sorted(self._by_length[length]):
                yield Prefix(network, length)

    @classmethod
    def parse_lines(cls, lines: Iterable[str]) -> "Blacklist":
        """Build from text lines (one CIDR per line, # comments allowed)."""
        blacklist = cls()
        for line in lines:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "/" not in line:
                line += "/128"
            blacklist.add(Prefix.parse(line))
        return blacklist
