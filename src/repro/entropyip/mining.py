"""Per-segment value mining (Entropy/IP stage 3).

For each segment, Entropy/IP clusters the observed values "along
several metrics" (paper §3.3): heavy-hitter single values become atoms
of their own, and the remaining long tail is grouped into contiguous
value *ranges* (a one-dimensional density clustering, equivalent to
splitting the sorted values at large gaps).  Each atom carries its
empirical probability; range atoms model their interior uniformly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .segments import Segment


@dataclass(frozen=True)
class ValueAtom:
    """One modelled outcome for a segment: an exact value or a value range.

    ``low == high`` encodes an exact frequent value; otherwise the atom
    is a range and concrete values are drawn uniformly from
    ``[low, high]`` at generation time.
    """

    low: int
    high: int

    @property
    def is_exact(self) -> bool:
        return self.low == self.high

    @property
    def span(self) -> int:
        """Number of concrete values the atom can produce."""
        return self.high - self.low + 1

    def contains(self, value: int) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:
        if self.is_exact:
            return f"{self.low:x}"
        return f"[{self.low:x}-{self.high:x}]"


@dataclass
class SegmentModel:
    """Mined value model for one segment: atoms plus their probabilities."""

    segment: Segment
    atoms: list[ValueAtom]
    probabilities: list[float]

    def atom_index(self, value: int) -> int:
        """Index of the atom covering a segment value.

        Exact atoms take precedence over range atoms.  Values seen at
        model time are always covered; unseen values fall back to the
        nearest range atom, or to the overall nearest atom if the model
        has no ranges (Laplace-style escape used when scoring new
        addresses).
        """
        best_range = -1
        for i, atom in enumerate(self.atoms):
            if atom.is_exact:
                if atom.low == value:
                    return i
            elif atom.contains(value):
                best_range = i
        if best_range >= 0:
            return best_range
        # Fallback: nearest atom by value distance.
        return min(
            range(len(self.atoms)),
            key=lambda i: min(
                abs(value - self.atoms[i].low), abs(value - self.atoms[i].high)
            ),
        )


def mine_segment_values(
    segment: Segment,
    seeds: Sequence[int],
    *,
    heavy_hitter_fraction: float = 0.05,
    max_exact_values: int = 16,
    gap_factor: float = 8.0,
    split_mode: str = "gap",
) -> SegmentModel:
    """Build the value model for one segment from the seed set.

    Values whose empirical probability is at least
    ``heavy_hitter_fraction`` (capped at ``max_exact_values`` of them)
    become exact atoms.  The remaining values are sorted and split into
    contiguous ranges wherever the gap between neighbours exceeds
    ``gap_factor`` times the median gap (with a minimum absolute gap of
    2), mimicking Entropy/IP's density-based grouping.

    ``split_mode="nybble"`` additionally splits range atoms at the
    segment's top-nybble boundaries, so values sharing a high nybble
    form their own atoms.  This finer granularity lets the Bayesian
    network condition on sub-segment structure (e.g. an interface
    identifier whose top nybble correlates with the subnet) at the cost
    of more atoms to estimate — the ``bench_mining_granularity``
    ablation measures the tradeoff.
    """
    if split_mode not in ("gap", "nybble"):
        raise ValueError(f"unknown split_mode: {split_mode!r}")
    counts = Counter(segment.extract(seed) for seed in seeds)
    total = sum(counts.values())
    if total == 0:
        raise ValueError("cannot mine a segment model from zero seeds")

    frequent = [
        (value, count)
        for value, count in counts.most_common()
        if count / total >= heavy_hitter_fraction
    ][:max_exact_values]
    exact_values = {value for value, _ in frequent}

    atoms: list[ValueAtom] = [ValueAtom(v, v) for v, _ in frequent]
    weights: list[float] = [c / total for _, c in frequent]

    tail = sorted(v for v in counts if v not in exact_values)
    if tail:
        gaps = [b - a for a, b in zip(tail, tail[1:])]
        if gaps:
            median_gap = sorted(gaps)[len(gaps) // 2]
            split_gap = max(2, int(gap_factor * max(1, median_gap)))
        else:
            split_gap = 2
        # In nybble mode, a boundary between top-nybble groups also
        # splits runs (only meaningful for segments wider than 1 nybble).
        nybble_shift = 4 * (segment.width - 1) if segment.width > 1 else None

        def boundary(a: int, b: int) -> bool:
            if b - a > split_gap:
                return True
            if split_mode == "nybble" and nybble_shift is not None:
                return (a >> nybble_shift) != (b >> nybble_shift)
            return False

        run_start = tail[0]
        prev = tail[0]
        run_count = counts[tail[0]]
        for value in tail[1:]:
            if boundary(prev, value):
                atoms.append(ValueAtom(run_start, prev))
                weights.append(run_count / total)
                run_start = value
                run_count = 0
            run_count += counts[value]
            prev = value
        atoms.append(ValueAtom(run_start, prev))
        weights.append(run_count / total)

    norm = sum(weights)
    probabilities = [w / norm for w in weights]
    return SegmentModel(segment=segment, atoms=atoms, probabilities=probabilities)
