"""Entropy/IP model fitting and budgeted target generation (stage 5).

Ties the pipeline together: entropy analysis → segmentation → value
mining → Bayesian network → address generation.  Matches the usage in
both papers' evaluations: fit on a seed sample, then generate a target
list of a given size.

Entropy/IP, unlike 6Gen, uses the budget only to decide *how many*
targets to emit — it does not let the budget steer which regions are
modelled (the 6Gen paper highlights exactly this difference in §7.1).
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..ipv6.addrplane import ColumnDeduper, FrozenKeySet, concat_columns, unpack
from ..ipv6.nybble import NYBBLE_COUNT
from ..telemetry.spans import Telemetry, ensure
from .bayes import BayesNetwork
from .entropy import nybble_entropies
from .mining import SegmentModel, mine_segment_values
from .segments import Segment, segment_positions

#: Draw granularity of the sampler (amortises numpy call overhead
#: without over-drawing small budgets by much).
_SAMPLE_CHUNK = 16_384

#: Give up sampling once this many consecutive draws brought no fresh
#: address: the model's support may be smaller than the budget.
_MAX_STALE_DRAWS = 200_000


@dataclass
class EntropyIPConfig:
    """Tuning knobs for the Entropy/IP pipeline."""

    segment_threshold: float = 0.1
    #: Widest segment in nybbles, 1..16, so that every segment value
    #: fits one ``uint64`` column.
    segment_max_width: int = 4
    heavy_hitter_fraction: float = 0.05
    max_exact_values: int = 16
    gap_factor: float = 8.0
    laplace_alpha: float = 0.5
    #: Bayesian-network structure: "chain" (fixed left-to-right) or
    #: "tree" (Chow-Liu structure learning, like the original tool).
    bayes_structure: str = "chain"
    #: Value-mining granularity: "gap" (density splits only) or
    #: "nybble" (additionally split at top-nybble boundaries).
    mining_split_mode: str = "gap"
    rng_seed: int | None = 0

    def __post_init__(self) -> None:
        if not 1 <= self.segment_max_width <= 16:
            raise ValueError(
                f"segment_max_width must be in 1..16: {self.segment_max_width}"
            )


def assemble_columns(
    models: Sequence[SegmentModel], atoms: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pack one value per segment, drawn inside its chosen atom.

    ``atoms`` is a ``(count, k)`` atom-index matrix in segment order and
    ``v`` a ``(count, k)`` float64 array of uniforms in [0, 1): segment
    ``i`` takes ``low + floor(v[:, i] * span)`` of atom ``atoms[:, i]``.
    Returns packed ``(hi, lo)`` columns.
    """
    count = len(atoms)
    hi = np.zeros(count, dtype=np.uint64)
    lo = np.zeros(count, dtype=np.uint64)
    for i, model in enumerate(models):
        lows = np.array([a.low for a in model.atoms], dtype=np.uint64)
        spans = np.array([a.span for a in model.atoms], dtype=np.float64)
        chosen = atoms[:, i]
        # floor(v * span) < span always (span <= 2**64 since segments
        # are at most 16 nybbles wide, and v < 1), and uint64
        # truncation == the scalar int() floor.
        value = lows[chosen] + (v[:, i] * spans[chosen]).astype(np.uint64)
        seg = model.segment
        shift = 4 * (NYBBLE_COUNT - seg.end)
        width_bits = 4 * seg.width
        if shift >= 64:
            hi |= value << np.uint64(shift - 64)
        else:
            # Straddling the /64 half boundary: the low-column shift
            # wraps mod 2**64 (numpy uint64 semantics), keeping the
            # in-range bits; the overflowed bits land in hi.
            lo |= value << np.uint64(shift)
            if shift + width_bits > 64:
                hi |= value >> np.uint64(64 - shift)
    return hi, lo


def _sample_distinct(
    draw: Callable[[int], tuple[np.ndarray, np.ndarray]],
    budget: int,
    excluded: FrozenKeySet | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Up to ``budget`` distinct addresses from chunks of ``draw(size)``.

    Keeps first-drawn order, skips ``excluded`` addresses without
    charging them, and stops early once ``_MAX_STALE_DRAWS``
    consecutive draws brought nothing fresh (a chunk with no fresh
    address counts its whole size).
    """
    dedupe = ColumnDeduper()
    chunks: list[tuple[np.ndarray, np.ndarray]] = []
    got = 0
    stale = 0
    while got < budget and stale < _MAX_STALE_DRAWS:
        size = min(_SAMPLE_CHUNK, max(budget - got, 1024))
        hi, lo = dedupe.add(*draw(size))
        if excluded is not None and len(excluded) and len(hi):
            keep = ~excluded.member(hi, lo)
            hi, lo = hi[keep], lo[keep]
        if not len(hi):
            stale += size
            continue
        stale = 0
        if got + len(hi) > budget:
            hi, lo = hi[: budget - got], lo[: budget - got]
        chunks.append((hi, lo))
        got += len(hi)
    return concat_columns(chunks)


@dataclass
class EntropyIPModel:
    """A fitted Entropy/IP model for one seed set."""

    entropies: list[float]
    segments: list[Segment]
    segment_models: list[SegmentModel]
    chain: BayesNetwork
    config: EntropyIPConfig
    seed_count: int

    # -- generation ---------------------------------------------------------
    def generate(self, budget: int, *, exclude: Iterable[int] = ()) -> set[int]:
        """Generate up to ``budget`` distinct target addresses.

        ``exclude`` addresses (typically the training seeds) are never
        emitted but also never charged against the budget.  When the
        model's whole support fits the budget it is enumerated
        (:meth:`generate_ordered`); otherwise :meth:`sample_columns`
        draws chunks from a ``numpy`` stream seeded with the config's
        ``rng_seed``, so two calls on one model return the same set.
        Sampling stops early when the model keeps producing duplicates
        or excluded addresses: its support may be smaller than the
        budget.
        """
        if budget < 0:
            raise ValueError(f"budget must be non-negative: {budget}")
        # When the model's entire support fits in the budget, exhaustive
        # enumeration is both exact and far cheaper than sampling into
        # ever-increasing duplicate rates.
        if self.support_size() <= budget:
            return set(self.generate_ordered(budget, exclude=exclude))
        excluded = FrozenKeySet.from_ints(int(a) for a in exclude)
        rng = np.random.default_rng(self.config.rng_seed)
        k = len(self.segment_models)

        def draw(size: int) -> tuple[np.ndarray, np.ndarray]:
            u = rng.random((size, k))
            v = rng.random((size, k))
            return self.sample_columns(u, v)

        return set(unpack(*_sample_distinct(draw, budget, excluded)))

    def sample_columns(
        self, u: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised address sampling from explicit uniform draws.

        ``u`` and ``v`` are ``(count, k)`` float64 uniforms (``k`` =
        number of segments): ``u`` drives the Bayes-network atom draws
        (one column per topological depth), ``v`` picks the value inside
        each chosen atom (:func:`assemble_columns`).  Returns packed
        ``(hi, lo)`` columns.  :meth:`sample_addresses_reference`
        consumes the same arrays through a scalar loop and is the
        parity baseline: for identical inputs the outputs are
        bit-identical.
        """
        atoms = self.chain.sample_atoms_arr(u)
        return assemble_columns(self.segment_models, atoms, v)

    def sample_region(
        self, atoms: Sequence[int], count: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """``count`` distinct addresses drawn uniformly in one atom vector.

        The vector (segment order) is fixed, so only the in-atom values
        are drawn, through the same :func:`assemble_columns` as
        :meth:`sample_columns`.  Returns fewer only when the vector's
        region holds fewer addresses (the staleness cut-off).
        """
        k = len(self.segment_models)
        vector = np.asarray(atoms, dtype=np.int64)

        def draw(size: int) -> tuple[np.ndarray, np.ndarray]:
            fixed = np.broadcast_to(vector, (size, k))
            return assemble_columns(
                self.segment_models, fixed, rng.random((size, k))
            )

        return _sample_distinct(draw, count)

    def sample_addresses_reference(
        self, u: np.ndarray, v: np.ndarray
    ) -> list[int]:
        """Scalar reference of :meth:`sample_columns` (same draws).

        A per-address Python loop over the identical uniform arrays:
        atom via the network's bisect draw, value via
        ``low + int(v * span)``, assembled with ``Segment.insert``.
        Exists solely as the parity baseline for the vectorised path.
        """
        order = self.chain.order
        parents = self.chain.parents
        cpts = self.chain.cpts
        out: list[int] = []
        for j in range(len(u)):
            assignment = [0] * len(self.segment_models)
            for depth, node in enumerate(order):
                parent = parents[node]
                row = 0 if parent is None else assignment[parent]
                cumulative = cpts[node].cumulative[row]
                x = float(u[j, depth]) * cumulative[-1]
                assignment[node] = min(
                    bisect.bisect_left(cumulative, x), len(cumulative) - 1
                )
            addr = 0
            for i, model in enumerate(self.segment_models):
                atom = model.atoms[assignment[i]]
                value = atom.low + int(float(v[j, i]) * atom.span)
                addr = model.segment.insert(addr, value)
            out.append(addr)
        return out

    def support_size(self) -> int:
        """Upper bound on distinct addresses the model can generate.

        The product over segments of the summed atom spans; an upper
        bound because chain transitions may zero out combinations.
        """
        support = 1
        for model in self.segment_models:
            support *= sum(atom.span for atom in model.atoms)
            if support > 1 << 80:  # avoid pointless huge arithmetic
                return support
        return support

    def generate_ordered(self, budget: int, *, exclude: Iterable[int] = ()) -> list[int]:
        """Generate up to ``budget`` targets in descending model probability.

        Enumerates atom vectors best-first; within each vector, exact
        atoms contribute their value and range atoms are expanded in
        ascending value order (their interior is modelled uniform, so
        any order is probability-consistent).
        """
        if budget < 0:
            raise ValueError(f"budget must be non-negative: {budget}")
        excluded = set(int(a) for a in exclude)
        targets: list[int] = []
        emitted: set[int] = set()
        for _, vec in self.chain.iter_vectors_by_probability():
            bounds = self.chain.atoms_to_ranges(vec)
            for addr in self._expand(bounds, budget - len(targets), emitted, excluded):
                targets.append(addr)
                emitted.add(addr)
            if len(targets) >= budget:
                break
        return targets

    def _expand(
        self,
        bounds: list[tuple[int, int]],
        limit: int,
        emitted: set[int],
        excluded: set[int],
    ) -> list[int]:
        """Concrete addresses for one atom vector, capped at ``limit``."""
        if limit <= 0:
            return []
        out: list[int] = []
        out_set: set[int] = set()

        def rec(index: int, addr: int) -> None:
            if len(out) >= limit:
                return
            if index == len(self.segment_models):
                if addr not in emitted and addr not in excluded and addr not in out_set:
                    out.append(addr)
                    out_set.add(addr)
                return
            model = self.segment_models[index]
            low, high = bounds[index]
            for value in range(low, high + 1):
                if len(out) >= limit:
                    return
                rec(index + 1, model.segment.insert(addr, value))

        rec(0, 0)
        return out

    def score(self, addr: int) -> float:
        """Joint model probability of an address's atom vector."""
        vec = tuple(
            m.atom_index(m.segment.extract(addr)) for m in self.segment_models
        )
        return self.chain.vector_probability(vec)

    def describe(self) -> str:
        """Human-readable structure report (the original tool's output).

        Entropy/IP is "foremost an analysis tool for identifying
        patterns in IPv6 addresses" (paper §7); this renders the fitted
        model the way the original's reports do: the entropy profile,
        each segment with its mined atoms and probabilities, and the
        learned inter-segment dependencies.
        """
        lines = [f"Entropy/IP model ({self.seed_count} seeds)"]
        lines.append("")
        lines.append("per-nybble entropy (digits 0-9 ~ 0.0-1.0):")
        lines.append(
            "  " + "".join(str(min(9, int(e * 10))) for e in self.entropies)
        )
        lines.append("")
        lines.append("segments and mined values:")
        for i, model in enumerate(self.segment_models):
            seg = model.segment
            parent = self.chain.parents[i]
            dep = f" <- segment {parent + 1}" if parent is not None else " (root)"
            lines.append(
                f"  segment {i + 1}: nybbles {seg.start + 1}-{seg.end} "
                f"(H={seg.mean_entropy:.2f}){dep}"
            )
            shown = sorted(
                zip(model.atoms, model.probabilities),
                key=lambda ap: -ap[1],
            )[:6]
            for atom, probability in shown:
                lines.append(f"      {str(atom):<16} p={probability:.3f}")
            if len(model.atoms) > 6:
                lines.append(f"      ... {len(model.atoms) - 6} more atoms")
        return "\n".join(lines)


def fit_entropy_ip(
    seeds: Sequence[int], config: EntropyIPConfig | None = None
) -> EntropyIPModel:
    """Fit the full Entropy/IP pipeline on a seed set."""
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("Entropy/IP requires at least one seed")
    config = config or EntropyIPConfig()
    entropies = nybble_entropies(seeds)
    segments = segment_positions(
        entropies,
        threshold=config.segment_threshold,
        max_width=config.segment_max_width,
    )
    segment_models = [
        mine_segment_values(
            seg,
            seeds,
            heavy_hitter_fraction=config.heavy_hitter_fraction,
            max_exact_values=config.max_exact_values,
            gap_factor=config.gap_factor,
            split_mode=config.mining_split_mode,
        )
        for seg in segments
    ]
    chain = BayesNetwork(
        segment_models,
        seeds,
        alpha=config.laplace_alpha,
        structure=config.bayes_structure,
    )
    return EntropyIPModel(
        entropies=entropies,
        segments=segments,
        segment_models=segment_models,
        chain=chain,
        config=config,
        seed_count=len(seeds),
    )


def run_entropy_ip(
    seeds: Sequence[int] | Iterable[int],
    budget: int,
    *,
    config: EntropyIPConfig | None = None,
    exclude_seeds: bool = False,
    telemetry: Telemetry | None = None,
) -> set[int]:
    """Fit Entropy/IP on ``seeds`` and generate ``budget`` targets.

    The counterpart of :func:`repro.core.run_6gen` for head-to-head
    comparisons (paper §7).  ``telemetry`` (optional) records one
    ``generate.entropy_ip`` span, the ``generate.targets_total`` counter
    and the ``generate.targets_per_sec`` gauge, mirroring the 6Gen run
    metrics.
    """
    seeds = [int(s) for s in seeds]
    model = fit_entropy_ip(seeds, config)
    exclude = seeds if exclude_seeds else ()
    tele = ensure(telemetry)
    start = time.perf_counter()
    with tele.span("generate.entropy_ip", budget=budget, seeds=len(seeds)):
        targets = model.generate(budget, exclude=exclude)
    if tele.enabled:
        tele.count("generate.targets_total", len(targets))
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            tele.gauge("generate.targets_per_sec", len(targets) / elapsed)
    return targets

