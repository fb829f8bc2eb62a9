"""Bayesian network over segment atoms (Entropy/IP stage 4).

Entropy/IP "utilizes a Bayesian network to model the statistical
dependencies between values of different segments" (paper §3.3).  Two
structures are provided:

* **chain** — segments conditioned left to right (most- to
  least-significant).  Simple and robust on 1 K-seed training sets, but
  provably unable to carry a dependency across an intervening segment.
* **tree** — Chow-Liu structure learning: pairwise mutual information
  between segment atom variables, maximum spanning tree, edges directed
  away from the most significant segment.  This matches the original
  Entropy/IP tool more closely (it learns its network structure) and
  recovers correlations the chain loses — the ``bench_bayes_structure``
  ablation quantifies the difference.

Both support ancestral sampling, exact joint probabilities, and
best-first enumeration of atom vectors in descending probability.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .mining import SegmentModel


@dataclass
class _Cpt:
    """Conditional distribution over one node's atoms per parent atom.

    For the root, there is a single row (no parent).
    """

    probabilities: list[list[float]]
    cumulative: list[list[float]]


def _mutual_information(xs: Sequence[int], ys: Sequence[int]) -> float:
    """Empirical mutual information between two discrete variables."""
    n = len(xs)
    joint = Counter(zip(xs, ys))
    px = Counter(xs)
    py = Counter(ys)
    mi = 0.0
    for (x, y), count in joint.items():
        pxy = count / n
        mi += pxy * math.log2(pxy * n * n / (px[x] * py[y]))
    return max(mi, 0.0)


def _chow_liu_parents(atom_columns: list[list[int]]) -> list[int | None]:
    """Maximum-MI spanning tree, rooted at node 0, as a parent array."""
    k = len(atom_columns)
    if k == 1:
        return [None]
    # Prim's algorithm over the complete MI graph.
    in_tree = {0}
    parents: list[int | None] = [None] * k
    best_edge: dict[int, tuple[float, int]] = {}
    for j in range(1, k):
        best_edge[j] = (_mutual_information(atom_columns[0], atom_columns[j]), 0)
    while len(in_tree) < k:
        j = max(best_edge, key=lambda node: best_edge[node][0])
        weight, parent = best_edge.pop(j)
        parents[j] = parent
        in_tree.add(j)
        for other in list(best_edge):
            mi = _mutual_information(atom_columns[j], atom_columns[other])
            if mi > best_edge[other][0]:
                best_edge[other] = (mi, j)
    return parents


class BayesNetwork:
    """Tree-structured Bayesian network over segment atom indices."""

    def __init__(
        self,
        models: Sequence[SegmentModel],
        seeds: Sequence[int],
        alpha: float = 0.5,
        structure: str = "chain",
    ):
        if not models:
            raise ValueError("BayesNetwork requires at least one segment model")
        if structure not in ("chain", "tree"):
            raise ValueError(f"unknown structure: {structure!r}")
        self.models = list(models)
        self.alpha = alpha
        self.structure = structure

        atom_vectors = [
            tuple(m.atom_index(m.segment.extract(seed)) for m in self.models)
            for seed in seeds
        ]
        if not atom_vectors:
            raise ValueError("BayesNetwork requires at least one seed")

        k = len(self.models)
        if structure == "chain":
            self.parents: list[int | None] = [None] + list(range(k - 1))
        else:
            columns = [[vec[i] for vec in atom_vectors] for i in range(k)]
            self.parents = _chow_liu_parents(columns)

        # Topological order: parents precede children (root(s) first).
        self.order: list[int] = []
        placed = [False] * k
        while len(self.order) < k:
            for i in range(k):
                if placed[i]:
                    continue
                parent = self.parents[i]
                if parent is None or placed[parent]:
                    self.order.append(i)
                    placed[i] = True

        self._fit(atom_vectors)

    # -- estimation ---------------------------------------------------------
    def _fit(self, atom_vectors: Sequence[tuple[int, ...]]) -> None:
        self.cpts: list[_Cpt] = []
        for i, model in enumerate(self.models):
            size = len(model.atoms)
            parent = self.parents[i]
            parent_size = 1 if parent is None else len(self.models[parent].atoms)
            counts = [[self.alpha] * size for _ in range(parent_size)]
            for vec in atom_vectors:
                row = 0 if parent is None else vec[parent]
                counts[row][vec[i]] += 1
            probabilities = []
            cumulative = []
            for row in counts:
                total = sum(row)
                probs = [c / total for c in row]
                probabilities.append(probs)
                cumulative.append(list(itertools.accumulate(probs)))
            self.cpts.append(_Cpt(probabilities=probabilities, cumulative=cumulative))

    # -- convenience (chain-compatible surface) --------------------------------
    @property
    def root_probs(self) -> list[float]:
        """Marginal of the first topological node (chain: segment 0)."""
        return self.cpts[self.order[0]].probabilities[0]

    # -- sampling ----------------------------------------------------------
    def sample_atoms_arr(self, u: np.ndarray) -> np.ndarray:
        """Batched ancestral sampling from explicit uniform draws.

        ``u`` is a ``(count, k)`` float64 array of uniforms in [0, 1);
        column ``d`` feeds the node at topological depth ``d``.  Returns
        a ``(count, k)`` int64 atom-index matrix in *segment* order.

        Each draw is ``searchsorted(cumulative_row, u * total)`` — the
        same float64 comparisons as the ``bisect_left`` of the scalar
        oracle ``EntropyIPModel.sample_addresses_reference``, so for
        identical uniforms the verdicts are bit-identical.  Conditioned
        nodes group rows by the parent's sampled atom and search each
        CPT row's cumulative vector once per present parent value.
        """
        count = len(u)
        assignment = np.zeros((count, len(self.models)), dtype=np.int64)
        for depth, node in enumerate(self.order):
            cpt = self.cpts[node]
            x = u[:, depth]
            parent = self.parents[node]
            if parent is None:
                cum = np.asarray(cpt.cumulative[0])
                drawn = np.minimum(
                    np.searchsorted(cum, x * cum[-1], side="left"),
                    len(cum) - 1,
                )
                assignment[:, node] = drawn
                continue
            rows = assignment[:, parent]
            out = np.zeros(count, dtype=np.int64)
            for row in np.unique(rows):
                mask = rows == row
                cum = np.asarray(cpt.cumulative[row])
                out[mask] = np.minimum(
                    np.searchsorted(cum, x[mask] * cum[-1], side="left"),
                    len(cum) - 1,
                )
            assignment[:, node] = out
        return assignment

    # -- probabilities -------------------------------------------------------
    def vector_probability(self, atoms: Sequence[int]) -> float:
        """Joint probability of an atom vector.

        Accepts either a full vector in *segment* order, or a prefix of
        the *topological* order (used internally by the enumerator; for
        chain structure the two coincide).
        """
        if len(atoms) == len(self.models):
            p = 1.0
            for node in self.order:
                parent = self.parents[node]
                row = 0 if parent is None else atoms[parent]
                p *= self.cpts[node].probabilities[row][atoms[node]]
            return p
        return self._prefix_probability(atoms)

    def _prefix_probability(self, prefix: Sequence[int]) -> float:
        """Probability of a partial assignment over ``order[:len(prefix)]``."""
        assigned: dict[int, int] = {}
        p = 1.0
        for node, atom in zip(self.order, prefix):
            parent = self.parents[node]
            row = 0 if parent is None else assigned[parent]
            p *= self.cpts[node].probabilities[row][atom]
            assigned[node] = atom
        return p

    def iter_vectors_by_probability(self) -> Iterator[tuple[float, tuple[int, ...]]]:
        """Yield atom vectors (segment order) in descending joint probability.

        Best-first search over partial assignments in topological order;
        the admissible bound multiplies each unassigned node's maximum
        conditional probability.
        """
        k = len(self.models)
        max_tail = [1.0] * (k + 1)
        for depth in range(k - 1, -1, -1):
            node = self.order[depth]
            best = max(max(row) for row in self.cpts[node].probabilities)
            max_tail[depth] = best * max_tail[depth + 1]

        heap: list[tuple[float, tuple[int, ...]]] = []

        def push(prefix: tuple[int, ...]) -> None:
            p = self._prefix_probability(prefix) * max_tail[len(prefix)]
            heapq.heappush(heap, (-p, prefix))

        root_node = self.order[0]
        for atom in range(len(self.models[root_node].atoms)):
            push((atom,))
        while heap:
            _, prefix = heapq.heappop(heap)
            depth = len(prefix)
            if depth == k:
                # Reorder from topological to segment order.
                vector = [0] * k
                for node, atom in zip(self.order, prefix):
                    vector[node] = atom
                yield self.vector_probability(tuple(vector)), tuple(vector)
                continue
            node = self.order[depth]
            for atom in range(len(self.models[node].atoms)):
                push(prefix + (atom,))

    def atoms_to_ranges(self, atoms: Sequence[int]) -> list[tuple[int, int]]:
        """Concrete (low, high) value bounds per segment for an atom vector."""
        bounds = []
        for model, atom_idx in zip(self.models, atoms):
            atom = model.atoms[atom_idx]
            bounds.append((atom.low, atom.high))
        return bounds

