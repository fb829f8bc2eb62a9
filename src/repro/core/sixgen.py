"""The 6Gen target generation algorithm (paper §5).

6Gen clusters similar seeds into dense address-space regions and emits
the addresses within those regions as scan targets, constrained by a
probe budget.  The implementation follows Algorithm 1 plus the two §5.5
optimizations:

* per-cluster growth caching — clusters grow independently, so a
  cluster's best growth only needs recomputing after that cluster
  itself grows;
* a 16-ary nybble tree for reconstructing/counting a grown cluster's
  seed set, instead of scanning the full seed list.

Selection rule per iteration (§5.4): among all (cluster, candidate
seed) growth options, take the one with the highest post-growth seed
density; ties prefer the smaller grown range (budget conservation);
remaining ties break at random.

Termination: the budget is consumed exactly (an unaffordable best
growth is satisfied partially by random sampling from its new region),
or all seeds end up in a single cluster.  Note a deliberate deviation
from the *simplified* pseudocode: Algorithm 1 as printed discards the
growth that would unify all seeds, which would prevent any 2-seed
network from ever growing a cluster — contradicting both the prose
("iterates until … all seeds belong to a single cluster") and Figure 5b
(most 2–10-seed prefixes have grown clusters).  We apply the unifying
growth (budget permitting) and then stop.
"""

from __future__ import annotations

import copy
import heapq
import random
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..ipv6.addrplane import ColumnDeduper, concat_columns, pack, unpack
from ..ipv6.nybble import FULL_MASK, NYBBLE_COUNT, popcount16
from ..ipv6.nybble_tree import NybbleTree
from ..ipv6.range_ import NybbleRange, expand_range_arr
from ..telemetry.spans import Telemetry, ensure
from .budget import BudgetExceeded, make_ledger
from .candidates import SeedMatrix, find_candidates_python
from .cluster import Cluster, Growth, growth_beats

_EMPTY = np.empty(0, dtype=np.uint64)


@dataclass
class SixGenConfig:
    """Tuning knobs for a 6Gen run.

    budget
        Probe budget: the maximum number of *new* (non-seed) addresses
        the clusters may cover.
    loose
        Range granularity (§5.3): ``True`` for full-wildcard nybbles
        (the paper's default after §6.3), ``False`` for tight
        value-set nybbles.
    ledger
        ``"exact"`` for unique-address budget accounting (§5.4),
        ``"range-sum"`` for the simplified Algorithm 1 cost model.
    use_seed_matrix
        Use the vectorised numpy candidate search (§5.5 analogue of the
        paper's OpenMP parallelism); the pure-Python path is kept for
        testing and tiny inputs.
    use_growth_cache
        Cache each cluster's best growth between iterations (§5.5).
        Disabling recomputes every cluster every iteration (the naive
        algorithm) — used by the caching ablation benchmark.
    use_vector_kernel
        Run the batched/incremental hot path: one blocked all-pairs
        numpy pass for singleton initialisation, per-cluster distance
        vectors updated only at mask positions that widened, batched
        nybble-tree counting of candidate spans, and heap-based growth
        selection.  Bit-for-bit identical output to the reference path
        for a fixed ``rng_seed``; requires ``use_seed_matrix``.  The
        reference path, which also runs the scalar exact budget ledger,
        remains the correctness oracle for parity tests.
    rng_seed
        Seed for the tie-breaking / sampling RNG, for reproducible runs.
    """

    budget: int
    loose: bool = True
    ledger: str = "exact"
    use_seed_matrix: bool = True
    use_growth_cache: bool = True
    use_vector_kernel: bool = True
    rng_seed: int | None = 0


@dataclass
class SixGenResult:
    """Outcome of a 6Gen run."""

    clusters: list[Cluster]
    seed_count: int
    budget_limit: int
    budget_used: int
    iterations: int
    #: The final growth's randomly sampled addresses as ``(hi, lo)``
    #: columns, in pick order (:attr:`sampled` boxes them).
    picks: "tuple[np.ndarray, np.ndarray]" = field(
        default_factory=lambda: (_EMPTY, _EMPTY), compare=False, repr=False
    )
    elapsed_seconds: float = 0.0
    _targets: set[int] | None = None
    # The exact ledger's covered addresses (the full deduplicated
    # target set) as ascending (hi, lo) columns; boxed into _targets
    # only when target_set() is asked for.
    _covered: "tuple[np.ndarray, np.ndarray] | None" = field(
        default=None, compare=False, repr=False
    )
    # Cached densest-first (hi, lo) columns.  Populated by
    # target_columns_by_density() and by the parallel per-prefix
    # transport (see repro.campaign.generate), which ships columns via
    # shared memory instead of pickling the _targets set.
    _columns: "tuple[np.ndarray, np.ndarray] | None" = field(
        default=None, compare=False, repr=False
    )

    @property
    def sampled(self) -> list[int]:
        """The final-growth picks as address ints, in pick order.

        Boxed on every call; the generation plane reads :attr:`picks`.
        """
        return unpack(*self.picks)

    def singleton_clusters(self) -> list[Cluster]:
        """Clusters that never grew past their founding seed (Fig. 5a)."""
        return [c for c in self.clusters if c.is_singleton()]

    def grown_clusters(self) -> list[Cluster]:
        """Clusters that grew to cover a region (Fig. 5b)."""
        return [c for c in self.clusters if not c.is_singleton()]

    def target_count(self) -> int:
        """Number of distinct generated targets (seeds included)."""
        if self._covered is not None:
            return len(self._covered[0])
        return len(self.target_set())

    def target_set(self) -> set[int]:
        """All distinct generated target addresses, seeds included."""
        if self._targets is None:
            if self._covered is not None:
                self._targets = set(unpack(*self._covered))
            elif self._columns is not None:
                # Rebuilt from columns: the parallel per-prefix path
                # ships (hi, lo) columns and drops the big-int set.
                self._targets = set(unpack(*self._columns))
            else:
                targets: set[int] = set(self.sampled)
                for cluster in self.clusters:
                    targets.update(cluster.range.iter_ints())
                self._targets = targets
        return self._targets

    def iter_targets(self) -> Iterator[int]:
        """Iterate distinct generated targets (order unspecified)."""
        return iter(self.target_set())

    def new_targets(self, seeds: Iterable[int]) -> set[int]:
        """Generated targets excluding the given (seed) addresses."""
        return self.target_set() - set(int(s) for s in seeds)

    def iter_targets_by_density(self) -> Iterator[int]:
        """Stream targets densest-cluster-first (for partial scans).

        Clusters are emitted in descending seed density (ties: smaller
        range first), deduplicating overlap; the final-growth sampled
        addresses come last.  Cutting this stream at any point yields
        the best available target list of that size under 6Gen's own
        density assumption.

        When the run used the exact ledger its covered set (already the
        full deduplicated target set) bounds the work: each address is
        struck off as emitted and the walk stops as soon as every
        target has been yielded, so fully-overlapped trailing cluster
        ranges are never re-materialised.
        """
        ordered = sorted(
            self.clusters, key=lambda c: (-c.density(), c.range.size())
        )
        if self._covered is not None or self._targets is not None:
            remaining = set(self.target_set())
            for cluster in ordered:
                if not remaining:
                    return
                for addr in cluster.range.iter_ints():
                    if addr in remaining:
                        remaining.discard(addr)
                        yield addr
            for addr in self.sampled:
                if addr in remaining:
                    remaining.discard(addr)
                    yield addr
            return
        emitted: set[int] = set()
        for cluster in ordered:
            for addr in cluster.range.iter_ints():
                if addr not in emitted:
                    emitted.add(addr)
                    yield addr
        for addr in self.sampled:
            if addr not in emitted:
                emitted.add(addr)
                yield addr

    def target_columns(self) -> "tuple[np.ndarray, np.ndarray]":
        """All distinct targets as packed ``(hi, lo)`` uint64 columns.

        Generation order: clusters as stored, each ascending, then the
        final-growth sampled addresses; overlap deduplicated first-seen.
        Covers exactly :meth:`target_set` without boxing any ints.
        """
        dedupe = ColumnDeduper()
        expanded = [expand_range_arr(c.range) for c in self.clusters]
        chunks = [dedupe.add(*concat_columns(expanded))]
        if len(self.picks[0]):
            chunks.append(dedupe.add(*self.picks))
        return concat_columns(chunks)

    def target_columns_by_density(self) -> "tuple[np.ndarray, np.ndarray]":
        """Packed-column form of :meth:`iter_targets_by_density`.

        Emits the exact scalar sequence — densest cluster first, ties
        broken by smaller range, sampled addresses last, first-seen
        dedupe throughout — as ``(hi, lo)`` columns built by vectorised
        range expansion.  When the run used the exact budget ledger,
        its covered count bounds the walk the same way the scalar
        generator's ``remaining`` set does: expansion stops at the
        first cluster boundary where every target has been emitted.

        The result is cached (the parallel per-prefix transport reuses
        it); callers that mutate the arrays must copy first.
        """
        if self._columns is not None:
            return self._columns
        ordered = sorted(
            self.clusters, key=lambda c: (-c.density(), c.range.size())
        )
        total = len(self._covered[0]) if self._covered is not None else None
        dedupe = ColumnDeduper()
        chunks = []
        # Clusters expand into small per-cluster arrays; feeding each
        # one to the deduper separately would drown in per-call
        # overhead, so they accumulate into batches first.  Batch
        # boundaries are invisible in the output (first-seen order is
        # chunking-independent); they only coarsen the early stop,
        # which skips work but never changes the emitted sequence —
        # clusters past the point where every target has been seen
        # contribute nothing but duplicates.
        pending: list = []
        pending_size = 0
        for cluster in ordered:
            if (
                total is not None
                and not pending
                and len(dedupe) >= total
            ):
                break
            cols = expand_range_arr(cluster.range)
            pending.append(cols)
            pending_size += len(cols[0])
            if pending_size >= 65536:
                chunks.append(dedupe.add(*concat_columns(pending)))
                pending, pending_size = [], 0
        if pending:
            chunks.append(dedupe.add(*concat_columns(pending)))
        if len(self.picks[0]) and (total is None or len(dedupe) < total):
            chunks.append(dedupe.add(*self.picks))
        columns = concat_columns(chunks)
        self._columns = columns
        return columns

    def dynamic_nybble_indices(self) -> set[int]:
        """Union of dynamic nybble positions across cluster ranges (Fig. 6)."""
        indices: set[int] = set()
        for cluster in self.clusters:
            indices.update(cluster.range.dynamic_positions())
        return indices


def _nybble_value_mask(mbits: int) -> int:
    """Expand a 32-bit position mask to 0xF at each set position's nybble."""
    vmask = 0
    while mbits:
        low = mbits & -mbits
        vmask |= 0xF << (4 * (low.bit_length() - 1))
        mbits ^= low
    return vmask


class _HeapEntry:
    """Max-heap wrapper for (growth, cluster) pairs with lazy invalidation.

    ``heapq`` builds min-heaps, so "less than" here means "strictly
    better growth"; entries are invalidated implicitly when the owning
    cluster's cached best growth is replaced or the cluster is deleted.
    """

    __slots__ = ("growth", "cid")

    def __init__(self, growth: Growth, cid: int):
        self.growth = growth
        self.cid = cid

    def __lt__(self, other: "_HeapEntry") -> bool:
        return growth_beats(self.growth, other.growth)


class SixGen:
    """A single 6Gen run over one seed set (typically one routed prefix).

    :meth:`run` grows it to the configured budget; :meth:`extend` grows
    it on to a larger one.
    """

    def __init__(
        self,
        seeds: Sequence[int],
        config: SixGenConfig,
        telemetry: Telemetry | None = None,
    ):
        self.config = config
        # Passive observation only: the telemetry object never touches
        # ``self.rng`` or reorders candidate evaluation, so results are
        # bit-identical with telemetry on or off.
        self.telemetry = ensure(telemetry)
        #: Candidate evaluations performed (plain int on the hot path;
        #: flushed to telemetry counters once per run).
        self.candidate_scans = 0
        self.seeds = sorted(set(int(s) for s in seeds))
        self.rng = random.Random(config.rng_seed)
        self.matrix = SeedMatrix(self.seeds) if config.use_seed_matrix else None
        self.ledger = make_ledger(
            config.ledger, config.budget, self.seeds,
            reference=not config.use_vector_kernel,
        )
        self._clusters: dict[int, Cluster] = {}
        self._best: dict[int, Growth | None] = {}
        self._singleton_by_seed: dict[int, int] = {}
        self._next_id = 0
        self.iterations = 0
        self.vectorised = config.use_vector_kernel and self.matrix is not None
        #: Cached distance-to-every-seed vectors, keyed by cluster id.
        #: Populated lazily (clusters that never grow never need one) and
        #: updated incrementally on growth: masks only widen, so only the
        #: changed positions can lower a seed's distance.
        self._dist: dict[int, np.ndarray] = {}
        #: Packed 512-bit mask signatures of grown clusters, for O(1)
        #: encapsulation checks in the vectorised path.
        self._grown_sigs: dict[int, int] = {}
        # Heap selection needs stable cached growths between iterations;
        # the no-cache ablation redraws every growth each iteration, so
        # it keeps the linear scan.
        self._use_heap = self.vectorised and config.use_growth_cache
        self._heap: list[_HeapEntry] = []
        self._started = False
        #: Set once no budget can grow the clusters further: all seeds
        #: unified, or no cluster has a candidate left.
        self._done = False
        #: Where a run stopped at a refused growth: a copy of the
        #: generator and the ledger mark, taken just before the partial
        #: charge.  (A copy keeps the state in 2.5 KB of C memory, where
        #: ``getstate()`` boxes 625 ints.)
        self._pause: tuple | None = None

    @cached_property
    def tree(self) -> NybbleTree:
        """The seeds' nybble tree, built on first use.

        The vectorised kernel counts with it only for candidate sets of
        more than 64 seeds, so most runs never build it, and a paused
        run does not hold one it never needed.
        """
        return NybbleTree(self.seeds)

    # -- internals ---------------------------------------------------------
    def _find_candidates(self, range_: NybbleRange) -> list[int]:
        """Indices of seeds at minimum positive distance from the range."""
        if self.matrix is not None:
            _, indices = self.matrix.min_positive_candidates(range_)
        else:
            _, indices = find_candidates_python(range_, self.seeds)
        return indices

    def _set_best(self, cid: int, growth: Growth | None) -> None:
        """Record a cluster's cached best growth (and index it for the heap)."""
        self._best[cid] = growth
        if self._use_heap and growth is not None:
            heapq.heappush(self._heap, _HeapEntry(growth, cid))

    def _evaluate(self, cluster: Cluster) -> Growth | None:
        """Best growth for one cluster, or ``None`` if it holds all seeds.

        For each candidate seed the grown range may encapsulate further
        seeds; the post-growth seed-set size is counted with the nybble
        tree, so absorbed seeds (candidate or not) are included.
        """
        indices = self._find_candidates(cluster.range)
        self.candidate_scans += len(indices)
        if not indices:
            return None
        best: Growth | None = None
        seen_ranges: set[tuple[int, ...]] = set()
        for idx in indices:
            new_range = cluster.range.span(self.seeds[idx], loose=self.config.loose)
            if new_range.masks in seen_ranges:
                continue
            seen_ranges.add(new_range.masks)
            count = self.tree.count_in_range(new_range)
            growth = Growth(new_range, count, self.rng.random())
            if best is None or growth.sort_key() > best.sort_key():
                best = growth
        return best

    # -- vectorised kernel -------------------------------------------------
    def _best_growth_for(
        self,
        range_: NybbleRange,
        seed_count: int,
        indices: Sequence[int],
        mbits_list: list[int] | None = None,
        vvals: list[int] | None = None,
    ) -> Growth | None:
        """Best growth of a range by the given candidate seed indices.

        The vectorised analogue of :meth:`_evaluate`'s candidate loop:
        span masks are built directly from the matrix's nybble rows with
        the range size tracked incrementally (skipping range
        re-validation), and comparisons use exact integer
        cross-multiplication.  Candidate order, span dedup, and the RNG
        salt sequence are identical to the reference path.

        ``indices`` must be *all* seeds at the minimum positive distance
        ``d`` from the range (``seed_count`` is the range's current seed
        count).  That minimality gives an exact counting shortcut: a
        seed inside a candidate's span has distance ≤ d from the range,
        hence distance 0 (already counted) or exactly d (a candidate).
        So each span's post-growth count is ``seed_count`` plus the
        candidates lying inside it — an O(C²) bit-mask check instead of
        per-span nybble-tree walks.  Mismatch positions are packed into
        one int (and mismatch values into another for tight mode), so
        "candidate k inside candidate c's span" is one subset test.
        Large candidate sets fall back to the shared-traversal
        :meth:`~repro.ipv6.nybble_tree.NybbleTree.count_in_ranges`.

        ``mbits_list`` / ``vvals`` may carry precomputed mismatch bits
        and (tight mode) packed mismatch nybble values for each
        candidate — the init path derives them from seed XORs without
        any numpy round-trip.
        """
        self.candidate_scans += len(indices)
        if not indices:
            return None
        loose = self.config.loose
        base_masks = range_.masks
        base_size = range_.size()
        if mbits_list is None:
            mbits_list = self.matrix.mismatch_bits(range_, indices)
        spans: list[NybbleRange] = []
        span_bits: list[tuple[int, int]] = []
        seen: set = set()
        if loose:
            # A loose span is fully determined by the set of widened
            # positions, so the packed mismatch bits are the dedup key
            # and duplicate candidates never build a mask list at all.
            for c in range(len(indices)):
                mbits = mbits_list[c]
                if mbits in seen:
                    continue
                seen.add(mbits)
                masks = list(base_masks)
                size = base_size
                m = mbits
                while m:
                    low = m & -m
                    m ^= low
                    pos = low.bit_length() - 1
                    size = size // popcount16(masks[pos]) * 16
                    masks[pos] = FULL_MASK
                spans.append(NybbleRange._make(tuple(masks), size))
                span_bits.append((mbits, 0))
        else:
            # Tight spans also depend on the candidate's nybble values
            # at the widened positions; pack those alongside (nybble of
            # position p lives at bits 4p..4p+3).
            if vvals is None:
                vvals = []
                for c, idx in enumerate(indices):
                    seed = self.seeds[idx]
                    m = mbits_list[c]
                    vval = 0
                    while m:
                        low = m & -m
                        m ^= low
                        pos = low.bit_length() - 1
                        nybble = (seed >> (4 * (NYBBLE_COUNT - 1 - pos))) & 0xF
                        vval |= nybble << (4 * pos)
                    vvals.append(vval)
            for c in range(len(indices)):
                mbits = mbits_list[c]
                vval = vvals[c]
                key = (mbits, vval)
                if key in seen:
                    continue
                seen.add(key)
                masks = list(base_masks)
                size = base_size
                m = mbits
                while m:
                    low = m & -m
                    m ^= low
                    pos = low.bit_length() - 1
                    count = popcount16(masks[pos])
                    masks[pos] |= 1 << ((vval >> (4 * pos)) & 0xF)
                    size = size // count * (count + 1)
                spans.append(NybbleRange._make(tuple(masks), size))
                span_bits.append(key)
        if len(indices) > 64:
            counts = self.tree.count_in_ranges(spans)
        elif loose:
            counts = [
                seed_count + sum(1 for m in mbits_list if not m & ~c_mbits)
                for c_mbits, _ in span_bits
            ]
        else:
            counts = []
            for c_mbits, c_vval in span_bits:
                inside = 0
                for k, k_mbits in enumerate(mbits_list):
                    if not k_mbits & ~c_mbits:
                        k_vval = vvals[k]
                        vmask = _nybble_value_mask(k_mbits)
                        if c_vval & vmask == k_vval:
                            inside += 1
                counts.append(seed_count + inside)
        best: Growth | None = None
        for span, span_count in zip(spans, counts):
            growth = Growth(span, span_count, self.rng.random())
            if best is None or growth_beats(growth, best):
                best = growth
        return best

    def _evaluate_vector(self, cid: int) -> Growth | None:
        """Vectorised :meth:`_evaluate` using the cached distance vector."""
        cluster = self._clusters[cid]
        vec = self._dist.get(cid)
        if vec is None:
            vec = self.matrix.distances_to_range(cluster.range).astype(np.int16)
            self._dist[cid] = vec
        _, indices = SeedMatrix.min_positive_from(vec)
        return self._best_growth_for(cluster.range, cluster.seed_count, indices)

    def _widen_distance_cache(
        self, cid: int, old_range: NybbleRange, new_range: NybbleRange
    ) -> None:
        """Bring a cluster's distance vector forward across one growth."""
        vec = self._dist.get(cid)
        if vec is None:
            vec = self.matrix.distances_to_range(old_range).astype(np.int16)
        self.matrix.widen_distances_inplace(vec, old_range, new_range)
        self._dist[cid] = vec

    # -- algorithm steps ---------------------------------------------------
    def _init_clusters(self) -> None:
        """One singleton cluster per seed (Function InitClusters)."""
        for seed in self.seeds:
            cid = self._next_id
            self._next_id += 1
            self._clusters[cid] = Cluster(NybbleRange.from_address(seed), 1)
            self._singleton_by_seed[seed] = cid
        if self.vectorised:
            # Cluster ids were assigned in seed (= matrix row) order, so
            # row i's nearest-neighbour candidates belong to cluster i.
            # A singleton's mask holds exactly its own nybbles, so each
            # candidate's mismatch positions (and values, for tight
            # mode) fall straight out of the integer XOR of the two
            # seeds — no per-singleton numpy calls at all.
            all_candidates = self.matrix.all_pairs_min_candidates()
            seeds = self.seeds
            tight = not self.config.loose
            for cid, (_, indices) in enumerate(all_candidates):
                seed_i = seeds[cid]
                mbits_list: list[int] = []
                vvals: list[int] | None = [] if tight else None
                for j in indices:
                    x = seed_i ^ seeds[j]
                    mbits = 0
                    vval = 0
                    while x:
                        b = x & -x
                        nyb_from_lsb = (b.bit_length() - 1) >> 2
                        x &= ~(0xF << (4 * nyb_from_lsb))
                        pos = NYBBLE_COUNT - 1 - nyb_from_lsb
                        mbits |= 1 << pos
                        if tight:
                            nybble = (seeds[j] >> (4 * nyb_from_lsb)) & 0xF
                            vval |= nybble << (4 * pos)
                    mbits_list.append(mbits)
                    if tight:
                        vvals.append(vval)
                self._set_best(
                    cid,
                    self._best_growth_for(
                        self._clusters[cid].range,
                        1,
                        indices,
                        mbits_list=mbits_list,
                        vvals=vvals,
                    ),
                )
        else:
            for cid, cluster in self._clusters.items():
                self._set_best(cid, self._evaluate(cluster))

    def _select_growth(self) -> tuple[int, Growth] | None:
        """The best (cluster, growth) pair this iteration, if any.

        The vectorised kernel keeps every cached growth in a lazily
        invalidated max-heap: stale entries (cluster deleted, or its
        best growth since replaced) are popped on sight, so selection is
        O(log n) amortised instead of a full scan with exact-fraction
        comparisons.  Full sort keys are unique in practice (the random
        salt breaks ties), so both structures select the same growth.
        """
        if self._use_heap:
            heap = self._heap
            while heap:
                entry = heap[0]
                if self._best.get(entry.cid) is entry.growth:
                    return entry.cid, entry.growth
                heapq.heappop(heap)
            return None
        best_cid: int | None = None
        best_growth: Growth | None = None
        for cid, growth in self._best.items():
            if growth is None:
                continue
            if best_growth is None or growth.sort_key() > best_growth.sort_key():
                best_cid, best_growth = cid, growth
        if best_cid is None or best_growth is None:
            return None
        return best_cid, best_growth

    def _apply_growth(self, cid: int, growth: Growth) -> None:
        """Replace the cluster, drop encapsulated clusters, refresh caches."""
        old_range = self._clusters[cid].range
        self._clusters[cid] = Cluster(growth.new_range, growth.new_seed_count)
        # Encapsulated singleton clusters are exactly the singletons
        # whose founding seed lies in the grown range — found via the
        # seed trie instead of an is_subset scan over every cluster.
        # (The grown cluster itself also leaves the singleton map here.)
        doomed: list[int] = []
        if self.vectorised:
            # The freshly widened distance vector knows which seeds the
            # grown range absorbed (distance zero) — no trie walk needed.
            self._widen_distance_cache(cid, old_range, growth.new_range)
            seeds = self.matrix.seeds
            for row in np.nonzero(self._dist[cid] == 0)[0].tolist():
                oid = self._singleton_by_seed.pop(seeds[row], None)
                if oid is not None and oid != cid:
                    doomed.append(oid)
            # Each grown cluster's masks are packed into one 512-bit
            # signature (32 disjoint 16-bit fields), so the per-position
            # subset test collapses to a single ``sig & ~new_sig == 0``.
            new_sig = 0
            for mask in growth.new_range.masks:
                new_sig = (new_sig << 16) | mask
            for oid, sig in self._grown_sigs.items():
                if oid != cid and not sig & ~new_sig:
                    doomed.append(oid)
            self._grown_sigs[cid] = new_sig
        else:
            for seed in self.tree.iter_in_range(growth.new_range):
                oid = self._singleton_by_seed.pop(seed, None)
                if oid is not None and oid != cid:
                    doomed.append(oid)
            # Grown clusters are few; check them directly.
            for oid, other in self._clusters.items():
                if oid != cid and not other.range.is_singleton():
                    if other.range.is_subset(growth.new_range):
                        doomed.append(oid)
        for oid in doomed:
            del self._clusters[oid]
            del self._best[oid]
            self._dist.pop(oid, None)
            self._grown_sigs.pop(oid, None)
        if self.vectorised:
            # (the distance cache was already widened above)
            if self.config.use_growth_cache:
                self._set_best(cid, self._evaluate_vector(cid))
            else:
                for oid in self._clusters:
                    self._set_best(oid, self._evaluate_vector(oid))
        elif self.config.use_growth_cache:
            self._set_best(cid, self._evaluate(self._clusters[cid]))
        else:
            for oid, cluster in self._clusters.items():
                self._set_best(oid, self._evaluate(cluster))

    # -- driver --------------------------------------------------------------
    def run(self) -> SixGenResult:
        """Execute 6Gen to completion and return the clusters and targets."""
        return self.extend(self.config.budget)

    def extend(self, budget: int) -> SixGenResult:
        """Grow the clusters up to ``budget`` and return the result.

        The first call starts from the seeds (:meth:`run` is that call at
        the configured budget).  A later call resumes the run where it
        stopped and returns exactly what a fresh run at ``budget``
        returns, generator state included.  The growth order never reads
        the budget: a refused ``try_charge`` changes nothing, and
        selecting, applying and evaluating growths ignore the limit, so
        a larger budget only moves the point where the loop stops.  A
        run therefore pauses at its first refused growth, taking the
        generator state and a ledger mark before the partial charge;
        extending rolls both back, raises the ledger's limit and
        re-enters the loop at that same growth.  A run that unified its
        seeds or ran out of candidates stays as it is.  Results returned
        earlier are never touched.  ``budget`` below the last one raises
        :class:`ValueError`.
        """
        if budget < self.ledger.limit:
            raise ValueError(
                f"cannot extend a 6Gen run at budget {self.ledger.limit} "
                f"down to {budget}"
            )
        tele = self.telemetry
        start = time.perf_counter()
        picks = (_EMPTY, _EMPTY)
        resumed_from = self.ledger.limit if self._started else None
        attrs = {"seeds": len(self.seeds), "budget": budget}
        if resumed_from is not None:
            attrs["extended_from"] = resumed_from
        with tele.span("sixgen", **attrs):
            if self._pause is not None:
                self.rng, mark = self._pause
                self._pause = None
                self.ledger.rollback(mark)
            self.ledger.limit = budget
            if not self._started:
                self._started = True
                if self.seeds:
                    self._init_clusters()
            while not self._done:
                selected = self._select_growth()
                if selected is None:
                    self._done = True  # every remaining cluster holds all seeds
                    break
                cid, growth = selected
                old_range = self._clusters[cid].range
                try:
                    self.ledger.try_charge(growth.new_range, old_range)
                except BudgetExceeded:
                    self._pause = (copy.copy(self.rng), self.ledger.mark())
                    picks = self.ledger.charge_partial(
                        growth.new_range, old_range, self.rng
                    )
                    if isinstance(picks, list):  # the scalar and range-sum ledgers
                        picks = pack(picks)
                    break
                self.iterations += 1
                self._apply_growth(cid, growth)
                if growth.new_seed_count == len(self.seeds):
                    self._done = True  # all seeds unified into a single cluster

        result = SixGenResult(
            clusters=list(self._clusters.values()),
            seed_count=len(self.seeds),
            budget_limit=budget,
            budget_used=self.ledger.used,
            iterations=self.iterations,
            picks=picks,
            elapsed_seconds=time.perf_counter() - start,
        )
        if self.config.ledger == "exact":
            # The exact ledger already knows the deduplicated target set.
            result._covered = self.ledger.covered_columns()
        if tele.enabled:
            # Counts describe the returned result, so an extension
            # reports what a fresh run at its budget would; only the
            # seconds are the call's own.
            grown = sum(1 for c in result.clusters if not c.is_singleton())
            tele.count("sixgen.runs")
            tele.count(
                "sixgen.vector_runs" if self.vectorised
                else "sixgen.reference_runs"
            )
            tele.count("sixgen.seeds", result.seed_count)
            tele.count("sixgen.iterations", result.iterations)
            tele.count("sixgen.clusters_grown", grown)
            tele.count("sixgen.clusters_final", len(result.clusters))
            tele.count("sixgen.candidate_scans", self.candidate_scans)
            tele.count("sixgen.budget_used", result.budget_used)
            tele.count("sixgen.sampled_targets", len(picks[0]))
            tele.observe("sixgen.run_seconds", result.elapsed_seconds)
            if result._covered is not None:
                # generate.* metrics: the generation plane's output
                # rate, comparable across 6Gen and Entropy/IP runs.
                targets_total = result.target_count()
                tele.count("generate.targets_total", targets_total)
                if result.elapsed_seconds > 0:
                    tele.gauge(
                        "generate.targets_per_sec",
                        targets_total / result.elapsed_seconds,
                    )
            summary = {
                "seeds": result.seed_count,
                "iterations": result.iterations,
                "clusters": len(result.clusters),
                "clusters_grown": grown,
                "budget_used": result.budget_used,
                "budget_limit": result.budget_limit,
                "candidate_scans": self.candidate_scans,
                "kernel": "vector" if self.vectorised else "reference",
                "seconds": round(result.elapsed_seconds, 6),
            }
            if resumed_from is not None:
                summary["extended_from"] = resumed_from
            tele.event("sixgen_summary", summary)
        return result


def run_6gen(
    seeds: Sequence[int] | Iterable[int],
    budget: int,
    *,
    loose: bool = True,
    ledger: str = "exact",
    use_seed_matrix: bool = True,
    use_growth_cache: bool = True,
    use_vector_kernel: bool = True,
    rng_seed: int | None = 0,
    telemetry: Telemetry | None = None,
) -> SixGenResult:
    """Convenience wrapper: run 6Gen on a seed set with a probe budget.

    ``seeds`` may be address integers or :class:`~repro.ipv6.IPv6Addr`
    instances.  Returns a :class:`SixGenResult`; call
    :meth:`~SixGenResult.target_set` for the generated scan targets.
    ``telemetry`` (optional) records counters, the run span, and a
    summary event without perturbing the run in any way.
    """
    config = SixGenConfig(
        budget=budget,
        loose=loose,
        ledger=ledger,
        use_seed_matrix=use_seed_matrix,
        use_growth_cache=use_growth_cache,
        use_vector_kernel=use_vector_kernel,
        rng_seed=rng_seed,
    )
    return SixGen([int(s) for s in seeds], config, telemetry=telemetry).run()
