"""A paused 6Gen run extended to a larger budget equals a fresh run.

:meth:`SixGen.extend` resumes a run from its first refused growth
instead of re-running it from the seeds.  Along any non-decreasing
ladder of budgets, every rung's result must equal a fresh run's at that
budget: clusters in order, final-growth picks in order, budget use,
iterations, both target column orders and the generator state
afterwards.  Results returned at earlier rungs must not change.  The
ladders include 0, repeated budgets and budgets past the point where
every seed is unified, on both kernels, loose and tight ranges, and
the exact (column and scalar) and range-sum ledgers.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sixgen import SixGen, SixGenConfig, run_6gen
from repro.telemetry import MemorySink, Telemetry


def make_pool(rng: random.Random, n: int, networks: int, wide: bool) -> list[int]:
    """``n`` seeds in ``networks`` networks, varying in their low 12 bits.

    One network spans at most 4,096 addresses, so moderate budgets
    unify it.  ``wide`` also varies one nybble further up, so final
    growths are large enough for rejection sampling.
    """
    bases = [rng.getrandbits(128) & ~((1 << 48) - 1) for _ in range(networks)]
    seeds: set[int] = set()
    while len(seeds) < n:
        low = rng.getrandbits(12)
        if wide:
            low |= rng.getrandbits(4) << (4 * rng.randrange(3, 12))
        seeds.add(rng.choice(bases) | low)
    return sorted(seeds)


def signature(result) -> tuple:
    """Everything a fresh run and an extension must agree on."""
    return (
        [(c.range.masks, c.seed_count) for c in result.clusters],
        result.sampled,
        result.budget_limit,
        result.budget_used,
        result.iterations,
        [col.tolist() for col in result.target_columns()],
        [col.tolist() for col in result.target_columns_by_density()],
    )


def fresh(seeds, config: SixGenConfig, budget: int):
    """A from-scratch run at ``budget`` and its generator state after."""
    gen = SixGen(seeds, dataclasses.replace(config, budget=budget))
    return signature(gen.run()), gen.rng.getstate()


@st.composite
def ladders(draw) -> list[int]:
    """Non-decreasing budgets; 0, repeats and unifying budgets are common."""
    rung = st.one_of(
        st.just(0), st.integers(0, 300), st.integers(0, 6000), st.just(6000)
    )
    budgets = draw(st.lists(rung, min_size=1, max_size=5))
    if draw(st.booleans()):
        budgets.append(draw(st.sampled_from(budgets)))
    return sorted(budgets)


KERNELS = [
    pytest.param(True, "exact", id="vector-exact"),
    pytest.param(True, "range-sum", id="vector-range-sum"),
    pytest.param(False, "exact", id="reference-scalar-exact"),
    pytest.param(False, "range-sum", id="reference-range-sum"),
]


class TestExtendEqualsFreshRun:
    @pytest.mark.parametrize("vector,ledger", KERNELS)
    @settings(max_examples=20, deadline=None)
    @given(
        pool_seed=st.integers(0, 2**32),
        n=st.integers(0, 24),
        networks=st.integers(1, 3),
        wide=st.booleans(),
        loose=st.booleans(),
        ladder=ladders(),
    )
    def test_every_rung_matches(
        self, vector, ledger, pool_seed, n, networks, wide, loose, ladder
    ):
        seeds = make_pool(random.Random(pool_seed), n, networks, wide)
        config = SixGenConfig(
            budget=ladder[0], loose=loose, ledger=ledger,
            use_vector_kernel=vector, rng_seed=pool_seed % 97,
        )
        gen = SixGen(seeds, config)
        results, expected = [], []
        for budget in ladder:
            result = gen.run() if not results else gen.extend(budget)
            want, state = fresh(seeds, config, budget)
            assert signature(result) == want
            assert gen.rng.getstate() == state
            results.append(result)
            expected.append(want)
        # Later extends leave earlier results as they were.
        assert [signature(r) for r in results] == expected
        if ladder[-1] > 0:
            with pytest.raises(ValueError, match="cannot extend"):
                gen.extend(ladder[-1] - 1)


class TestExtendEdges:
    def test_unified_run_stays_put(self):
        seeds = make_pool(random.Random(4), 12, 1, False)
        gen = SixGen(seeds, SixGenConfig(budget=6000))
        first = gen.run()
        assert any(c.seed_count == len(seeds) for c in first.clusters)
        state = gen.rng.getstate()
        later = gen.extend(50_000)
        assert later.budget_limit == 50_000
        assert signature(later)[:2] == signature(first)[:2]
        assert later.iterations == first.iterations
        assert later.budget_used == first.budget_used
        assert gen.rng.getstate() == state

    def test_no_seeds(self):
        gen = SixGen([], SixGenConfig(budget=10))
        assert gen.run().target_count() == 0
        result = gen.extend(100)
        assert result.budget_limit == 100
        assert result.clusters == [] and result.budget_used == 0

    def test_extend_from_zero_matches_run_6gen(self):
        seeds = make_pool(random.Random(9), 20, 2, True)
        gen = SixGen(seeds, SixGenConfig(budget=0))
        assert gen.run().budget_used == 0
        extended = gen.extend(2500)
        assert signature(extended) == signature(run_6gen(seeds, 2500))

    def test_smaller_budget_is_refused(self):
        gen = SixGen(make_pool(random.Random(1), 8, 1, False), SixGenConfig(budget=40))
        gen.run()
        with pytest.raises(ValueError, match="cannot extend"):
            gen.extend(39)
        # A refused call changes nothing: the run still extends exactly.
        assert signature(gen.extend(400)) == signature(
            run_6gen(make_pool(random.Random(1), 8, 1, False), 400)
        )

    def test_telemetry_reports_the_result_as_a_fresh_run(self):
        """An extension's summary equals a fresh run's but for its own
        seconds, and names the budget it resumed from."""
        seeds = make_pool(random.Random(3), 20, 2, True)
        sink = MemorySink()
        gen = SixGen(seeds, SixGenConfig(budget=300), telemetry=Telemetry(sink))
        gen.run()
        gen.extend(3000)
        fresh_sink = MemorySink()
        run_6gen(seeds, 3000, telemetry=Telemetry(fresh_sink))

        def summaries(events):
            return [
                {k: v for k, v in e.items() if k != "seconds"}
                for e in events if e["event"] == "sixgen_summary"
            ]

        first, extended = summaries(sink.events)
        assert "extended_from" not in first
        assert extended.pop("extended_from") == 300
        assert [extended] == summaries(fresh_sink.events)
        spans = [e for e in sink.events if e["event"] == "span"]
        assert [s["attrs"] for s in spans] == [
            {"seeds": len(seeds), "budget": 300},
            {"seeds": len(seeds), "budget": 3000, "extended_from": 300},
        ]
