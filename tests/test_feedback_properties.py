"""Property-based tests for the §8 adaptive scanner (hypothesis).

Invariants: the probe budget is a hard ceiling, reported hits are a
subset of truly responsive addresses, determinism under a fixed RNG
seed, and region bookkeeping consistency.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feedback import run_adaptive
from repro.scanner.engine import Scanner
from repro.simnet.aliasing import AliasedRegionSet
from repro.simnet.ground_truth import GroundTruth


@st.composite
def worlds(draw):
    """A small ground truth plus a seed subset of its hosts."""
    network = draw(st.integers(min_value=0, max_value=(1 << 64) - 1)) << 64
    host_count = draw(st.integers(min_value=2, max_value=60))
    lows = draw(
        st.lists(
            st.integers(min_value=0, max_value=0x3FF),
            min_size=host_count,
            max_size=host_count,
            unique=True,
        )
    )
    hosts = {network | low for low in lows}
    seed_fraction = draw(st.integers(min_value=1, max_value=len(hosts)))
    seeds = sorted(hosts)[:seed_fraction]
    return hosts, seeds


budgets = st.integers(min_value=0, max_value=800)


def _scanner(hosts):
    return Scanner(GroundTruth({80: hosts}, AliasedRegionSet()), rng_seed=0)


class TestAdaptiveProperties:
    @settings(max_examples=20, deadline=None)
    @given(worlds(), budgets)
    def test_budget_ceiling_and_hit_validity(self, world, budget):
        hosts, seeds = world
        result = run_adaptive(seeds, _scanner(hosts), budget)
        assert result.probes_used <= budget
        assert result.hits <= hosts

    @settings(max_examples=15, deadline=None)
    @given(worlds(), budgets)
    def test_deterministic(self, world, budget):
        hosts, seeds = world
        a = run_adaptive(seeds, _scanner(hosts), budget, rng_seed=3)
        b = run_adaptive(seeds, _scanner(hosts), budget, rng_seed=3)
        assert a.hits == b.hits
        assert a.probes_used == b.probes_used

    @settings(max_examples=15, deadline=None)
    @given(worlds(), budgets)
    def test_region_probes_sum(self, world, budget):
        hosts, seeds = world
        result = run_adaptive(seeds, _scanner(hosts), budget, rounds=1)
        assert sum(r.probes for r in result.regions) == result.probes_used
        assert sum(r.hits for r in result.regions) == len(result.hits)

