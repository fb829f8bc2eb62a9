"""§6.2: the aliasing census.

Paper numbers: 98 % of responsive /96 prefixes aliased; >98 % of raw
hits inside aliased space at the 1 M budget; aliasing confined to ~1.9 %
of ASes; Cloudflare and Mittwald aliased at /112 (found via AS-level
inspection); Akamai holding over half of aliased hits.
"""

from repro.analysis import experiments as ex
from repro.scanner.dealias import dealias, reference_dealias
from repro.scanner.engine import Scanner

from conftest import BENCH_BUDGET, BENCH_SCALE


def test_aliasing_census(benchmark, save_result):
    def run():
        return ex.aliasing_census(budget=BENCH_BUDGET, scale=BENCH_SCALE)

    census = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("dealias_census", ex.format_aliasing_census(census))

    # Aliased hits dominate the raw hit set (grows toward the paper's
    # 98 % as budget rises; at the bench budget it is already dominant).
    assert census.aliased_hit_fraction > 0.7
    # The /112-granularity ASes are exactly the paper's two.
    assert set(census.aliased_asns) == {"Cloudflare", "Mittwald"}
    # Aliased hits concentrate in a handful of ASes.
    assert len(census.top_aliased_shares) <= 5
    assert sum(r.share for r in census.top_aliased_shares) > 0.9

    # The column-native dealiasing equals the per-hit oracle over the
    # census world's /96s and real AS mix: the same report and the same
    # probes, each on a fresh scanner over the same truth.
    outcome = ex.standard_outcome(BENCH_BUDGET, BENCH_SCALE)
    internet = ex.standard_context(BENCH_SCALE).internet
    column_scanner = Scanner(internet.truth)
    column = dealias(outcome.raw_hits, column_scanner, internet.bgp)
    oracle_scanner = Scanner(internet.truth)
    oracle = reference_dealias(outcome.raw_hits, oracle_scanner, internet.bgp)
    assert column == outcome.report
    assert column == oracle
    assert column_scanner.total_probes == oracle_scanner.total_probes


def test_ns_seed_experiment(benchmark, save_result):
    """§6.7.1: NS-only seeds still find hosts, the full set finds multiples more."""

    def run():
        return ex.ns_seed_experiment(budget=BENCH_BUDGET, scale=BENCH_SCALE)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ns_seeds", ex.format_ns_experiment(result))

    # NS seeds alone still discover a meaningful number of hosts...
    assert result.ns_dealiased_hits > 0
    # ...but the full seed set finds several times more (paper: ~5x
    # dealiased, ~19x raw).
    assert result.dealiased_ratio > 2.0
    assert result.raw_ratio > 2.0


def test_churn_analysis(benchmark, save_result):
    """§6.6: some prefixes' hits exceed their inactive seeds (net-new)."""

    def run():
        return ex.churn_analysis(budget=BENCH_BUDGET, scale=BENCH_SCALE)

    analysis = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("churn_analysis", ex.format_churn(analysis))

    # The paper: a quarter of prefixes show net-new discovery, proving
    # hits are not just churned seeds reappearing.
    assert analysis.prefixes_net_positive > 0
    assert analysis.net_positive_fraction > 0.1
    assert analysis.total_inactive_seeds > 0
