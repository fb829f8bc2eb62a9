"""End-to-end integration tests: sim → seeds → TGA → scan → dealias.

These exercise the full §6 pipeline at a reduced scale and assert the
paper's qualitative findings hold in the reproduction.
"""

import pytest

from repro.campaign import generate_per_prefix
from repro.core.sixgen import run_6gen
from repro.scanner.dealias import dealias
from repro.scanner.engine import Scanner
from repro.simnet.bgp import group_by_routed_prefix


@pytest.fixture(scope="module")
def pipeline(tiny_internet_module, tiny_seeds_module):
    internet, seeds = tiny_internet_module, tiny_seeds_module
    groups = group_by_routed_prefix(seeds.addresses(), internet.bgp)
    run = generate_per_prefix(groups, 2000)
    scanner = Scanner(internet.truth)
    scan = scanner.scan(run.all_targets())
    report = dealias(scan.hits, scanner, internet.bgp)
    return internet, seeds, groups, run, scan, report


@pytest.fixture(scope="module")
def tiny_internet_module():
    from repro.simnet import default_internet

    return default_internet(scale=0.1, rng_seed=42)


@pytest.fixture(scope="module")
def tiny_seeds_module(tiny_internet_module):
    from repro.simnet import collect_seeds

    return collect_seeds(tiny_internet_module, rng_seed=7)


class TestPipeline:
    def test_finds_new_hosts(self, pipeline):
        internet, seeds, groups, run, scan, report = pipeline
        new_clean = report.clean_hits - set(seeds.addresses())
        assert len(new_clean) > 100  # 6Gen discovers unseen hosts

    def test_aliased_hits_dominate_raw(self, pipeline):
        # the paper's central measurement finding (§6.2)
        internet, seeds, groups, run, scan, report = pipeline
        assert report.aliased_fraction() > 0.4

    def test_no_ground_truth_aliased_leaks_into_clean(self, pipeline):
        internet, seeds, groups, run, scan, report = pipeline
        leaked = [h for h in report.clean_hits if internet.truth.is_aliased(h)]
        assert leaked == []

    def test_clean_hits_are_real_hosts(self, pipeline):
        internet, seeds, groups, run, scan, report = pipeline
        hosts = internet.truth.hosts(80)
        assert all(h in hosts for h in report.clean_hits)

    def test_budget_respected_per_prefix(self, pipeline):
        internet, seeds, groups, run, scan, report = pipeline
        for prefix_run in run.runs.values():
            assert prefix_run.result.budget_used <= prefix_run.budget

    def test_aliasing_concentrated(self, pipeline):
        internet, seeds, groups, run, scan, report = pipeline
        aliased_asns = {
            internet.bgp.origin_asn(h) for h in report.aliased_hits
        }
        assert len(aliased_asns) <= 8  # few ASes hold all aliasing

    def test_112_granularity_ases_flagged(self, pipeline):
        internet, seeds, groups, run, scan, report = pipeline
        flagged_names = {internet.as_name(a) for a in report.aliased_asns}
        assert flagged_names <= {"Cloudflare", "Mittwald"}


class TestCrossAlgorithm:
    def test_6gen_beats_random_on_structure(self, tiny_internet_module, tiny_seeds_module):
        from repro.baselines.random_gen import run_random

        internet, seeds = tiny_internet_module, tiny_seeds_module
        groups = group_by_routed_prefix(seeds.addresses(), internet.bgp)
        prefix, prefix_seeds = max(groups.items(), key=lambda kv: len(kv[1]))
        scanner = Scanner(internet.truth)
        budget = 2000

        sixgen_targets = run_6gen(prefix_seeds, budget).new_targets(prefix_seeds)
        random_targets = run_random(prefix_seeds, budget)
        sixgen_hits = scanner.scan(sixgen_targets).hit_count()
        random_hits = scanner.scan(random_targets).hit_count()
        assert sixgen_hits > max(4 * random_hits, 10)

    def test_churn_analysis_possible(self, pipeline):
        # §6.6: for some prefixes, hits exceed inactive seeds — proof of
        # genuinely new discoveries rather than churn.
        internet, seeds, groups, run, scan, report = pipeline
        from repro.analysis.metrics import hits_per_prefix

        counts = hits_per_prefix(report.clean_hits, groups)
        inactive = {
            prefix: sum(
                1 for s in prefix_seeds if not internet.truth.is_responsive(s)
            )
            for prefix, prefix_seeds in groups.items()
        }
        positive = [
            prefix
            for prefix in groups
            if counts[prefix] - inactive[prefix] > 0
        ]
        assert positive  # at least some prefixes show net-new discovery
