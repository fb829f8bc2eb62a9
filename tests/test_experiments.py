"""Tests for the experiment drivers (fast, tiny-scale runs).

Each driver must execute and produce shape-consistent output; the
full-scale shape checks live in the benchmark harness and
EXPERIMENTS.md.
"""

import pytest

from repro.analysis import experiments as ex

SCALE = 0.05
BUDGET = 1500


@pytest.fixture(scope="module", autouse=True)
def _warm_cache():
    # Build the context once for every driver in this module.
    ex.standard_context(SCALE)
    yield


class TestContext:
    def test_cached(self):
        a = ex.standard_context(SCALE)
        b = ex.standard_context(SCALE)
        assert a is b

    def test_groups_match_seeds(self):
        context = ex.standard_context(SCALE)
        grouped = sum(len(v) for v in context.groups.values())
        assert grouped == len(context.seed_addresses)


class TestFig2:
    def test_rows(self):
        rows = ex.fig2_runtime(seed_counts=(10, 50), repeats=2, scale=SCALE, budget=500)
        assert [r.seed_count for r in rows] == [10, 50]
        assert all(r.median_seconds > 0 for r in rows)
        assert "Figure 2" in ex.format_fig2(rows)


class TestScanDrivers:
    def test_fig3_series(self):
        series = ex.fig3_asn_cdf(budget=BUDGET, scale=SCALE)
        assert [s.label for s in series] == [
            "Seed Addresses", "Aliased Hits", "Non-Aliased Hits",
        ]
        for s in series:
            if s.points:
                assert s.points[-1][1] == pytest.approx(1.0)
        assert "Figure 3" in ex.format_fig3(series)

    def test_table1(self):
        table = ex.table1_top_ases(budget=BUDGET, scale=SCALE)
        assert table.seeds and table.clean
        assert sum(r.share for r in table.seeds) <= 1.0 + 1e-9
        assert "Table 1" in ex.format_table1(table)

    def test_fig5(self):
        buckets = ex.fig5_cluster_census(budget=BUDGET, scale=SCALE)
        assert buckets
        assert "Figure 5" in ex.format_fig5(buckets)

    def test_fig6_bimodal(self):
        portions = ex.fig6_dynamic_nybbles(budget=BUDGET, scale=SCALE)
        assert len(portions) == 32
        # the paper's second mode: low nybbles dominate
        assert max(portions[28:]) > max(portions[:8])
        assert "Figure 6" in ex.format_fig6(portions)

    def test_fig7(self):
        rows = ex.fig7_hits_by_seeds(budget=BUDGET, scale=SCALE)
        assert rows
        assert "Figure 7" in ex.format_fig7(rows)

    def test_aliasing_census(self):
        census = ex.aliasing_census(budget=BUDGET, scale=SCALE)
        assert census.hit_prefixes_96 >= census.aliased_prefixes_96
        assert 0 <= census.aliased_hit_fraction <= 1
        assert "§6.2" in ex.format_aliasing_census(census)


class TestSweepDrivers:
    def test_fig4_monotone_raw(self):
        rows = ex.fig4_budget_sweep(budgets=(200, 800, 2000), scale=SCALE)
        raw = [r.raw_hits for r in rows]
        assert raw == sorted(raw)
        assert "Figure 4" in ex.format_fig4(rows)

    def test_tight_vs_loose(self):
        rows = ex.tight_vs_loose(budget=BUDGET, scale=SCALE)
        assert {r.mode for r in rows} == {"loose", "tight"}
        assert "§6.3" in ex.format_tight_vs_loose(rows)

    def test_table2_full_level_is_unity(self):
        rows = ex.table2_downsampling(levels=(0.25, 1.0), budget=BUDGET, scale=SCALE)
        full = [r for r in rows if r.level == 1.0][0]
        assert full.raw_vs_all == pytest.approx(1.0)
        assert full.dealiased_vs_all == pytest.approx(1.0)
        quarter = [r for r in rows if r.level == 0.25][0]
        assert quarter.raw_hits <= full.raw_hits
        assert "Table 2" in ex.format_table2(rows)

    def test_ns_experiment(self):
        result = ex.ns_seed_experiment(budget=BUDGET, scale=SCALE)
        assert result.ns_seed_count < result.full_seed_count
        assert result.ns_raw_hits <= result.full_raw_hits
        assert "§6.7.1" in ex.format_ns_experiment(result)


class TestCdnDrivers:
    def test_fig8_small(self):
        curves = ex.fig8_traintest(
            budgets=(500, 2000), dataset_size=600, cdn_indices=(3, 5)
        )
        assert len(curves) == 4
        by_cdn = {}
        for curve in curves:
            by_cdn.setdefault(curve.cdn, {})[curve.algorithm] = curve
        # 6Gen >= Entropy/IP on CDN3 at the top budget (paper headline)
        g6 = by_cdn["CDN3"]["6Gen"].points[-1].fraction
        eip = by_cdn["CDN3"]["Entropy/IP"].points[-1].fraction
        assert g6 >= eip
        assert "Figure 8" in ex.format_fig8(curves)

    def test_fig9_small(self):
        curves = ex.fig9_cdn_scan(
            budgets=(500, 2000), dataset_size=600, cdn_indices=(4,)
        )
        assert len(curves) == 2
        for curve in curves:
            # CDN4 is aliased: raw >= filtered everywhere
            assert all(r >= f for r, f in zip(curve.raw_hits, curve.filtered_hits))
        assert "Figure 9" in ex.format_fig9(curves)


class TestChurn:
    def test_analysis_consistent(self):
        analysis = ex.churn_analysis(budget=BUDGET, scale=SCALE)
        assert 0 <= analysis.prefixes_net_positive <= analysis.prefixes_considered
        assert analysis.total_inactive_seeds >= 0
        assert "§6.6" in ex.format_churn(analysis)

    def test_net_positive_exists(self):
        analysis = ex.churn_analysis(budget=BUDGET, scale=SCALE)
        assert analysis.net_positive_fraction > 0


class TestFig5Cdfs:
    def test_cdf_series_shape(self):
        series = ex.fig5_cluster_cdfs(budget=BUDGET, scale=SCALE)
        assert series
        kinds = {s.kind for s in series}
        assert kinds == {"singleton", "grown"}
        for s in series:
            fracs = [f for _, f in s.points]
            assert fracs == sorted(fracs)
            assert fracs[-1] == pytest.approx(1.0)


class TestStandardPassReuse:
    def test_standard_rows_start_no_campaign(self, monkeypatch):
        # With the cache warm, the rows that are the standard pass read
        # it; only the other rows start a campaign (stubbed to empty).
        from types import SimpleNamespace

        from repro.analysis import extensions as ext
        from repro.campaign import CampaignSpec

        cached = ex.standard_outcome(BUDGET, SCALE)
        context = ex.standard_context(SCALE)
        standard = CampaignSpec(budget=BUDGET)
        started = []

        class StubCampaign:
            def __init__(self, truth, bgp, groups, spec):
                # Raising keeps a stub result out of standard_outcome's cache.
                if groups == context.groups and spec == standard:
                    raise AssertionError("the standard pass was started again")
                started.append(spec)

            def run(self):
                return SimpleNamespace(raw_hits=set(), clean_hits=set())

        monkeypatch.setattr(ex, "Campaign", StubCampaign)
        hits = (len(cached.raw_hits), len(cached.clean_hits))
        loose = ex.tight_vs_loose(budget=BUDGET, scale=SCALE)[0]
        assert (loose.mode, loose.raw_hits, loose.dealiased_hits) == ("loose", *hits)
        full = ex.table2_downsampling(levels=(0.25, 1.0), budget=BUDGET, scale=SCALE)
        assert (full[-1].raw_hits, full[-1].dealiased_hits) == hits
        tcp = ext.probe_type_experiment(budget=BUDGET, scale=SCALE)[0]
        assert (tcp.probe, tcp.raw_hits, tcp.dealiased_hits) == ("TCP/80", *hits)
        aaaa = ext.seed_type_experiment(budget=BUDGET, scale=SCALE)[0]
        assert (aaaa.record_type, aaaa.raw_hits, aaaa.dealiased_hits) == (
            "AAAA (all)", *hits,
        )
        every = ext.seed_prefilter_experiment(budget=BUDGET, scale=SCALE)[0]
        assert (every.variant, every.raw_hits, every.dealiased_hits) == (
            "all seeds", *hits,
        )
        # tight, level 0.25, ICMPv6, the NS/MX slices and two prefilters
        assert len(started) >= 5


def _campaign(spec, checkpoint_path=None):
    from repro.campaign import Campaign

    context = ex.standard_context(SCALE)
    return Campaign(
        context.internet.truth, context.internet.bgp, context.groups, spec,
        checkpoint_path=checkpoint_path,
    )


class TestCampaignResume:
    def test_crash_resume_matches_uninterrupted(self, tmp_path):
        from dataclasses import replace

        from repro.campaign import CampaignSpec
        from repro.faults import InjectedWorkerCrash, WorkerCrash
        from repro.scanner.engine import ScanConfig

        spec = CampaignSpec(
            budget=BUDGET, scan_config=ScanConfig(batch_size=64, retries=1)
        )
        baseline = _campaign(spec).run()

        path = str(tmp_path / "campaign.jsonl")
        with pytest.raises(InjectedWorkerCrash):
            _campaign(replace(spec, checkpoint_every=2), path).run(
                crash=WorkerCrash(at_batch=3)
            )
        resumed = _campaign(spec, path).run(resume=True)
        assert resumed.raw_hits == baseline.raw_hits
        assert resumed.clean_hits == baseline.clean_hits
        assert resumed.probes_sent == baseline.probes_sent

    def test_resume_with_empty_file_starts_fresh(self, tmp_path):
        from repro.campaign import CampaignSpec

        path = str(tmp_path / "missing.jsonl")
        result = _campaign(CampaignSpec(budget=BUDGET), path).run(resume=True)
        baseline = ex.run_full_scan(ex.standard_context(SCALE), BUDGET)
        assert result.raw_hits == baseline.raw_hits
