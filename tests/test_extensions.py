"""Tests for the §8 exploration drivers."""


from repro.analysis import extensions as ext

SCALE = 0.05
BUDGET = 1500


class TestCrossProtocol:
    def test_finds_dual_stack_hosts(self):
        result = ext.cross_protocol_experiment(
            seed_port=80, target_port=443, budget=BUDGET, scale=SCALE
        )
        assert result.seed_count > 0
        assert result.hits_on_target_port > 0
        assert 0.0 <= result.coverage <= 1.0
        assert "cross-protocol" in ext.format_cross_protocol(result)

    def test_seed_count_smaller_than_total(self):
        from repro.analysis.experiments import standard_context

        result = ext.cross_protocol_experiment(budget=BUDGET, scale=SCALE)
        context = standard_context(SCALE)
        assert result.seed_count <= len(context.seed_addresses)

    def test_service_population_ordering(self):
        # HTTPS is common on web hosts, SSH less so, SMTP rare.
        from repro.analysis.experiments import standard_context

        truth = standard_context(SCALE).internet.truth
        assert (
            truth.host_count(25)
            < truth.host_count(22)
            < truth.host_count(443)
            <= truth.host_count(80)
        )

    def test_smtp_hunting_works(self):
        result = ext.cross_protocol_experiment(
            seed_port=80, target_port=25, budget=BUDGET, scale=SCALE
        )
        assert result.hits_on_target_port > 0
        assert result.true_hosts_on_target_port > 0


class TestSeedTypes:
    def test_slices_ordered(self):
        rows = ext.seed_type_experiment(budget=BUDGET, scale=SCALE)
        by_type = {r.record_type: r for r in rows}
        full = by_type["AAAA (all)"]
        assert full.seed_count > by_type["NS"].seed_count
        assert full.raw_hits >= by_type["NS"].raw_hits
        assert full.raw_hits >= by_type["MX"].raw_hits
        assert "record type" in ext.format_seed_types(rows)

    def test_single_type_still_discovers(self):
        rows = ext.seed_type_experiment(budget=BUDGET, scale=SCALE)
        ns = [r for r in rows if r.record_type == "NS"][0]
        # NS seeds alone still find hosts beyond themselves
        assert ns.dealiased_hits > ns.seed_count


class TestPrefilter:
    def test_variants_ordered_by_seed_count(self):
        rows = ext.seed_prefilter_experiment(budget=BUDGET, scale=SCALE)
        assert [r.variant for r in rows] == [
            "all seeds", "active seeds", "active+dealiased",
        ]
        counts = [r.seed_count for r in rows]
        assert counts[0] >= counts[1] >= counts[2]
        assert "prefiltering" in ext.format_prefilter(rows)

    def test_dealiased_seeds_reduce_aliased_hits(self):
        rows = ext.seed_prefilter_experiment(budget=BUDGET, scale=SCALE)
        by_variant = {r.variant: r for r in rows}
        all_aliased = (
            by_variant["all seeds"].raw_hits
            - by_variant["all seeds"].dealiased_hits
        )
        filtered_aliased = (
            by_variant["active+dealiased"].raw_hits
            - by_variant["active+dealiased"].dealiased_hits
        )
        # dropping aliased seeds steers budget away from aliased space
        assert filtered_aliased < all_aliased


class TestBudgetAllocation:
    def test_equal_total_budgets(self):
        rows = ext.budget_allocation_experiment(
            budget_per_prefix=BUDGET, scale=SCALE
        )
        assert {r.policy for r in rows} == {"static", "seed-proportional"}
        static, prop = rows[0], rows[1]
        # totals within ~20 % of each other (integer division slack)
        assert abs(static.total_budget - prop.total_budget) < 0.2 * static.total_budget
        assert "allocation" in ext.format_allocation(rows)

    def test_both_policies_find_hits(self):
        rows = ext.budget_allocation_experiment(
            budget_per_prefix=BUDGET, scale=SCALE
        )
        assert all(r.dealiased_hits > 0 for r in rows)


class TestAdaptiveComparison:
    def test_adaptive_more_efficient_on_aliased_network(self):
        rows = ext.adaptive_vs_classic_experiment(budget=4000, scale=0.1)
        by_pipeline = {r.pipeline: r for r in rows}
        classic, adaptive = by_pipeline["classic"], by_pipeline["adaptive"]
        # the feedback loop wastes fewer probes on aliased space
        assert adaptive.aliased_responses < classic.aliased_responses
        assert adaptive.probes <= classic.probes
        assert "scanner integration" in ext.format_adaptive_comparison(rows)
