"""Tests for predictive, budget-aware probe selection (repro.predictive).

Covers the feature extractor over the packed column plane, the binned
Beta-posterior hit-rate model (idempotence is what makes resume safe),
deterministic integer apportionment, and the phased campaign path:
allocation determinism across worker counts, checkpoint/resume parity
including the allocator's model state, AllocationPolicy-off parity,
and tenant-ledger bounding through the service.
"""

import os
import weakref

import pytest

from repro.analysis import experiments as ex
from repro.campaign import (
    AllocationPolicy,
    Campaign,
    CampaignSpec,
    PrefixProgress,
)
from repro.campaign.generate import generate_per_prefix
from repro.ipv6.addrplane import pack
from repro.predictive import (
    HitRateModel,
    PredictiveAllocator,
    extract_features,
    largest_remainder_split,
    policy_labels,
)
from repro.scanner.dealias import dealias
from repro.scanner.engine import ScanConfig, Scanner
from repro.service import CampaignService, TenantPolicy

SCALE = 0.05
BUDGET = 300


def _context():
    return ex.standard_context(SCALE)


def _spec(**overrides):
    defaults = dict(
        budget=BUDGET, scan_config=ScanConfig(batch_size=64, retries=1)
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def _allocator(context, **overrides):
    defaults = dict(phases=3, policy_labels=policy_labels(context.internet))
    defaults.update(overrides)
    return PredictiveAllocator(**defaults)


def _campaign(context, spec, **kwargs):
    return Campaign(
        context.internet.truth, context.internet.bgp, context.groups, spec,
        **kwargs,
    )


def _progress_snapshot(campaign):
    return {
        str(prefix): (state.probes, state.hits, state.allocated)
        for prefix, state in campaign.progress.items()
    }


class TestFeatures:
    def test_columns_and_ints_agree(self):
        seeds = [
            (0x20010DB8 << 96) | (subnet << 64) | host
            for subnet in range(4)
            for host in (1, 2, 0x1000 + subnet)
        ]
        assert extract_features(pack(sorted(seeds))) == extract_features(seeds)

    def test_density_separates_regimes(self):
        dense = [(0x2001 << 112) | h for h in range(1, 65)]  # one /64
        sparse = [
            (0x2001 << 112) | (s << 64) | 1 for s in range(64)
        ]  # one host per /64
        dense_f = extract_features(dense)
        sparse_f = extract_features(sparse)
        assert dense_f.seed_density > sparse_f.seed_density
        assert dense_f.subnet_count == 1
        assert sparse_f.subnet_count == 64

    def test_empty_seed_set_rejected(self):
        with pytest.raises(ValueError):
            extract_features([])

    def test_policy_label_passthrough(self):
        features = extract_features([1, 2, 3], policy="low-byte")
        assert features.policy == "low-byte"

    def test_simnet_policy_labels(self):
        context = _context()
        labels = policy_labels(context.internet)
        assert labels  # every built network is labelled
        assert all(isinstance(name, str) for name in labels.values())


class TestHitRateModel:
    def _features(self):
        return extract_features([(0x2001 << 112) | h for h in range(1, 9)])

    def test_observe_is_idempotent_per_phase(self):
        model = HitRateModel()
        features = self._features()
        assert model.observe(1, "p", features, 100, 10) is True
        before = model.state()
        assert model.observe(1, "p", features, 100, 10) is False
        assert model.state() == before

    def test_observe_total_folds_delta(self):
        incremental = HitRateModel()
        features = self._features()
        incremental.observe(1, "p", features, 100, 10)
        incremental.observe(2, "p", features, 50, 20)
        cumulative = HitRateModel()
        cumulative.observe_total(1, "p", features, 100, 10)
        cumulative.observe_total(2, "p", features, 150, 30)
        assert incremental.state() == cumulative.state()

    def test_prediction_shrinks_toward_bin(self):
        model = HitRateModel(prior_strength=32.0)
        features = self._features()
        # A sibling prefix in the same bin establishes the pool.
        model.observe(1, "sibling", features, 1000, 500)
        # Our prefix has one unlucky probe; the pool should dominate.
        model.observe(1, "p", features, 1, 0)
        assert model.predict("p", features) > 0.3
        # Lots of own evidence overrides the pool.
        model.observe(2, "p", features, 2000, 0)
        assert model.predict("p", features) < 0.05

    def test_invalid_observation_rejected(self):
        model = HitRateModel()
        with pytest.raises(ValueError):
            model.observe(0, "p", self._features(), 5, 6)


class TestLargestRemainderSplit:
    def test_exact_and_proportional(self):
        out = largest_remainder_split(10, {"a": 2.0, "b": 1.0, "c": 1.0})
        assert sum(out.values()) == 10
        assert out["a"] == 5

    def test_zero_weights_get_nothing(self):
        out = largest_remainder_split(7, {"a": 0.0, "b": 2.0, "c": 1.0})
        assert out["a"] == 0
        assert sum(out.values()) == 7

    def test_all_zero_weights_fall_back_to_uniform(self):
        out = largest_remainder_split(10, {"a": 0.0, "b": 0.0, "c": 0.0})
        assert sum(out.values()) == 10
        assert max(out.values()) - min(out.values()) <= 1

    def test_iteration_order_does_not_matter(self):
        weights = {"a": 1.3, "b": 2.1, "c": 0.6}
        reversed_weights = dict(reversed(list(weights.items())))
        assert largest_remainder_split(11, weights) == largest_remainder_split(
            11, reversed_weights
        )


class TestPhasedCampaign:
    def test_satisfies_allocation_protocol(self):
        assert isinstance(_allocator(_context()), AllocationPolicy)

    def test_budget_never_exceeded(self):
        context = _context()
        campaign = _campaign(context, _spec(), allocation=_allocator(context))
        result = campaign.run()
        assert result.probes_sent <= BUDGET * len(campaign.progress)

    def test_progress_accounts_every_probe(self):
        context = _context()
        campaign = _campaign(context, _spec(), allocation=_allocator(context))
        result = campaign.run()
        assert (
            sum(state.probes for state in campaign.progress.values())
            + campaign.alias_probes
            == result.probes_sent
        )
        assert (
            sum(state.hits for state in campaign.progress.values())
            == len(result.raw_hits) - len(campaign.aliased_hits)
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_deterministic_at_any_worker_count(self, workers):
        """Plans, hits, and stats are identical at every worker count."""
        context = _context()
        baseline = _campaign(
            context, _spec(), allocation=_allocator(context)
        )
        base_result = baseline.run()
        spec = _spec(
            scan_config=ScanConfig(batch_size=64, retries=1, workers=workers),
            gen_workers=workers,
        )
        campaign = _campaign(context, spec, allocation=_allocator(context))
        result = campaign.run()
        assert result.raw_hits == base_result.raw_hits
        assert result.scan.stats == base_result.scan.stats
        assert _progress_snapshot(campaign) == _progress_snapshot(baseline)

    def test_allocation_off_matches_reference_pipeline(self):
        """allocation=None is byte-for-byte the pre-hook campaign."""
        context = _context()
        spec = _spec()
        run = generate_per_prefix(context.groups, spec.budget, loose=spec.loose)
        scanner = Scanner(context.internet.truth, config=spec.scan_config)
        scan = scanner.scan(run.iter_target_columns(), port=spec.port)
        report = dealias(
            scan.hits, scanner, context.internet.bgp, port=spec.port
        )
        result = _campaign(context, spec).run()
        assert result.raw_hits == scan.hits
        assert result.scan.stats == scan.stats
        assert result.clean_hits == report.clean_hits

    def test_rejects_explicit_targets(self):
        context = _context()
        with pytest.raises(ValueError, match="explicit target list"):
            _campaign(
                context, _spec(),
                allocation=_allocator(context), targets=[1, 2, 3],
            )

    def test_alias_guard_zero_weights_fully_responsive_prefix(self):
        """An observed rate above the guard gets no predictive share."""
        context = _context()
        hot, cold = sorted(context.groups)[:2]
        progress = {
            prefix: PrefixProgress(
                prefix=prefix,
                seeds=len(context.groups[prefix]),
                features=extract_features(
                    [int(s) for s in context.groups[prefix]]
                ),
            )
            for prefix in (hot, cold)
        }
        progress[hot].probes, progress[hot].hits = 100, 100
        progress[cold].probes, progress[cold].hits = 100, 30
        plan = _allocator(context, alias_guard=0.9).plan(1, 1000, progress)
        assert plan[hot] == 0
        assert plan[cold] > 0

    def test_inloop_alias_discount_matches_truth(self):
        """Every hit the phase loop discounts is truly aliased space."""
        context = _context()
        spec = _spec()
        campaign = _campaign(context, spec, allocation=_allocator(context))
        result = campaign.run()
        assert campaign.aliased_hits <= result.raw_hits
        truth = context.internet.truth
        for addr in campaign.aliased_hits:
            assert truth.is_aliased(addr, spec.port)
        if campaign.aliased_hits:
            assert campaign.alias_probes > 0


class TestPhasedBudget:
    """Regression: a phase's in-loop alias tests once spent probes after
    its scan had already used up the campaign's remaining budget
    (4,070 probes against 4,000 here, 9,122 against 8,000 for 16
    prefixes over 2 phases)."""

    @staticmethod
    def _make(prefixes, phases, path=None):
        context = ex.standard_context(0.3)
        groups = context.groups
        largest = sorted(groups, key=lambda p: (-len(groups[p]), str(p)))
        return Campaign(
            context.internet.truth, context.internet.bgp,
            {prefix: groups[prefix] for prefix in largest[:prefixes]},
            CampaignSpec(budget=500),
            allocation=PredictiveAllocator(phases=phases),
            checkpoint_path=path,
        )

    @pytest.mark.parametrize("prefixes, phases", [(8, 3), (16, 2)])
    def test_alias_tests_fit_the_budget(self, tmp_path, prefixes, phases):
        baseline = self._make(prefixes, phases)
        base_result = baseline.run()
        assert baseline.alias_probes > 0
        assert base_result.probes_sent <= 500 * len(baseline.progress)

        path = os.fspath(tmp_path / "phased.jsonl")
        first = self._make(prefixes, phases, path)
        first.begin()
        for _ in range(phases):
            if not first.step():
                break
        first.interrupt()
        resumed = self._make(prefixes, phases, path)
        result = resumed.run(resume=True)
        assert result.raw_hits == base_result.raw_hits
        assert result.scan.stats == base_result.scan.stats
        assert resumed.alias_probes == baseline.alias_probes
        assert _progress_snapshot(resumed) == _progress_snapshot(baseline)


class TestPhasedResume:
    def _make(self, context, path=None):
        allocator = _allocator(context)
        campaign = _campaign(
            context, _spec(), allocation=allocator, checkpoint_path=path
        )
        return campaign, allocator

    @pytest.mark.parametrize("cut_steps", [15, 60, 120])
    def test_resume_is_bit_identical(self, tmp_path, cut_steps):
        context = _context()
        baseline, base_alloc = self._make(context)
        base_result = baseline.run()

        path = os.fspath(tmp_path / "phased.jsonl")
        first, _ = self._make(context, path)
        first.begin()
        steps = 0
        while steps < cut_steps and first.step():
            steps += 1
        first.interrupt()

        resumed, resumed_alloc = self._make(context, path)
        result = resumed.run(resume=True)
        assert result.raw_hits == base_result.raw_hits
        assert result.scan.stats == base_result.scan.stats
        assert result.clean_hits == base_result.clean_hits
        assert _progress_snapshot(resumed) == _progress_snapshot(baseline)
        assert resumed.alias_probes == baseline.alias_probes
        assert resumed.aliased_hits == baseline.aliased_hits
        # Model idempotence: replaying recorded phases rebuilds the
        # allocator's model observation-for-observation.
        assert resumed_alloc.model.state() == base_alloc.model.state()

    def test_resume_after_completion_is_identical(self, tmp_path):
        context = _context()
        baseline, base_alloc = self._make(context)
        base_result = baseline.run()
        path = os.fspath(tmp_path / "phased.jsonl")
        first, _ = self._make(context, path)
        first.begin()
        while first.step():
            pass
        first.interrupt()
        resumed, resumed_alloc = self._make(context, path)
        result = resumed.run(resume=True)
        assert result.raw_hits == base_result.raw_hits
        assert result.scan.stats == base_result.scan.stats
        assert resumed_alloc.model.state() == base_alloc.model.state()

    def test_mismatched_policy_is_rejected(self, tmp_path):
        context = _context()
        path = os.fspath(tmp_path / "phased.jsonl")
        first, _ = self._make(context, path)
        first.begin()
        for _ in range(60):
            if not first.step():
                break
        first.interrupt()
        # Resume under a different pilot fraction re-plans differently.
        campaign = _campaign(
            context, _spec(),
            allocation=_allocator(context, pilot_fraction=0.5),
            checkpoint_path=path,
        )
        with pytest.raises(ValueError, match="does not match"):
            campaign.run(resume=True)


class TestPausedRuns:
    """Each prefix's paused 6Gen run lives only as long as its campaign
    needs it: weak references to the runs die once the last phase is
    generated, and on finish(), interrupt() and abort() before that.
    The results stay alive throughout, so none of them holds its run."""

    @staticmethod
    def _begun(context):
        campaign = _campaign(context, _spec(), allocation=_allocator(context))
        campaign.begin()
        refs = [weakref.ref(run) for run in campaign._paused.values()]
        assert refs and all(ref() is not None for ref in refs)
        return campaign, refs

    @staticmethod
    def _released(campaign, refs):
        assert campaign.run_output.runs
        assert not campaign._paused
        return all(ref() is None for ref in refs)

    def test_released_after_last_phase_generated(self):
        context = _context()
        campaign, refs = self._begun(context)
        last = campaign.allocation.phases - 1
        while campaign._phase < last:
            assert campaign._paused
            assert campaign.step()
        assert campaign.state == "running" and campaign.execution is not None
        assert self._released(campaign, refs)
        result = campaign.run_output
        while campaign.step():
            pass
        campaign.finish()
        assert campaign.result.run is result

    @pytest.mark.parametrize("end", ["finish", "interrupt", "abort"])
    def test_released_when_the_campaign_ends(self, end):
        campaign, refs = self._begun(_context())
        getattr(campaign, end)()
        assert self._released(campaign, refs)


class TestServiceIntegration:
    def test_service_run_matches_solo(self):
        context = _context()
        service = CampaignService(context.internet.truth, context.internet.bgp)
        service.register_tenant("a")
        service.register_tenant("b")
        job = service.submit(
            "a", context.groups, _spec(), allocation=_allocator(context)
        )
        service.submit("b", context.groups, _spec())  # interleaved classic
        service.run_until_idle()
        solo = _campaign(
            _context(), _spec(), allocation=_allocator(context)
        ).run()
        result = service.result(job)
        assert result.raw_hits == solo.raw_hits
        assert result.scan.stats == solo.scan.stats
        assert service.jobs[job].charged == result.probes_sent

    def test_tenant_ledger_bounds_phase_planning(self):
        context = _context()
        service = CampaignService(context.internet.truth, context.internet.bgp)
        service.register_tenant("tight", TenantPolicy(probe_budget=500))
        job = service.submit(
            "tight", context.groups, _spec(), allocation=_allocator(context)
        )
        service.run_until_idle()
        record = service.jobs[job]
        assert record.state == "budget_exhausted"
        # Enforcement is batch-granular: overshoot is at most one batch.
        assert record.campaign.probes_sent <= 500 + 64
