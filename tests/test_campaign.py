"""Tests for the campaign layer (pipeline object + parity guarantees)."""

import pytest

from repro.analysis import experiments as ex
from repro.campaign import Campaign, CampaignSpec
from repro.campaign.generate import generate_per_prefix
from repro.scanner.dealias import DealiasReport, dealias
from repro.scanner.engine import ScanConfig, Scanner
from repro.telemetry.sinks import MemorySink
from repro.telemetry.spans import Telemetry


SCALE = 0.1
BUDGET = 2_000


def _context():
    return ex.standard_context(SCALE)


def _spec(**overrides):
    defaults = dict(
        budget=BUDGET, scan_config=ScanConfig(batch_size=128, retries=1)
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def _campaign(context, spec, **kwargs):
    return Campaign(
        context.internet.truth, context.internet.bgp, context.groups, spec,
        **kwargs,
    )


def _reference(context, spec):
    """The pre-refactor pipeline, spelled out primitive by primitive."""
    run = generate_per_prefix(context.groups, spec.budget, loose=spec.loose)
    scanner = Scanner(context.internet.truth, config=spec.scan_config)
    scan = scanner.scan(run.iter_target_columns(), port=spec.port)
    report = dealias(
        scan.hits, scanner, context.internet.bgp, port=spec.port
    )
    return scan, report


class TestCampaignParity:
    def test_monolithic_run_matches_reference(self):
        context = _context()
        spec = _spec(scan_config=ScanConfig(batch_size=128, retries=1))
        scan, report = _reference(context, spec)
        result = _campaign(context, spec).run()
        assert result.raw_hits == scan.hits
        assert result.scan.stats == scan.stats
        assert result.clean_hits == report.clean_hits
        assert result.aliased_hits == report.aliased_hits

    def test_run_full_scan_wrapper_matches_campaign(self):
        # The wrapper is a campaign at default settings.
        context = _context()
        wrapped = ex.run_full_scan(context, BUDGET)
        spec = CampaignSpec(budget=BUDGET, scan_config=ScanConfig())
        result = _campaign(context, spec).run()
        assert wrapped.raw_hits == result.raw_hits
        assert wrapped.scan.stats == result.scan.stats
        assert wrapped.clean_hits == result.clean_hits
        assert wrapped.targets_generated == result.targets_generated

    def test_stepwise_matches_monolithic(self):
        context = _context()
        spec = _spec()
        mono = _campaign(context, spec).run()
        stepped = _campaign(context, spec)
        stepped.begin()
        steps = 0
        while stepped.step():
            steps += 1
        result = stepped.finish()
        assert steps > 1
        assert result.raw_hits == mono.raw_hits
        assert result.scan.stats == mono.scan.stats
        assert result.clean_hits == mono.clean_hits

    def test_dealias_off_passes_hits_through(self):
        context = _context()
        result = _campaign(context, _spec(dealias=False)).run()
        assert result.clean_hits == result.raw_hits
        assert not result.aliased_hits


class TestCampaignStates:
    def test_step_before_begin_rejected(self):
        campaign = _campaign(_context(), _spec())
        with pytest.raises(RuntimeError):
            campaign.step()
        with pytest.raises(RuntimeError):
            campaign.finish()

    def test_begin_twice_rejected(self):
        campaign = _campaign(_context(), _spec())
        campaign.begin()
        with pytest.raises(RuntimeError):
            campaign.begin()
        campaign.abort()
        assert campaign.state == "failed"

    def test_resume_without_checkpoint_rejected(self):
        campaign = _campaign(_context(), _spec())
        with pytest.raises(ValueError, match="checkpoint_path"):
            campaign.run(resume=True)

    def test_interrupt_yields_partial_result(self):
        context = _context()
        campaign = _campaign(context, _spec())
        campaign.begin()
        for _ in range(3):
            assert campaign.step()
        result = campaign.interrupt()
        assert campaign.state == "interrupted"
        assert result.interrupted
        assert 0 < result.probes_sent
        full = _campaign(context, _spec()).run()
        assert result.probes_sent < full.probes_sent
        # Partial hits are a prefix of the full run's observations.
        assert result.raw_hits <= full.raw_hits

    def test_interrupted_campaign_cannot_step(self):
        campaign = _campaign(_context(), _spec())
        campaign.begin()
        campaign.step()
        campaign.interrupt()
        with pytest.raises(RuntimeError):
            campaign.step()


class TestCampaignCheckpoint:
    def test_checkpointed_run_resumable_after_interrupt(self, tmp_path):
        context = _context()
        ckpt = str(tmp_path / "campaign.jsonl")
        spec = _spec()
        baseline = _campaign(context, spec).run()

        first = _campaign(context, spec, checkpoint_path=ckpt)
        first.begin()
        for _ in range(5):
            first.step()
        first.interrupt()

        resumed = _campaign(context, spec, checkpoint_path=ckpt)
        result = resumed.run(resume=True)
        assert result.raw_hits == baseline.raw_hits
        assert result.scan.stats == baseline.scan.stats

    def test_checkpoint_file_records_generation_progress(self, tmp_path):
        import json

        context = _context()
        ckpt = tmp_path / "campaign.jsonl"
        _campaign(context, _spec(), checkpoint_path=str(ckpt)).run()
        events = [json.loads(line) for line in ckpt.read_text().splitlines()]
        kinds = {e.get("event") for e in events}
        assert "prefix_generated" in kinds
        assert any("scan_complete" in (e.get("event") or "") for e in events)


class TestCampaignTelemetry:
    def test_stepwise_emits_full_scan_span_and_summary(self):
        sink = MemorySink()
        telemetry = Telemetry(sink)
        context = _context()
        campaign = _campaign(context, _spec(), telemetry=telemetry)
        campaign.begin()
        while campaign.step():
            pass
        campaign.finish()
        telemetry.close()
        kinds = [e.get("event") for e in sink.events]
        assert "scan_summary" in kinds
        span_names = [
            e.get("name") for e in sink.events if e.get("event") == "span"
        ]
        assert "full_scan" in span_names

    def test_stepwise_telemetry_counters_match_monolithic(self):
        context = _context()

        def counters(drive):
            sink = MemorySink()
            telemetry = Telemetry(sink)
            campaign = _campaign(context, _spec(), telemetry=telemetry)
            drive(campaign)
            snapshot = telemetry.snapshot().counters
            telemetry.close()
            return snapshot

        def stepwise(campaign):
            campaign.begin()
            while campaign.step():
                pass
            campaign.finish()

        assert counters(stepwise) == counters(lambda c: c.run())
