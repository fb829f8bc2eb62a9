"""Tests for scan checkpointing, crash injection, and bit-identical resume."""

import json
import random

import pytest

from repro.faults import InjectedWorkerCrash, WorkerCrash
from repro.ipv6.addrplane import pack
from repro.ipv6.prefix import Prefix
from repro.scanner.blacklist import Blacklist
from repro.scanner.checkpoint import (
    ResumeState,
    ScanCheckpointer,
    load_scan_checkpoint,
    target_digest,
)
from repro.scanner.engine import ScanConfig, Scanner
from repro.scanner.probe import ScanStats
from repro.simnet.aliasing import AliasedRegionSet
from repro.simnet.ground_truth import GroundTruth
from repro.telemetry.sinks import JsonlSink


def _world(n_hosts=200, n_misses=400, seed=11):
    rng = random.Random(seed)
    hosts = [rng.getrandbits(128) for _ in range(n_hosts)]
    truth = GroundTruth({80: set(hosts)}, AliasedRegionSet())
    targets = hosts + [rng.getrandbits(128) for _ in range(n_misses)]
    rng.shuffle(targets)
    return truth, targets


def _scan(truth, targets, *, retries=0, loss=0.2, **kwargs):
    scanner = Scanner(
        truth,
        loss_rate=loss,
        rng_seed=5,
        config=ScanConfig(batch_size=32, retries=retries),
    )
    return scanner.scan(targets, **kwargs)


class TestScanStatsSerialisation:
    def test_roundtrip(self):
        stats = ScanStats(
            probes_sent=10, responses=4, blacklisted=2, dropped=3, retransmits=7
        )
        assert ScanStats.from_dict(stats.as_dict()) == stats

    def test_from_dict_tolerates_missing_fields(self):
        # Old checkpoint files predate `retransmits`.
        assert ScanStats.from_dict({"probes_sent": 5}) == ScanStats(probes_sent=5)

    def test_copy_is_independent(self):
        stats = ScanStats(probes_sent=1)
        clone = stats.copy()
        clone.probes_sent = 99
        assert stats.probes_sent == 1


class TestTargetDigest:
    def test_order_dependent(self):
        rng = random.Random(0)
        addrs = [rng.getrandbits(128) for _ in range(10)]
        assert target_digest(*pack(addrs)) != target_digest(
            *pack(list(reversed(addrs)))
        )

    def test_deterministic(self):
        rng = random.Random(1)
        addrs = [rng.getrandbits(128) for _ in range(10)]
        assert target_digest(*pack(addrs)) == target_digest(*pack(list(addrs)))

    def test_length_sensitive(self):
        assert target_digest(*pack([])) != target_digest(*pack([0]))

    def test_list_and_its_columns_record_one_digest(self, tmp_path):
        truth, targets = _world()
        listed = targets + targets[:5]  # duplicates dedupe first-seen

        def recorded_digest(source, name):
            path = tmp_path / name
            sink = JsonlSink(path)
            Scanner(truth, rng_seed=1).scan(
                source, checkpoint=ScanCheckpointer(sink)
            )
            sink.close()
            return load_scan_checkpoint(path).digest

        from_list = recorded_digest(listed, "list.jsonl")
        assert from_list == recorded_digest(pack(listed), "cols.jsonl")
        assert from_list == target_digest(*pack(targets))


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        sink = JsonlSink(path)
        ckpt = ScanCheckpointer(sink, every_batches=1)
        ckpt.begin(
            perm_key=1, loss_key=2, targets=3, digest=4, port=80, retries=1
        )
        ckpt.note_batch([10, 20])
        ckpt.checkpoint(0, 1, ScanStats(probes_sent=3, responses=2))
        sink.close()

        state = load_scan_checkpoint(path)
        assert state is not None
        assert (state.perm_key, state.loss_key) == (1, 2)
        assert (state.target_count, state.digest) == (3, 4)
        assert (state.port, state.retries) == (80, 1)
        assert (state.round, state.next_batch) == (0, 1)
        assert state.hits == {10, 20}
        assert state.stats == ScanStats(probes_sent=3, responses=2)
        assert not state.complete

    @pytest.mark.parametrize("fmt", [None, 1, 3])
    def test_other_formats_are_refused(self, tmp_path, fmt):
        path = tmp_path / "ckpt.jsonl"
        sink = JsonlSink(path)
        ScanCheckpointer(sink).begin(
            perm_key=1, loss_key=2, targets=3, digest=4, port=80, retries=0
        )
        sink.close()
        lines = path.read_text().splitlines()
        begin = json.loads(lines[0])
        assert begin["format"] == 2
        if fmt is None:
            del begin["format"]  # files written before the field existed
        else:
            begin["format"] = fmt
        path.write_text(json.dumps(begin) + "\n")
        with pytest.raises(ValueError, match=f"format {fmt or 1}\\b"):
            load_scan_checkpoint(path)

    def test_no_begin_returns_none(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        sink = JsonlSink(path)
        sink.emit({"event": "prefix_generated", "prefix": "2001:db8::/32"})
        sink.close()
        assert load_scan_checkpoint(path) is None

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        sink = JsonlSink(path)
        ckpt = ScanCheckpointer(sink, every_batches=1)
        ckpt.begin(perm_key=1, loss_key=2, targets=3, digest=4, port=80, retries=0)
        ckpt.note_batch([7])
        ckpt.checkpoint(0, 1, ScanStats(probes_sent=1, responses=1))
        sink.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "scan_checkpoint", "round": 0, "next_b')
        state = load_scan_checkpoint(path)
        assert state is not None and state.hits == {7} and state.next_batch == 1

    def test_later_begin_resets_state(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        sink = JsonlSink(path)
        ckpt = ScanCheckpointer(sink, every_batches=1)
        ckpt.begin(perm_key=1, loss_key=2, targets=3, digest=4, port=80, retries=0)
        ckpt.note_batch([7])
        ckpt.checkpoint(0, 1, ScanStats(probes_sent=1))
        ckpt.begin(perm_key=5, loss_key=6, targets=3, digest=4, port=80, retries=0)
        sink.close()
        state = load_scan_checkpoint(path)
        assert state.perm_key == 5 and state.hits == set() and state.next_batch == 0

    def test_throttle(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        sink = JsonlSink(path)
        ckpt = ScanCheckpointer(sink, every_batches=4)
        ckpt.begin(perm_key=1, loss_key=2, targets=9, digest=4, port=80, retries=0)
        for i in range(3):
            ckpt.note_batch([])
            ckpt.checkpoint(0, i + 1, ScanStats())
        sink.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1  # only scan_begin; throttle held back progress

    def test_every_batches_validated(self):
        with pytest.raises(ValueError):
            ScanCheckpointer(JsonlSink("/dev/null"), every_batches=0)


class TestResumeParity:
    @pytest.mark.parametrize("retries", [0, 2])
    def test_crash_then_resume_is_bit_identical(self, tmp_path, retries):
        truth, targets = _world()
        baseline = _scan(truth, targets, retries=retries)

        path = tmp_path / "ckpt.jsonl"
        sink = JsonlSink(path)
        ckpt = ScanCheckpointer(sink, every_batches=2)
        with pytest.raises(InjectedWorkerCrash):
            _scan(
                truth, targets, retries=retries,
                checkpoint=ckpt, crash=WorkerCrash(at_batch=9),
            )
        sink.close()

        state = load_scan_checkpoint(path)
        assert state is not None and not state.complete
        sink = JsonlSink(path)
        resumed = _scan(
            truth, targets, retries=retries,
            checkpoint=ScanCheckpointer(sink, every_batches=2), resume=state,
        )
        sink.close()

        assert resumed.hits == baseline.hits
        assert resumed.stats == baseline.stats

    def test_crash_in_retry_round_resumes(self, tmp_path):
        truth, targets = _world()
        baseline = _scan(truth, targets, retries=2)

        path = tmp_path / "ckpt.jsonl"
        sink = JsonlSink(path)
        with pytest.raises(InjectedWorkerCrash):
            _scan(
                truth, targets, retries=2,
                checkpoint=ScanCheckpointer(sink, every_batches=2),
                crash=WorkerCrash(at_batch=0, at_round=2),
            )
        sink.close()

        state = load_scan_checkpoint(path)
        assert state.round >= 1  # made it past round 0
        sink = JsonlSink(path)
        resumed = _scan(
            truth, targets, retries=2,
            checkpoint=ScanCheckpointer(sink, every_batches=2), resume=state,
        )
        sink.close()
        assert resumed.hits == baseline.hits
        assert resumed.stats == baseline.stats

    def test_resume_of_complete_scan_replays(self, tmp_path):
        truth, targets = _world(n_hosts=60, n_misses=60)
        path = tmp_path / "ckpt.jsonl"
        sink = JsonlSink(path)
        done = _scan(
            truth, targets, checkpoint=ScanCheckpointer(sink), retries=1
        )
        sink.close()

        state = load_scan_checkpoint(path)
        assert state.complete
        replayed = _scan(truth, targets, retries=1, resume=state)
        assert replayed.hits == done.hits
        assert replayed.stats == done.stats

    def test_double_resume(self, tmp_path):
        truth, targets = _world()
        baseline = _scan(truth, targets)
        path = tmp_path / "ckpt.jsonl"

        sink = JsonlSink(path)
        with pytest.raises(InjectedWorkerCrash):
            _scan(
                truth, targets,
                checkpoint=ScanCheckpointer(sink, every_batches=1),
                crash=WorkerCrash(at_batch=4),
            )
        sink.close()

        sink = JsonlSink(path)
        with pytest.raises(InjectedWorkerCrash):
            _scan(
                truth, targets, resume=load_scan_checkpoint(path),
                checkpoint=ScanCheckpointer(sink, every_batches=1),
                crash=WorkerCrash(at_batch=12),
            )
        sink.close()

        sink = JsonlSink(path)
        final = _scan(
            truth, targets, resume=load_scan_checkpoint(path),
            checkpoint=ScanCheckpointer(sink, every_batches=1),
        )
        sink.close()
        assert final.hits == baseline.hits
        assert final.stats == baseline.stats

    def test_resume_after_torn_checkpoint_keeps_new_progress(self, tmp_path):
        """A resume appends past a torn line, so a second resume sees it."""
        truth, targets = _world()
        path = tmp_path / "ckpt.jsonl"
        sink = JsonlSink(path)
        with pytest.raises(InjectedWorkerCrash):
            _scan(
                truth, targets,
                checkpoint=ScanCheckpointer(sink, every_batches=1),
                crash=WorkerCrash(at_batch=4),
            )
        sink.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "scan_checkpoint", "round": 0, "next_b')
        first = load_scan_checkpoint(path)
        assert first.next_batch == 4

        sink = JsonlSink(path)
        with pytest.raises(InjectedWorkerCrash):
            _scan(
                truth, targets, resume=first,
                checkpoint=ScanCheckpointer(sink, every_batches=1),
                crash=WorkerCrash(at_batch=16),
            )
        sink.close()
        assert load_scan_checkpoint(path).next_batch == 16

    def test_checkpointing_does_not_change_results(self, tmp_path):
        truth, targets = _world()
        plain = _scan(truth, targets, retries=1)
        sink = JsonlSink(tmp_path / "ckpt.jsonl")
        observed = _scan(
            truth, targets, retries=1, checkpoint=ScanCheckpointer(sink)
        )
        sink.close()
        assert observed.hits == plain.hits
        assert observed.stats == plain.stats


class TestResumeValidation:
    def _crashed_state(self, tmp_path, truth, targets, **scan_kwargs):
        path = tmp_path / "ckpt.jsonl"
        sink = JsonlSink(path)
        with pytest.raises(InjectedWorkerCrash):
            _scan(
                truth, targets, checkpoint=ScanCheckpointer(sink),
                crash=WorkerCrash(at_batch=3), **scan_kwargs,
            )
        sink.close()
        return load_scan_checkpoint(path)

    def test_digest_mismatch_rejected(self, tmp_path):
        truth, targets = _world()
        state = self._crashed_state(tmp_path, truth, targets)
        with pytest.raises(ValueError, match="digest"):
            _scan(truth, list(reversed(targets)), resume=state)

    def test_port_mismatch_rejected(self, tmp_path):
        truth, targets = _world()
        state = self._crashed_state(tmp_path, truth, targets)
        state.port = 443
        with pytest.raises(ValueError, match="port"):
            _scan(truth, targets, resume=state)

    def test_retries_mismatch_rejected(self, tmp_path):
        truth, targets = _world()
        state = self._crashed_state(tmp_path, truth, targets)
        with pytest.raises(ValueError, match="retries"):
            _scan(truth, targets, retries=3, resume=state)

    def test_reference_path_rejects_checkpointing(self, tmp_path):
        truth, targets = _world(n_hosts=10, n_misses=10)
        scanner = Scanner(
            truth, rng_seed=0, config=ScanConfig(use_batched=False)
        )
        sink = JsonlSink(tmp_path / "ckpt.jsonl")
        with pytest.raises(ValueError):
            scanner.scan(targets, checkpoint=ScanCheckpointer(sink))
        sink.close()

    def test_key_stream_unshifted_by_resume(self, tmp_path):
        # A scanner that resumes one scan then runs a second scan must
        # give the second scan the same keys as a scanner that ran both
        # scans without any resume.
        truth, targets = _world()
        other_targets = targets[: len(targets) // 2]

        state = self._crashed_state(tmp_path, truth, targets)
        resumed_scanner = Scanner(
            truth, loss_rate=0.2, rng_seed=5,
            config=ScanConfig(batch_size=32),
        )
        resumed_scanner.scan(targets, resume=state)
        second_after_resume = resumed_scanner.scan(other_targets)

        plain_scanner = Scanner(
            truth, loss_rate=0.2, rng_seed=5,
            config=ScanConfig(batch_size=32),
        )
        plain_scanner.scan(targets)
        second_plain = plain_scanner.scan(other_targets)

        assert second_after_resume.hits == second_plain.hits
        assert second_after_resume.stats == second_plain.stats


class TestBlacklistInteraction:
    def test_resume_with_blacklist(self, tmp_path):
        rng = random.Random(3)
        hosts = [rng.getrandbits(128) for _ in range(150)]
        truth = GroundTruth({80: set(hosts)}, AliasedRegionSet())
        bl = Blacklist([Prefix(hosts[0], 128), Prefix.parse("2600:dead::/48")])
        targets = hosts + [
            int(Prefix.parse("2600:dead::/48").network) + i for i in range(30)
        ]

        def scan(**kwargs):
            return Scanner(
                truth, blacklist=bl, loss_rate=0.2, rng_seed=5,
                config=ScanConfig(batch_size=16, retries=1),
            ).scan(targets, **kwargs)

        baseline = scan()
        path = tmp_path / "ckpt.jsonl"
        sink = JsonlSink(path)
        with pytest.raises(InjectedWorkerCrash):
            scan(
                checkpoint=ScanCheckpointer(sink, every_batches=1),
                crash=WorkerCrash(at_batch=5),
            )
        sink.close()
        resumed = scan(resume=load_scan_checkpoint(path))
        assert resumed.hits == baseline.hits
        assert resumed.stats == baseline.stats


class TestCrossFeatureMatrix:
    """Checkpoint/resume × retries × rate-limit policy.

    Every combination must resume bit-identical to an uninterrupted
    run — including when a scheduling policy (the shared RatePolicy
    core, enforced network-side by the RateLimiter overlay) is active.
    """

    @pytest.mark.parametrize("retries", [0, 2])
    @pytest.mark.parametrize("rate_limited", [False, True])
    def test_resume_bit_identical_under_policy(
        self, tmp_path, retries, rate_limited
    ):
        from repro.faults import FaultyGroundTruth, RateLimiter
        from repro.scanner.schedule import RatePolicy

        truth, targets = _world()
        if rate_limited:
            truth = FaultyGroundTruth(
                truth,
                RateLimiter.from_policy(
                    RatePolicy(budget=96, window=128), seed=3, prefix_len=64
                ),
            )
        baseline = _scan(truth, targets, retries=retries)

        path = tmp_path / "ckpt.jsonl"
        sink = JsonlSink(path)
        with pytest.raises(InjectedWorkerCrash):
            _scan(
                truth, targets, retries=retries,
                checkpoint=ScanCheckpointer(sink, every_batches=2),
                crash=WorkerCrash(at_batch=7),
            )
        sink.close()

        state = load_scan_checkpoint(path)
        assert state is not None and not state.complete
        resumed = _scan(
            truth, targets, retries=retries, resume=state
        )
        assert resumed.hits == baseline.hits
        assert resumed.stats == baseline.stats

    @pytest.mark.parametrize("retries", [0, 1])
    def test_service_cold_resume_with_rate_policy(self, tmp_path, retries):
        """The full stack: rate-limited tenant, budget preempt, resume."""
        from repro.analysis import experiments as ex
        from repro.campaign import Campaign, CampaignSpec
        from repro.faults import FaultyGroundTruth, RateLimiter
        from repro.scanner.schedule import RatePolicy
        from repro.service import CampaignService, TenantPolicy

        context = ex.standard_context(0.1)
        policy = RatePolicy(budget=64, window=256)
        spec = CampaignSpec(
            budget=1_000,
            scan_config=ScanConfig(batch_size=128, retries=retries),
        )
        overlay = FaultyGroundTruth(
            context.internet.truth,
            RateLimiter.from_policy(policy, seed=0, prefix_len=64),
        )
        solo = Campaign(
            overlay, context.internet.bgp, context.groups, spec
        ).run()

        ckpt = str(tmp_path / "svc.jsonl")
        first = CampaignService(context.internet.truth, context.internet.bgp)
        first.register_tenant(
            "t", TenantPolicy(probe_budget=500, prefix_rate=policy)
        )
        j1 = first.submit("t", context.groups, spec, checkpoint_path=ckpt)
        first.run_until_idle()
        assert first.jobs[j1].state == "budget_exhausted"

        second = CampaignService(context.internet.truth, context.internet.bgp)
        second.register_tenant("t", TenantPolicy(prefix_rate=policy))
        j2 = second.submit(
            "t", context.groups, spec, checkpoint_path=ckpt, resume=True
        )
        second.run_until_idle()
        result = second.result(j2)
        assert result.raw_hits == solo.raw_hits
        assert result.scan.stats == solo.scan.stats
