"""Determinism, cache-invalidation, and stale-world tests for churn.

The contract under test: the state of a dynamic world is a pure
function of ``(worldfile, churn_seed, epoch)`` — independent of the
walk that reached the epoch and of the process computing it — and any
frozen scan state built before a mutation refuses to run after it.
"""

import hashlib
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.pipeline import Campaign, CampaignSpec
from repro.scanner import ScanConfig, Scanner, StaleWorldError
from repro.scanner.plane import ScanPlane
from repro.simnet import default_internet
from repro.simnet.dynamics import ChurnConfig, DynamicWorld, world_at
from repro.simnet.worldfile import save_internet

SCALE = 0.05
WORLD_SEED = 7
CHURN_SEED = 11
MAX_EPOCH = 6


def _world():
    return default_internet(scale=SCALE, rng_seed=WORLD_SEED)


def _digest(internet) -> str:
    """Full observable-state digest: hosts per port + aliased regions."""
    from repro.ipv6.addrplane import pack

    sha = hashlib.sha256()
    hi, lo = pack(sorted(internet.all_active_hosts()))
    sha.update(hi.tobytes())
    sha.update(lo.tobytes())
    for port in sorted(internet.truth.ports()):
        sha.update(str(port).encode())
        sha.update(str(sorted(internet.truth.hosts(port))).encode())
    sha.update(str(sorted(str(r) for r in internet.truth.aliased)).encode())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def reference_digests():
    """Digest of every epoch 0..MAX_EPOCH from one straight walk."""
    world = _world()
    dynamic = DynamicWorld(world, churn_seed=CHURN_SEED)
    digests = {}
    for epoch in range(MAX_EPOCH + 1):
        dynamic.advance_to(epoch)
        digests[epoch] = _digest(world)
    return digests


@pytest.fixture(scope="module")
def walker():
    """One long-lived dynamic world shared by the path-parity tests."""
    world = _world()
    return DynamicWorld(world, churn_seed=CHURN_SEED)


class TestPathIndependence:
    def test_direct_jump_matches_stepwise(self, reference_digests):
        world = _world()
        DynamicWorld(world, churn_seed=CHURN_SEED).advance_to(5)
        assert _digest(world) == reference_digests[5]

    def test_rewind_matches_forward(self, reference_digests):
        world = _world()
        dynamic = DynamicWorld(world, churn_seed=CHURN_SEED)
        dynamic.advance_to(MAX_EPOCH)
        dynamic.advance_to(3)
        assert _digest(world) == reference_digests[3]

    def test_epoch_zero_restores_pristine_world(self, reference_digests):
        world = _world()
        dynamic = DynamicWorld(world, churn_seed=CHURN_SEED)
        dynamic.advance_to(5)
        dynamic.advance_to(0)
        assert _digest(world) == reference_digests[0]
        assert _digest(_world()) == reference_digests[0]

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            DynamicWorld(_world(), churn_seed=CHURN_SEED).advance_to(-1)

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        path=st.lists(
            st.integers(min_value=0, max_value=MAX_EPOCH),
            min_size=1,
            max_size=5,
        )
    )
    def test_any_walk_lands_on_the_reference_state(
        self, walker, reference_digests, path
    ):
        # Path-independence means the shared walker's history cannot
        # matter: wherever it is now, walking `path` must visit exactly
        # the reference states.
        for epoch in path:
            walker.advance_to(epoch)
            assert _digest(walker.internet) == reference_digests[epoch]

    def test_different_churn_seed_diverges(self, reference_digests):
        world = _world()
        DynamicWorld(world, churn_seed=CHURN_SEED + 1).advance_to(3)
        assert _digest(world) != reference_digests[3]

    def test_config_changes_the_trajectory(self, reference_digests):
        world = _world()
        config = ChurnConfig(privacy_half_life=0.5, leave_rate=0.2)
        DynamicWorld(world, churn_seed=CHURN_SEED, config=config).advance_to(3)
        assert _digest(world) != reference_digests[3]


class TestCrossProcessDeterminism:
    def test_worldfile_triple_is_bit_identical_across_processes(
        self, tmp_path, reference_digests
    ):
        world_path = tmp_path / "world.json"
        save_internet(world_path, _world())

        script = (
            "import hashlib, sys\n"
            "from repro.simnet.dynamics import world_at\n"
            f"dyn = world_at({str(world_path)!r}, {CHURN_SEED}, 4)\n"
            "hi, lo = dyn.active_host_columns()\n"
            "sha = hashlib.sha256(hi.tobytes() + lo.tobytes())\n"
            "print(sha.hexdigest())\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        runs = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            ).stdout.strip()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

        # And the parent process computes the same bytes from the file.
        dyn = world_at(str(world_path), CHURN_SEED, 4)
        hi, lo = dyn.active_host_columns()
        local = hashlib.sha256(hi.tobytes() + lo.tobytes()).hexdigest()
        assert local == runs[0]


class TestCacheInvalidation:
    """Satellite 1: every churn mutation path must defeat the memos."""

    def test_all_active_hosts_tracks_epoch_moves(self):
        world = _world()
        dyn = DynamicWorld(world, churn_seed=CHURN_SEED)
        before = set(world.all_active_hosts())  # prime the cache
        dyn.advance_to(3)
        after = set(world.all_active_hosts())
        assert before != after
        assert after == {
            a for n in world.networks for a in n.active_hosts
        }

    def test_frozen_hosts_track_truth_mutations(self):
        world = _world()
        truth = world.truth
        frozen_before = truth.frozen_hosts(80)
        new_addr = 0x2001_0DB8_0000_0000_0000_0000_0000_9999
        truth.add_host(new_addr, 80)
        assert truth.is_responsive(new_addr, 80)
        assert len(truth.frozen_hosts(80)) == len(frozen_before) + 1
        truth.remove_host(new_addr, 80)
        assert not truth.is_responsive(new_addr, 80)
        assert len(truth.frozen_hosts(80)) == len(frozen_before)

    def test_alias_tables_track_region_removal(self):
        world = _world()
        # High flip rate so some region is guaranteed to go dark fast.
        config = ChurnConfig(alias_flip_rate=0.5)
        dyn = DynamicWorld(world, churn_seed=CHURN_SEED, config=config)
        initial = list(world.truth.aliased)
        assert initial, "tiny world should have aliased regions"
        # Prime the scalar and batched caches on every region's probe.
        probes = {
            r: (r.prefix.network + 1, sorted(r.ports)[0]) for r in initial
        }
        for probe, port in probes.values():
            assert world.truth.aliased.responds(probe, port)
            world.truth.aliased.responds_many([probe], port)
        gone = None
        for epoch in range(1, 11):
            dyn.advance_to(epoch)
            current = set(world.truth.aliased)
            missing = [r for r in initial if r not in current]
            if missing:
                gone = missing[0]
                break
        assert gone is not None, "no region flipped dark in 10 epochs"
        probe, port = probes[gone]
        assert not world.truth.aliased.responds(probe, port)
        assert world.truth.aliased.responds_many([probe], port) == [False]

    def test_faulty_overlay_sees_base_mutations(self):
        from repro.faults.ground import FaultyGroundTruth
        from repro.faults.models import BurstyLoss

        world = _world()
        overlay = FaultyGroundTruth(
            world.truth, BurstyLoss(seed=1, loss_bad=0.0)
        )
        overlay.frozen_hosts(80)  # prime the (delegated) memo
        new_addr = 0x2001_0DB8_0000_0000_0000_0000_0000_8888
        world.truth.add_host(new_addr, 80)
        assert overlay.is_responsive(new_addr, 80)
        from repro.ipv6.addrplane import pack

        hi, lo = pack([new_addr])
        assert overlay.responsive_many_arr(hi, lo, 80).tolist() == [True]
        assert overlay.world_version == world.truth.world_version

    def test_world_version_advances_on_every_epoch_move(self):
        world = _world()
        dyn = DynamicWorld(world, churn_seed=CHURN_SEED)
        v0 = world.truth.world_version
        dyn.advance_to(1)
        v1 = world.truth.world_version
        assert v1 != v0
        dyn.advance_to(1)  # same-epoch no-op must not bump
        assert world.truth.world_version == v1


class TestStaleWorldGuard:
    """Satellite 2: frozen scan state must refuse a mutated world."""

    def _execution(self, world, targets):
        scanner = Scanner(
            world.truth,
            config=ScanConfig(use_batched=True, batch_size=32),
            rng_seed=3,
        )
        return scanner.start_execution(targets, 80)

    def test_plane_path_raises_after_advance(self):
        world = _world()
        dyn = DynamicWorld(world, churn_seed=CHURN_SEED)
        execution = self._execution(world, sorted(world.all_active_hosts()))
        assert execution.plane is not None
        assert execution.step()
        dyn.advance_to(1)
        with pytest.raises(StaleWorldError):
            execution.step()

    def test_plane_ensure_fresh_token(self):
        from repro.ipv6.addrplane import pack
        from repro.scanner.blacklist import Blacklist

        world = _world()
        dyn = DynamicWorld(world, churn_seed=CHURN_SEED)
        targets = sorted(world.all_active_hosts())[:64]
        plane = ScanPlane.build(
            world.truth, Blacklist(), pack(targets), 80, 0.0
        )
        assert plane.world_version == world.truth.world_version
        plane.ensure_fresh(world.truth)
        dyn.advance_to(2)
        with pytest.raises(StaleWorldError):
            plane.ensure_fresh(world.truth)

    def test_mid_campaign_mutation_regression(self):
        """A stepped campaign spanning an epoch advance fails loudly."""
        from repro.simnet.bgp import group_by_routed_prefix
        from repro.simnet.dns import collect_seeds

        world = _world()
        dyn = DynamicWorld(world, churn_seed=CHURN_SEED)
        seeds = collect_seeds(world, rng_seed=7)
        groups = group_by_routed_prefix(seeds.addresses(), world.bgp)
        spec = CampaignSpec(
            budget=200, dealias=False,
            scan_config=ScanConfig(use_batched=True, batch_size=32),
        )
        campaign = Campaign(world.truth, world.bgp, groups, spec)
        campaign.begin()
        assert campaign.step()
        dyn.advance_to(1)
        with pytest.raises(StaleWorldError):
            campaign.step()
        campaign.abort()
        # A campaign planned *after* the advance runs to completion.
        fresh = Campaign(world.truth, world.bgp, groups, spec).run()
        assert fresh.raw_hits

    def test_execution_completed_before_advance_is_unaffected(self):
        world = _world()
        dyn = DynamicWorld(world, churn_seed=CHURN_SEED)
        execution = self._execution(
            world, sorted(world.all_active_hosts())[:64]
        )
        result = execution.run()
        dyn.advance_to(1)
        assert not execution.step()  # finished stays finished
        assert execution.result() is result


class TestWorldAt:
    def test_accepts_internet_and_path(self, tmp_path, reference_digests):
        world_path = tmp_path / "world.json"
        save_internet(world_path, _world())
        from_file = world_at(str(world_path), CHURN_SEED, 3)
        assert _digest(from_file.internet) == reference_digests[3]
        from_object = world_at(_world(), CHURN_SEED, 3)
        assert _digest(from_object.internet) == reference_digests[3]
