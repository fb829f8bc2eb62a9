"""Tests for hitlist file I/O."""

import pytest

from repro.datasets.hitlist import (
    iter_hitlist_file,
    read_hitlist,
    read_hitlist_ints,
    write_hitlist,
)
from repro.ipv6.address import AddressError, IPv6Addr

from conftest import addr


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "list.txt"
        addrs = [addr("2001:db8::2"), addr("2001:db8::1"), addr("2001:db8::2")]
        count = write_hitlist(path, addrs)
        assert count == 2  # deduplicated
        back = read_hitlist_ints(path)
        assert back == [addr("2001:db8::1"), addr("2001:db8::2")]  # sorted

    def test_header_written_as_comments(self, tmp_path):
        path = tmp_path / "list.txt"
        write_hitlist(path, [1], header="line one\nline two")
        text = path.read_text()
        assert text.startswith("# line one\n# line two\n")
        assert read_hitlist_ints(path) == [1]

    def test_accepts_ipv6addr_objects(self, tmp_path):
        path = tmp_path / "list.txt"
        write_hitlist(path, [IPv6Addr(5)])
        assert read_hitlist(path) == [IPv6Addr(5)]

    def test_iter_streaming(self, tmp_path):
        path = tmp_path / "list.txt"
        write_hitlist(path, range(10))
        assert len(list(iter_hitlist_file(path))) == 10

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("# hello\n\n::1\n  \n::2\n")
        assert read_hitlist_ints(path) == [1, 2]

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("::1\nbogus\n")
        with pytest.raises(AddressError):
            read_hitlist(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("")
        assert read_hitlist(path) == []


# ---------------------------------------------------------------------------
# Living hitlist: decaying belief over a churning world.
# ---------------------------------------------------------------------------

import hashlib
import json
import os
import struct
import tempfile
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hitlist import (
    DEFAULT_DECAY,
    DeltaCampaign,
    DeltaSpec,
    LivingHitlist,
)
from repro.ipv6.addrplane import fuse, pack, unpack


def _cols(*ints):
    return pack(sorted(ints))


class TestLivingHitlistBelief:
    def test_observe_counts_hits_misses_new(self):
        store = LivingHitlist()
        out = store.observe(0, [1, 2, 3], hits={1, 3})
        assert out == {"hits": 2, "misses": 1, "new": 3}
        assert len(store) == 3
        assert store.latest_epoch == 0
        # Re-probing known entries admits nothing new.
        out = store.observe(1, [1, 2], hits={2})
        assert out["new"] == 0

    def test_accepts_packed_columns_and_ints(self):
        a = LivingHitlist()
        a.observe(0, [5, 9], hits={9})
        b = LivingHitlist()
        b.observe(0, _cols(5, 9), hits={9})
        assert a.state_digest() == b.state_digest()

    def test_score_decay_schedule(self):
        store = LivingHitlist()
        store.observe(0, [7], hits={7})
        assert store.decayed_scores(0).tolist() == [1.0]
        # One epoch later belief has decayed by exactly the decay rate.
        assert store.decayed_scores(1).tolist() == [DEFAULT_DECAY]
        # A second hit decays-then-bumps: s = 1*d^2 + 1.
        store.observe(2, [7], hits={7})
        expected = DEFAULT_DECAY**2 + 1.0
        assert store.decayed_scores(2).tolist() == [expected]

    def test_believed_live_threshold(self):
        store = LivingHitlist()
        store.observe(0, [7], hits={7})
        assert unpack(*store.believed_live(0)) == [7]
        # 0.6^5 ≈ 0.078 < 0.1 — belief fades without confirmation.
        assert unpack(*store.believed_live(5)) == []

    def test_never_seen_is_never_believed(self):
        store = LivingHitlist()
        store.observe(0, [7], hits=set())
        assert unpack(*store.believed_live(0)) == []
        assert unpack(*store.due_for_reprobe(0)) == []

    def test_due_for_reprobe_cadence_and_forgetting(self):
        store = LivingHitlist()
        store.observe(0, [7], hits={7})
        # Fresh belief (score 1.0) is not due.
        assert unpack(*store.due_for_reprobe(0)) == []
        # After two epochs 0.36 < 0.45: due.
        assert unpack(*store.due_for_reprobe(2)) == [7]
        # Silent past miss_forget_age: abandoned.
        assert unpack(*store.due_for_reprobe(2, miss_forget_age=1)) == []

    def test_probed_within_keys(self):
        store = LivingHitlist()
        store.observe(0, [5], hits={5})
        store.observe(3, [9], hits=set())
        keys = store.probed_within(3, 2)
        assert keys.tolist() == fuse(*_cols(9)).tolist()
        assert len(store.probed_within(9, 2)) == 0

    def test_epoch_regression_rejected(self):
        store = LivingHitlist()
        store.observe(3, [1], hits=set())
        with pytest.raises(ValueError, match="epoch-ordered"):
            store.observe(2, [2], hits=set())
        # Same-epoch observes (multiple tenants per epoch) are fine.
        store.observe(3, [2], hits={2})

    def test_freshness_and_staleness_math(self):
        store = LivingHitlist()
        store.observe(0, [1, 2, 3], hits={1, 2, 3})
        # Truth now: {2, 3, 4}. Believed: {1, 2, 3}.
        report = store.freshness(0, _cols(2, 3, 4))
        assert report["overlap"] == 2
        assert report["freshness"] == pytest.approx(2 / 3)
        assert report["staleness"] == pytest.approx(1 / 3)

    def test_summary_shape(self):
        store = LivingHitlist()
        store.observe(0, [1, 2], hits={1})
        summary = store.summary()
        assert summary["entries"] == 2
        assert summary["responders"] == 1
        assert summary["believed_live"] == 1

    def test_snapshot_requires_path(self):
        with pytest.raises(ValueError, match="path"):
            LivingHitlist().snapshot()

    def test_decay_validation(self):
        with pytest.raises(ValueError):
            LivingHitlist(decay=1.0)
        with pytest.raises(ValueError):
            LivingHitlist(decay=0.0)


class _Killed(Exception):
    """Stands in for the process dying at an injected point."""


class TestLivingHitlistPersistence:
    def test_log_replay_round_trip(self, tmp_path):
        path = tmp_path / "store.hitlist"
        store = LivingHitlist(path=path)
        store.observe(0, [10, 11, 12], hits={10, 11})
        store.observe(1, [10, 13], hits={13})
        digest = store.state_digest()
        store.close()
        back = LivingHitlist.open(path)
        assert back.state_digest() == digest
        assert back.latest_epoch == 1
        back.close()

    def test_snapshot_plus_tail_round_trip(self, tmp_path):
        path = tmp_path / "store.hitlist"
        store = LivingHitlist(path=path)
        store.observe(0, [10, 11], hits={10})
        store.snapshot()
        store.observe(1, [12], hits={12})  # tail after the snapshot
        digest = store.state_digest()
        store.close()
        back = LivingHitlist.open(path)
        assert back.state_digest() == digest
        assert back.events_since_snapshot == 1  # only the tail replayed
        back.close()

    def test_open_missing_file_bootstraps_empty(self, tmp_path):
        store = LivingHitlist.open(tmp_path / "fresh.hitlist")
        assert len(store) == 0
        assert store.latest_epoch == -1
        # ...and is immediately writable.
        store.observe(0, [1], hits={1})
        store.close()

    def test_log_layout(self, tmp_path):
        path = tmp_path / "store.hitlist"
        with LivingHitlist(path=path) as store:
            store.observe(3, [12, 10, 12], hits={12, 99})
        magic, rest = path.read_bytes().split(b"\n", 1)
        assert magic == b"repro-hitlist"
        (length,) = struct.unpack_from("<I", rest)
        header = json.loads(rest[4 : 4 + length])
        assert header["format"] == "repro-hitlist" and header["version"] == 2
        assert header["log_id"]
        record = rest[4 + length :]
        epoch, rows, crc = struct.unpack_from("<qQI", record)
        payload = record[20:]
        # Sorted, distinct rows; the hit outside the probed set merged in.
        assert (epoch, rows, len(payload)) == (3, 3, 16 * 3 + 1)
        assert np.frombuffer(payload[:24], "<u8").tolist() == [0, 0, 0]
        assert np.frombuffer(payload[24:48], "<u8").tolist() == [10, 12, 99]
        flags = np.unpackbits(np.frombuffer(payload[48:], np.uint8))
        assert flags[:3].tolist() == [0, 1, 1]
        assert crc == zlib.crc32(payload, zlib.crc32(record[:16]))

    def test_truncated_tail_tolerated(self, tmp_path):
        """Crash sweep: cut the log at every byte inside its last record."""
        path = tmp_path / "store.hitlist"
        store = LivingHitlist(path=path)
        store.observe(0, [10, 11], hits={10})
        digest = store.state_digest()
        start = path.stat().st_size
        store.observe(1, [12, 10], hits={12, 99})
        store.close()
        raw = path.read_bytes()
        for cut in range(start, len(raw)):
            path.write_bytes(raw[:cut])
            with LivingHitlist.open(path) as back:
                assert back.state_digest() == digest
                back.observe(2, [13], hits={13})
                expected = back.state_digest()
            # The torn bytes were cut off, not left behind the new record.
            assert path.stat().st_size == start + 20 + 16 + 1
            with LivingHitlist.open(path) as again:
                assert again.state_digest() == expected

    def test_crash_sweep_after_a_snapshot(self, tmp_path):
        path = tmp_path / "store.hitlist"
        store = LivingHitlist(path=path)
        store.observe(0, [10, 11], hits={10})
        store.snapshot()
        store.observe(1, [10, 12], hits={12})
        digest = store.state_digest()
        start = path.stat().st_size
        store.observe(1, [11, 13], hits=set())
        store.close()
        raw = path.read_bytes()
        snap = tmp_path / "store.hitlist.snap.npz"
        dump = snap.read_bytes()
        for cut in range(start, len(raw)):
            path.write_bytes(raw[:cut])
            snap.write_bytes(dump)
            with LivingHitlist.open(path) as back:
                assert back.state_digest() == digest
                back.observe(2, [13], hits={13})
                back.snapshot()
                expected = back.state_digest()
            with LivingHitlist.open(path) as again:
                assert again.state_digest() == expected

    @pytest.mark.parametrize("moment", ["temp_write", "before_replace", "after_replace"])
    def test_kill_around_the_snapshot_dump(self, tmp_path, monkeypatch, moment):
        """A kill anywhere in snapshot() replays the tail exactly once."""
        path = tmp_path / "store.hitlist"
        store = LivingHitlist(path=path)
        store.observe(0, [10, 11], hits={10})
        store.snapshot()
        store.observe(1, [10, 12], hits={10, 12})
        expected = store.state_digest()
        real_replace = os.replace

        def die(src, dst):
            if moment == "temp_write":  # the dump was half written
                os.truncate(src, os.path.getsize(src) // 2)
            elif moment == "after_replace":
                real_replace(src, dst)
            raise _Killed

        monkeypatch.setattr(os, "replace", die)
        with pytest.raises(_Killed):
            store.snapshot()
        monkeypatch.undo()
        store.close()
        with LivingHitlist.open(path) as back:
            assert back.decayed_scores(1).tolist() == pytest.approx([1.6, 0.0, 1.0])
            assert back.state_digest() == expected
            back.observe(2, [10, 14], hits={14})
            back.snapshot()  # overwrites any leftover temp file
            final = back.state_digest()
        with LivingHitlist.open(path) as again:
            assert again.state_digest() == final

    def test_crc_failure_on_the_last_record_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "store.hitlist"
        store = LivingHitlist(path=path)
        store.observe(0, [10, 11], hits={10})
        digest = store.state_digest()
        store.observe(1, [12], hits={12})
        store.close()
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with LivingHitlist.open(path) as back:
            assert back.state_digest() == digest
            back.observe(2, [13], hits={13})
            expected = back.state_digest()
        with LivingHitlist.open(path) as again:
            assert again.state_digest() == expected

    def test_reopen_continues_the_timeline(self, tmp_path):
        path = tmp_path / "store.hitlist"
        with LivingHitlist(path=path) as store:
            store.observe(0, [10], hits={10})
        with LivingHitlist.open(path) as back:
            back.observe(1, [10], hits=set())
        with LivingHitlist.open(path) as final:
            assert final.latest_epoch == 1
            assert len(final) == 1


class TestLivingHitlistRefusals:
    def test_version_1_log(self, tmp_path):
        path = tmp_path / "store.jsonl"
        event = {"kind": "observe", "epoch": 0, "hits": ["a"], "misses": ["b"]}
        path.write_text(json.dumps(event) + "\n")
        with pytest.raises(ValueError, match="version-1 .*rebuild the store"):
            LivingHitlist.open(path)

    def test_corrupt_record_before_the_last(self, tmp_path):
        path = tmp_path / "store.hitlist"
        store = LivingHitlist(path=path)
        store.observe(0, [10, 11], hits={10})
        end_of_first = path.stat().st_size
        store.observe(1, [12], hits={12})
        store.close()
        raw = bytearray(path.read_bytes())
        raw[end_of_first - 1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="record 0 .*CRC"):
            LivingHitlist.open(path)

    def test_snapshot_of_another_log(self, tmp_path):
        mine, other = tmp_path / "mine.hitlist", tmp_path / "other.hitlist"
        for path in (mine, other):
            with LivingHitlist(path=path) as store:
                store.observe(0, [10], hits={10})
                store.snapshot()
        os.replace(f"{other}.snap.npz", f"{mine}.snap.npz")
        with pytest.raises(ValueError, match="not to this log"):
            LivingHitlist.open(mine)

    def test_snapshot_covering_more_records_than_the_log(self, tmp_path):
        path = tmp_path / "store.hitlist"
        store = LivingHitlist(path=path)
        store.observe(0, [10], hits={10})
        end_of_first = path.stat().st_size
        store.observe(1, [11], hits={11})
        store.snapshot()
        store.close()
        os.truncate(path, end_of_first)
        with pytest.raises(ValueError, match="covers 2 records .* only 1"):
            LivingHitlist.open(path)

    def test_constructor_on_an_existing_log(self, tmp_path):
        path = tmp_path / "store.hitlist"
        with LivingHitlist(path=path) as store:
            store.observe(0, [10], hits={10})
        with pytest.raises(ValueError, match="LivingHitlist.open"):
            LivingHitlist(path=path)
        with LivingHitlist.open(path) as back:  # the log is untouched
            assert len(back) == 1


class _BoxedReference:
    """The store's in-memory ingest on boxed ints: the pre-column algorithm.

    ``observe`` partitions Python-int addresses into sorted hit and miss
    lists; ``_apply`` packs them, argsorts, and appends new rows before
    re-sorting every column.  The parity test holds the column store to
    this oracle's ``state_digest`` and summary.
    """

    def __init__(self, decay=DEFAULT_DECAY):
        self.decay = decay
        self.keys = np.empty(0, dtype="S16")
        self.hi = np.empty(0, dtype=np.uint64)
        self.lo = np.empty(0, dtype=np.uint64)
        self.last_seen = np.empty(0, dtype=np.int64)
        self.last_probed = np.empty(0, dtype=np.int64)
        self.score = np.empty(0, dtype=np.float64)
        self.latest_epoch = -1

    def observe(self, epoch, probed, hits):
        hit_set = {int(a) for a in hits}
        probed_ints = [int(a) for a in probed]
        hit_list = sorted({a for a in probed_ints if a in hit_set} | hit_set)
        miss_list = sorted({a for a in probed_ints if a not in hit_set})
        before = len(self.keys)
        self._apply(epoch, hit_list, miss_list)
        return {
            "hits": len(hit_list),
            "misses": len(miss_list),
            "new": len(self.keys) - before,
        }

    def _apply(self, epoch, hit_list, miss_list):
        if not hit_list and not miss_list:
            self.latest_epoch = max(self.latest_epoch, epoch)
            return
        uhi, ulo = pack(hit_list + miss_list)
        flags = np.zeros(len(uhi), dtype=np.float64)
        flags[: len(hit_list)] = 1.0
        keys = fuse(uhi, ulo)
        order = np.argsort(keys, kind="stable")
        keys, uhi, ulo, flags = keys[order], uhi[order], ulo[order], flags[order]
        n = len(self.keys)
        pos = np.searchsorted(self.keys, keys)
        found = np.zeros(len(keys), dtype=bool)
        if n:
            inside = pos < n
            found[inside] = self.keys[pos[inside]] == keys[inside]
        idx = pos[found]
        if len(idx):
            dt = np.maximum(epoch - self.last_probed[idx], 0)
            self.score[idx] = self.score[idx] * self.decay ** dt + flags[found]
            self.last_probed[idx] = epoch
            self.last_seen[idx[flags[found] > 0]] = epoch
        fresh = ~found
        if fresh.any():
            f_flags = flags[fresh]
            f_seen = np.where(f_flags > 0, epoch, -1).astype(np.int64)
            self.hi = np.concatenate([self.hi, uhi[fresh]])
            self.lo = np.concatenate([self.lo, ulo[fresh]])
            self.last_seen = np.concatenate([self.last_seen, f_seen])
            self.last_probed = np.concatenate(
                [self.last_probed, np.full(len(f_flags), epoch, dtype=np.int64)]
            )
            self.score = np.concatenate([self.score, f_flags])
            self.keys = np.concatenate([self.keys, keys[fresh]])
            order = np.argsort(self.keys, kind="stable")
            self.keys = self.keys[order]
            self.hi = self.hi[order]
            self.lo = self.lo[order]
            self.last_seen = self.last_seen[order]
            self.last_probed = self.last_probed[order]
            self.score = self.score[order]
        self.latest_epoch = max(self.latest_epoch, epoch)

    def state_digest(self):
        digest = hashlib.sha256()
        for arr in (self.hi, self.lo, self.last_seen, self.last_probed):
            digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(np.ascontiguousarray(self.score).astype("<f8").tobytes())
        digest.update(str(self.latest_epoch).encode())
        return digest.hexdigest()


#: Addresses at the edges of both halves, so rows share and split ``hi``.
_UNIVERSE = sorted(
    (h << 64) | l
    for h in (0, 1, 0x20010DB8 << 32, (1 << 64) - 1)
    for l in (0, 1, 0xFFFF, 1 << 63, (1 << 64) - 1)
)
_FORMS = ("ints", "set", "columns")
_STEP = st.one_of(
    st.just(("snapshot",)),
    st.tuples(
        st.just("observe"),
        st.integers(0, 2),  # epoch advance; 0 repeats the epoch
        st.lists(st.sampled_from(_UNIVERSE), max_size=12),  # unsorted, dups
        st.lists(st.sampled_from(_UNIVERSE), max_size=6),  # may miss probed
        st.sampled_from(_FORMS),
        st.sampled_from(_FORMS),
    ),
)


def _as_form(addrs, form):
    if form == "set":
        return set(addrs)
    if form == "columns":
        return pack(addrs)  # unsorted, duplicates kept
    return list(addrs)


class TestColumnStoreParity:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_STEP, max_size=10))
    def test_matches_boxed_reference(self, steps):
        ref = _BoxedReference()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "store.hitlist")
            store = LivingHitlist(path=path)
            epoch = 0
            for step in steps:
                if step[0] == "snapshot":
                    store.snapshot()
                    continue
                _, advance, probed, hits, probed_form, hits_form = step
                epoch += advance
                summary = store.observe(
                    epoch, _as_form(probed, probed_form), _as_form(hits, hits_form)
                )
                assert summary == ref.observe(epoch, probed, hits)
                assert store.state_digest() == ref.state_digest()
            store.close()
            with LivingHitlist.open(path) as back:  # last snapshot + tail
                assert back.state_digest() == ref.state_digest()
            if os.path.exists(path + ".snap.npz"):
                os.remove(path + ".snap.npz")
            with LivingHitlist.open(path) as back:  # the whole log replayed
                assert back.state_digest() == ref.state_digest()


class TestDeltaCampaign:
    """Delta planning + the campaign targets-override path."""

    @pytest.fixture(scope="class")
    def world(self):
        from repro.simnet import default_internet

        return default_internet(scale=0.05, rng_seed=13)

    def _seed_store(self, world, path=None):
        """Epoch-0 bootstrap: a full campaign's clean hits."""
        from repro.campaign.pipeline import Campaign, CampaignSpec
        from repro.scanner import ScanConfig
        from repro.simnet.bgp import group_by_routed_prefix
        from repro.simnet.dns import collect_seeds

        seeds = collect_seeds(world, rng_seed=7)
        groups = group_by_routed_prefix(seeds.addresses(), world.bgp)
        spec = CampaignSpec(
            budget=300,
            scan_config=ScanConfig(use_batched=True, batch_size=64),
        )
        result = Campaign(world.truth, world.bgp, groups, spec).run()
        store = LivingHitlist(path=path)
        store.observe(0, _cols(*result.run.all_targets()), result.clean_hits)
        return store, spec

    def test_plan_is_deterministic(self, world):
        store, spec = self._seed_store(world)
        delta = DeltaCampaign(store, world.bgp, spec)
        a = delta.plan(2)
        b = delta.plan(2)
        assert a.hi.tobytes() == b.hi.tobytes()
        assert a.lo.tobytes() == b.lo.tobytes()
        assert 0 < a.total <= a.reprobe_count + a.explore_count

    def test_plan_identical_from_independent_store_replicas(
        self, world, tmp_path
    ):
        """Same (log, epoch) → bit-identical plan, wherever replayed."""
        path = tmp_path / "store.jsonl"
        store, spec = self._seed_store(world, path=path)
        plan = DeltaCampaign(store, world.bgp, spec).plan(2)
        store.close()
        replica = LivingHitlist.open(path)
        replan = DeltaCampaign(replica, world.bgp, spec).plan(2)
        replica.close()
        assert plan.hi.tobytes() == replan.hi.tobytes()
        assert plan.lo.tobytes() == replan.lo.tobytes()

    def test_scan_hits_identical_at_workers_1_and_2(self, world):
        from dataclasses import replace

        from repro.scanner import ScanConfig

        store, spec = self._seed_store(world)
        hits = {}
        for workers in (1, 2):
            wspec = replace(
                spec,
                scan_config=ScanConfig(
                    use_batched=True, batch_size=64, workers=workers
                ),
            )
            delta = DeltaCampaign(store, world.bgp, wspec)
            plan = delta.plan(2)
            assert not plan.is_empty
            result = delta.campaign(world.truth, plan).run()
            hits[workers] = result.raw_hits
        assert hits[1] == hits[2]

    def test_reprobe_skips_fresh_belief(self, world):
        store, spec = self._seed_store(world)
        delta = DeltaCampaign(store, world.bgp, spec)
        # Epoch 1: score 0.6 >= 0.45, nothing is due yet.
        assert delta.plan(1).reprobe_count == 0
        # Epoch 2: 0.36 < 0.45, every responder is due.
        assert delta.plan(2).reprobe_count == len(
            store.known_responders()[0]
        )

    def test_explore_respects_budget_and_recency_filter(self, world):
        store, spec = self._seed_store(world)
        tight = DeltaSpec(explore_fraction=0.0)
        plan = DeltaCampaign(store, world.bgp, spec, delta=tight).plan(2)
        assert plan.explore_count == 0
        wide = DeltaSpec(miss_revisit_age=3)
        filtered = DeltaCampaign(
            store, world.bgp, spec, delta=wide
        ).plan(2)
        loose = DeltaCampaign(
            store, world.bgp, spec, delta=DeltaSpec(miss_revisit_age=0)
        ).plan(2)
        # A wider revisit window can only drop more generated targets.
        assert filtered.filtered_recent >= loose.filtered_recent

    def test_run_ingests_clean_hits_not_raw(self, world):
        """Aliased hits must enter the store as misses (§6.2)."""
        store, spec = self._seed_store(world)
        delta = DeltaCampaign(store, world.bgp, spec)
        plan, result = delta.run(world.truth, 2)
        assert result is not None
        aliased_raw = result.raw_hits - result.clean_hits
        if not aliased_raw:
            pytest.skip("plan never wandered into an aliased region")
        believed = set(unpack(*store.believed_live(2)))
        fresh_aliased = aliased_raw - set(store.addresses())
        assert not (believed & fresh_aliased)

    def test_empty_store_plans_nothing(self, world):
        from repro.campaign.pipeline import CampaignSpec

        delta = DeltaCampaign(
            LivingHitlist(), world.bgp, CampaignSpec(budget=100)
        )
        plan = delta.plan(0)
        assert plan.is_empty
        replan, result = delta.run(world.truth, 0)
        assert replan.is_empty
        assert result is None


class TestCampaignTargetsOverride:
    def test_monolithic_and_stepwise_agree(self):
        from repro.campaign.pipeline import Campaign, CampaignSpec
        from repro.scanner import ScanConfig
        from repro.simnet import default_internet

        world = default_internet(scale=0.05, rng_seed=13)
        targets = _cols(*sorted(world.all_active_hosts())[:200])
        spec = CampaignSpec(
            budget=100,
            scan_config=ScanConfig(use_batched=True, batch_size=32),
        )
        mono = Campaign(
            world.truth, world.bgp, {}, spec, targets=targets
        ).run()
        stepped = Campaign(
            world.truth, world.bgp, {}, spec, targets=targets
        )
        stepped.begin()
        while stepped.step():
            pass
        step_result = stepped.finish()
        assert mono.run is None and step_result.run is None
        assert mono.raw_hits == step_result.raw_hits
        assert mono.clean_hits == step_result.clean_hits
