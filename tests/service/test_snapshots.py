"""Warm-restart snapshots: bits, rotation log and telemetry survive."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.bloom import BloomFilter
from repro.exceptions import SnapshotError
from repro.service.backends import ProcessPoolBackend
from repro.service.cluster.ring import HashShardPicker
from repro.service.driver import AdversarialTrafficDriver
from repro.service.gateway import MembershipGateway
from repro.service.lifecycle import FillThresholdPolicy
from repro.service.snapshots import (
    load_snapshot,
    parse_gateway_snapshot,
    restore_gateway,
    save_snapshot,
    snapshot_gateway,
)
from repro.urlgen.faker import UrlFactory

URLS = UrlFactory(seed=0x57AB).urls(300)
PROBES = UrlFactory(seed=0x9E0B).urls(300)


def make_gateway(m: int = 512, **kwargs) -> MembershipGateway:
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("picker", HashShardPicker())
    return MembershipGateway(lambda: BloomFilter(m, 4), **kwargs)


def worked_gateway() -> MembershipGateway:
    """A gateway with real history: traffic, rotations, telemetry."""
    gateway = make_gateway(m=256, policy=FillThresholdPolicy(0.35))
    driver = AdversarialTrafficDriver(gateway, seed=3, max_trials=100_000)
    asyncio.run(
        driver.run(
            honest_clients=2,
            honest_inserts=60,
            honest_queries=60,
            batch=8,
            pollution_inserts=60,
            ghost_queries=8,
            ghost_min_fill=0.1,
            probe_queries=60,
        )
    )
    return gateway


def test_round_trip_restores_bits_log_and_telemetry():
    gateway = worked_gateway()
    assert gateway.rotations >= 1  # history worth preserving
    raw = snapshot_gateway(gateway)

    restored = make_gateway(m=256, policy=FillThresholdPolicy(0.35))
    restore_gateway(restored, raw)

    # Shard bits: byte-identical exports.
    for shard_id in range(gateway.shards):
        assert restored.backend.export_shard(shard_id) == gateway.backend.export_shard(
            shard_id
        )
    # Rotation log: identical events.
    assert restored.rotation_log == gateway.rotation_log
    # Telemetry: counters and histogram state identical.
    for a, b in zip(gateway.telemetry, restored.telemetry):
        assert a.to_state() == b.to_state()
    # And the reporting surface agrees.
    assert restored.render_stats() == gateway.render_stats()


def test_restored_gateway_answers_identically():
    gateway = worked_gateway()
    raw = snapshot_gateway(gateway)
    restored = make_gateway(m=256, policy=FillThresholdPolicy(0.35))
    restore_gateway(restored, raw)
    before = asyncio.run(gateway.query_batch(PROBES))
    after = asyncio.run(restored.query_batch(PROBES))
    assert before == after


def test_snapshot_file_round_trip(tmp_path):
    gateway = worked_gateway()
    path = save_snapshot(gateway, tmp_path / "gateway.snap")
    assert path.exists()
    assert not (tmp_path / "gateway.snap.tmp").exists()  # tmp file renamed
    restored = make_gateway(m=256, policy=FillThresholdPolicy(0.35))
    load_snapshot(restored, path)
    assert asyncio.run(restored.query_batch(PROBES)) == asyncio.run(
        gateway.query_batch(PROBES)
    )


def test_export_snapshot_method_round_trip():
    gateway = make_gateway()
    asyncio.run(gateway.insert_batch(URLS[:100]))
    restored = make_gateway()
    restored.restore_snapshot(gateway.export_snapshot())
    assert asyncio.run(restored.query_batch(URLS[:120])) == asyncio.run(
        gateway.query_batch(URLS[:120])
    )


def test_round_trip_through_process_backend():
    """A local gateway's snapshot restores into a process-pool one (and
    back): persistence is backend-agnostic."""

    def factory() -> BloomFilter:
        return BloomFilter(512, 4)

    local = MembershipGateway(factory, shards=2, picker=HashShardPicker())
    asyncio.run(local.insert_batch(URLS[:80]))
    raw = snapshot_gateway(local)

    with MembershipGateway(
        factory, backend=ProcessPoolBackend(factory, 2), picker=HashShardPicker()
    ) as pool:
        restore_gateway(pool, raw)
        # Snapshot again before serving (queries would bump telemetry).
        round_tripped = snapshot_gateway(pool)
        assert asyncio.run(pool.query_batch(URLS[:100])) == asyncio.run(
            local.query_batch(URLS[:100])
        )
    before, after = parse_gateway_snapshot(raw), parse_gateway_snapshot(round_tripped)
    # Bits, telemetry, log and epoch round-trip exactly ...
    assert after.filter_blocks == before.filter_blocks
    assert after.rotation_log == before.rotation_log
    assert after.op_epoch == before.op_epoch
    assert [t.to_state() for t in after.telemetry] == [
        t.to_state() for t in before.telemetry
    ]
    # ... and the one deliberate difference is lifecycle: shards that
    # lived through the restore are now flagged restored (mid-life).
    for was, now in zip(before.lifecycle, after.lifecycle):
        assert now == {**was, "restored": True, "restore_epoch": before.op_epoch}
    # A restored gateway's snapshot is a fixed point: restoring *it*
    # reproduces itself byte for byte.
    again = MembershipGateway(factory, shards=2, picker=HashShardPicker())
    restore_gateway(again, round_tripped)
    assert snapshot_gateway(again) == round_tripped


def test_parse_rejects_corruption():
    gateway = worked_gateway()
    raw = snapshot_gateway(gateway)

    with pytest.raises(SnapshotError, match="magic"):
        parse_gateway_snapshot(b"XXXX" + raw[4:])
    with pytest.raises(SnapshotError, match="version"):
        parse_gateway_snapshot(raw[:4] + b"\xff\xff" + raw[6:])
    # Version 3 predates the composed-policy scratch and no longer parses.
    with pytest.raises(SnapshotError, match="version 3"):
        parse_gateway_snapshot(raw[:4] + b"\x00\x03" + raw[6:])
    with pytest.raises(SnapshotError, match="ends inside"):
        parse_gateway_snapshot(raw[:-10])
    with pytest.raises(SnapshotError, match="trailing"):
        parse_gateway_snapshot(raw + b"\x00")


def test_restore_rejects_mismatched_config():
    gateway = worked_gateway()
    raw = snapshot_gateway(gateway)

    wrong_shards = make_gateway(m=256, shards=2)
    with pytest.raises(SnapshotError, match="shards"):
        restore_gateway(wrong_shards, raw)

    wrong_geometry = make_gateway(m=1024)
    before = wrong_geometry.backend.export_shard(0)
    with pytest.raises(SnapshotError, match="m="):
        restore_gateway(wrong_geometry, raw)
    # The failed restore touched nothing (all-or-nothing contract).
    assert wrong_geometry.backend.export_shard(0) == before
    assert wrong_geometry.rotation_log == []


def test_filter_snapshot_header_round_trip():
    filt = BloomFilter(777, 3)
    filt.add_batch(URLS[:50])
    raw = filt.snapshot_bytes()

    rebuilt = BloomFilter.from_snapshot(raw, strategy=filt.strategy)
    assert rebuilt.m == 777 and rebuilt.k == 3
    assert len(rebuilt) == 50
    assert rebuilt.hamming_weight == filt.hamming_weight
    assert rebuilt.to_bytes() == filt.to_bytes()

    in_place = BloomFilter(777, 3, strategy=filt.strategy)
    in_place.restore_snapshot(raw)
    assert all(url in in_place for url in URLS[:50])

    with pytest.raises(SnapshotError, match="geometry"):
        BloomFilter(778, 3).restore_snapshot(raw)
    with pytest.raises(SnapshotError, match="magic"):
        BloomFilter.from_snapshot(b"nope" + raw[4:])
    with pytest.raises(SnapshotError, match="truncated"):
        BloomFilter.from_snapshot(raw[:8])
    with pytest.raises(SnapshotError, match="payload"):
        BloomFilter.from_snapshot(raw[:-1])


def test_failed_restore_is_all_or_nothing(monkeypatch):
    """A restore that dies mid-loop must roll back, not half-apply."""
    gateway = worked_gateway()
    raw = snapshot_gateway(gateway)

    victim = make_gateway(m=256, policy=FillThresholdPolicy(0.35))
    asyncio.run(victim.insert_batch(URLS[:40], client="pre-restore"))
    before = [victim.backend.export_shard(s) for s in range(victim.shards)]
    before_answers = asyncio.run(victim.query_batch(PROBES, client="probe"))

    real_restore = type(victim.backend).restore_shard
    calls = {"n": 0}

    def dying_restore(self, shard_id, payload):
        calls["n"] += 1
        # Fail the last shard exactly once: the rollback's own
        # restore_shard calls (n > shards) must go through.
        if calls["n"] == victim.shards:
            raise SnapshotError("injected restore failure")
        return real_restore(self, shard_id, payload)

    monkeypatch.setattr(type(victim.backend), "restore_shard", dying_restore)
    with pytest.raises(SnapshotError, match="injected"):
        restore_gateway(victim, raw)
    monkeypatch.undo()

    # Every shard -- including the ones that *were* applied before the
    # failure -- is byte-identical to its pre-restore state, and the
    # gateway still serves.
    after = [victim.backend.export_shard(s) for s in range(victim.shards)]
    assert after == before
    assert asyncio.run(victim.query_batch(PROBES, client="probe")) == before_answers
    asyncio.run(victim.insert("still-serving", client="probe"))
    assert asyncio.run(victim.query("still-serving", client="probe"))


def test_restore_refuses_subset_gateways():
    """Whole-gateway restore is for identity-mapped gateways only; a
    cluster member owning a subset moves state via shard blocks."""
    gateway = worked_gateway()
    raw = snapshot_gateway(gateway)
    member = make_gateway(m=256, shards=None, shard_ids=[1, 3], total_shards=4)
    with pytest.raises(SnapshotError, match="subset"):
        restore_gateway(member, raw)
