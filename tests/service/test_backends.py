"""Shard backends: local vs process-pool equivalence, rotation, snapshots."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.bloom import BloomFilter
from repro.exceptions import BackendError, ParameterError
from repro.service.backends import (
    LocalBackend,
    ProcessPoolBackend,
    ShardState,
    shared_memory_supported,
)
from repro.service.gateway import MembershipGateway
from repro.urlgen.faker import UrlFactory

URLS = UrlFactory(seed=0xBACC).urls(200)


def factory() -> BloomFilter:
    return BloomFilter(1024, 4)


@pytest.fixture(params=["local", "process"])
def backend(request):
    built = (
        LocalBackend(factory, 4)
        if request.param == "local"
        else ProcessPoolBackend(factory, 4)
    )
    with built:
        yield built


def test_insert_then_query_round_trip(backend):
    async def scenario():
        inserted = await backend.insert_batch(0, URLS[:50])
        hits = await backend.query_batch(0, URLS[:50])
        fresh = await backend.query_batch(0, ["http://fresh.example"])
        return inserted, hits, fresh

    inserted, hits, fresh = asyncio.run(scenario())
    assert inserted.answers == [False] * 50  # all new
    assert hits.answers == [True] * 50
    assert hits.state.insertions == 50
    assert hits.state.hamming_weight > 0
    assert 0 < hits.state.fill_ratio < 1


def test_backends_agree_bit_for_bit():
    reference = factory()
    reference.add_batch(URLS[:80])

    async def scenario(built):
        await built.insert_batch(2, URLS[:80])
        return built.export_shard(2), await built.query_batch(2, URLS)

    with LocalBackend(factory, 4) as local, ProcessPoolBackend(factory, 4) as pool:
        local_export, local_answers = asyncio.run(scenario(local))
        pool_export, pool_answers = asyncio.run(scenario(pool))
    assert local_export == pool_export == reference.snapshot_bytes()
    assert local_answers.answers == pool_answers.answers


def test_state_probe_matches_batch_reply(backend):
    async def scenario():
        reply = await backend.insert_batch(1, URLS[:30])
        return reply

    reply = asyncio.run(scenario())
    state = backend.state(1)
    assert isinstance(state, ShardState)
    assert state == reply.state
    # Untouched shards stay empty.
    assert backend.state(3) == ShardState(0, 0.0, 0)


def test_rotate_resets_one_shard(backend):
    async def scenario():
        await backend.insert_batch(0, URLS[:60])
        await backend.insert_batch(1, URLS[60:120])
        await backend.rotate(0)

    asyncio.run(scenario())
    assert backend.state(0) == ShardState(0, 0.0, 0)
    assert backend.state(1).insertions == 60


def test_export_restore_round_trip(backend):
    async def fill():
        await backend.insert_batch(0, URLS[:70])

    asyncio.run(fill())
    raw = backend.export_shard(0)
    asyncio.run(backend.rotate(0))
    assert backend.state(0).insertions == 0
    backend.restore_shard(0, raw)
    assert backend.state(0).insertions == 70
    answers = asyncio.run(backend.query_batch(0, URLS[:70]))
    assert answers.answers == [True] * 70


def test_pipe_snapshot_transfer_matches_shared_memory(monkeypatch):
    """Where shared memory is unsupported, snapshots cross the worker
    pipe instead -- with byte-identical export, restore and views."""

    def run(pool):
        asyncio.run(pool.insert_batch(0, URLS[:70]))
        raw = pool.export_shard(0)
        pool.restore_shard(1, raw)
        return raw, pool.export_shard(1), pool.shard_view(1).snapshot_bytes()

    with ProcessPoolBackend(factory, 2) as shm_pool:
        via_shm = run(shm_pool)
        used_segments = shm_pool._segments != [None, None]
    assert used_segments == shared_memory_supported()
    monkeypatch.setattr(
        "repro.service.backends.shared_memory_supported", lambda: False
    )
    with ProcessPoolBackend(factory, 2) as pipe_pool:
        assert not pipe_pool._shm_enabled
        via_pipe = run(pipe_pool)
        assert pipe_pool._segments == [None, None]  # no segment was made
    assert via_pipe == via_shm
    reference = factory()
    reference.add_batch(URLS[:70])
    assert via_pipe[0] == reference.snapshot_bytes()


def test_shard_view_sees_current_bits(backend):
    asyncio.run(backend.insert_batch(2, URLS[:40]))
    view = backend.shard_view(2)
    assert all(url in view for url in URLS[:40])
    assert view.hamming_weight == backend.state(2).hamming_weight
    # The view's index derivation matches the shard's: a ghost crafted
    # against the view must hit the real shard.
    assert view.indexes(URLS[0]) == factory().indexes(URLS[0])


def test_process_view_is_a_copy_local_view_is_live():
    with LocalBackend(factory, 2) as local, ProcessPoolBackend(factory, 2) as pool:
        asyncio.run(local.insert_batch(0, URLS[:10]))
        asyncio.run(pool.insert_batch(0, URLS[:10]))
        local.shard_view(0).add(URLS[50])
        pool.shard_view(0).add(URLS[50])
        # Mutating the local view hits the live filter; the process view
        # is the white-box adversary's copy and leaves the worker alone.
        assert local.state(0).insertions == 11
        assert pool.state(0).insertions == 10


def test_bad_shard_ids_rejected(backend):
    with pytest.raises(ParameterError):
        backend.state(4)
    with pytest.raises(ParameterError):
        asyncio.run(backend.insert_batch(-1, URLS[:2]))


def test_worker_error_does_not_kill_the_shard():
    with ProcessPoolBackend(factory, 2) as pool:
        with pytest.raises(BackendError, match="worker failed"):
            pool.restore_shard(0, b"garbage snapshot")
        # The worker survives and keeps serving.
        reply = asyncio.run(pool.insert_batch(0, URLS[:5]))
        assert reply.state.insertions == 5


def test_closed_backend_refuses_work():
    pool = ProcessPoolBackend(factory, 2)
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(BackendError, match="closed"):
        pool.state(0)


def test_invalid_shard_counts():
    with pytest.raises(ParameterError):
        LocalBackend(factory, -1)
    with pytest.raises(ParameterError):
        ProcessPoolBackend(factory, -1)
    # Zero is legal for a local backend (a cluster gateway may own no
    # shards until a handoff lands); slots then arrive via attach_shard.
    empty = LocalBackend(factory, 0)
    assert empty.shards == 0
    assert empty.attach_shard() == 0
    assert empty.shards == 1


def test_attach_detach_shard_slots():
    backend = LocalBackend(factory, 2)
    slot = backend.attach_shard()
    assert slot == 2 and backend.shards == 3

    async def fill():
        await backend.insert_batch(2, ["moved-item"])

    asyncio.run(fill())
    assert backend.state(2).insertions == 1
    # Detaching a lower slot shifts the others down, carrying state.
    backend.detach_shard(0)
    assert backend.shards == 2
    assert backend.state(1).insertions == 1
    with pytest.raises(ParameterError):
        backend.detach_shard(5)
    # The process pool pins one worker per slot: no dynamic membership.
    pool = ProcessPoolBackend(factory, 1)
    try:
        with pytest.raises(BackendError, match="attach"):
            pool.attach_shard()
        with pytest.raises(BackendError, match="detach"):
            pool.detach_shard(0)
    finally:
        pool.close()


def test_gateway_over_process_backend_matches_local():
    workload = URLS[:120]

    async def drive(gateway):
        await gateway.insert_batch(workload[:80])
        return await gateway.query_batch(workload)

    local_gw = MembershipGateway(factory, shards=4)
    with MembershipGateway(
        factory, backend=ProcessPoolBackend(factory, 4)
    ) as pool_gw:
        assert asyncio.run(drive(local_gw)) == asyncio.run(drive(pool_gw))
        assert [s.inserts for s in local_gw.snapshot()] == [
            s.inserts for s in pool_gw.snapshot()
        ]
