"""Cluster tier: ring placement, ownership epochs, handoff, routing.

Covers the consistent-hash ring (determinism, membership stability),
the picker spec grammar, the epoch-versioned ownership map, owned-subset
gateways with ``NotOwner`` refusals, byte-exact shard handoff with
stale-epoch replay protection, the redirect-following cluster client
(including its bounded-redirect failure mode), the gateway-shaped
cluster view, and a tcp-local cluster whose handoff crosses the wire.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.bloom import BloomFilter
from repro.exceptions import (
    ConfigError,
    NotOwner,
    ParameterError,
    ProtocolError,
    SnapshotError,
)
from repro.service.cluster import (
    ClusterClient,
    ClusterHarness,
    HashRing,
    OwnershipMap,
)
from repro.service.cluster.ring import (
    HashShardPicker,
    KeyedShardPicker,
    parse_picker,
)
from repro.service.config import ServiceConfig
from repro.service.gateway import MembershipGateway
from repro.service.snapshots import parse_shard_block, snapshot_shard
from repro.urlgen.faker import UrlFactory

URLS = UrlFactory(seed=0xC1).urls(200)


def member(
    shard_ids, total: int = 4, m: int = 512, **kwargs
) -> MembershipGateway:
    """A gateway owning a subset of a global shard space."""
    kwargs.setdefault("picker", HashShardPicker())
    return MembershipGateway(
        lambda: BloomFilter(m, 4),
        shard_ids=shard_ids,
        total_shards=total,
        **kwargs,
    )


def aimed_at(shard_id: int, count: int, total: int = 4) -> list[str]:
    """Items the public router sends to ``shard_id``."""
    picker = HashShardPicker()
    return [u for u in URLS if picker.pick(u, total) == shard_id][:count]


# ----------------------------------------------------------------------
# Picker specs
# ----------------------------------------------------------------------


def test_picker_spec_round_trip():
    public = HashShardPicker(seed=0xBEEF)
    assert public.spec() == "murmur:0xbeef"
    again = parse_picker(public.spec())
    assert [again.pick(u, 8) for u in URLS[:32]] == [
        public.pick(u, 8) for u in URLS[:32]
    ]
    keyed = KeyedShardPicker()
    rebuilt = parse_picker(keyed.spec())
    assert rebuilt.key == keyed.key
    assert [rebuilt.pick(u, 8) for u in URLS[:32]] == [
        keyed.pick(u, 8) for u in URLS[:32]
    ]
    # Bare kinds are legal: default seed / fresh key.
    assert parse_picker("murmur").seed == HashShardPicker().seed
    assert len(parse_picker("siphash").key) == 16


def test_parse_picker_rejects_malformed_specs():
    for bad in (
        "",
        "   ",
        "md5",
        "murmur:zz",
        "murmur:0x1ffffffff",
        "murmur:-1",
        "siphash:nothex",
        "siphash:abcd",
        "siphash:" + "ab" * 17,
        "siphash:",  # an empty key is a typo, not a request for a fresh one
        "siphash: ",
    ):
        with pytest.raises(ConfigError):
            parse_picker(bad)
    with pytest.raises(ConfigError, match="must be a string"):
        parse_picker(42)


def test_config_router_knob_validated_at_build_time():
    config = ServiceConfig(router="murmur:0x7")
    gateway = MembershipGateway.from_config(config)
    assert gateway.picker.seed == 0x7
    gateway.close()
    with pytest.raises(ConfigError):
        ServiceConfig(router="sha1")


# ----------------------------------------------------------------------
# The ring
# ----------------------------------------------------------------------


def test_ring_assignment_is_deterministic_and_order_blind():
    ring = HashRing(["alpha", "beta", "gamma"])
    assign = ring.assign(64)
    assert sorted(assign) == list(range(64))
    assert set(assign.values()) <= {"alpha", "beta", "gamma"}
    # Placement depends on names, not on the order they were given.
    shuffled = HashRing(["gamma", "alpha", "beta"])
    assert shuffled.assign(64) == assign


def test_ring_membership_change_moves_only_departing_nodes_shards():
    ring = HashRing(["alpha", "beta", "gamma"])
    before = ring.assign(64)
    after = ring.with_nodes(["alpha", "beta"]).assign(64)
    moved = {s for s in before if before[s] != after[s]}
    # Consistent hashing: every moved shard belonged to the node that
    # left; nothing else reshuffles.
    assert moved == {s for s, owner in before.items() if owner == "gamma"}
    assert all(after[s] in ("alpha", "beta") for s in moved)


def test_keyed_ring_hides_placement():
    key = bytes(range(16))
    public = HashRing(["alpha", "beta", "gamma"])
    keyed = HashRing(["alpha", "beta", "gamma"], picker=KeyedShardPicker(key))
    assert keyed.assign(64) != public.assign(64)
    # Same key, same placement: the ring is reproducible, just secret.
    again = HashRing(["alpha", "beta", "gamma"], picker=KeyedShardPicker(key))
    assert again.assign(64) == keyed.assign(64)


def test_ring_rejects_bad_membership():
    with pytest.raises(ParameterError):
        HashRing([])
    with pytest.raises(ParameterError):
        HashRing(["a", "a"])
    with pytest.raises(ParameterError):
        HashRing(["a"], vnodes=0)


# ----------------------------------------------------------------------
# The ownership map
# ----------------------------------------------------------------------


def test_ownership_move_bumps_epoch_and_noop_does_not():
    owners = OwnershipMap({0: "a", 1: "a", 2: "b", 3: "b"})
    assert owners.epoch == 1
    assert owners.move(0, "b") == 2
    assert owners.owner_of(0) == "b"
    assert owners.move(0, "b") == 2  # no-op: no epoch burned
    assert owners.shards_of("a") == (1,)
    assert owners.nodes() == ("a", "b")
    with pytest.raises(ParameterError):
        owners.owner_of(4)
    with pytest.raises(ParameterError):
        OwnershipMap({0: "a", 2: "b"})  # hole in the space


def test_ownership_note_believes_only_strictly_newer_epochs():
    authoritative = OwnershipMap({0: "a", 1: "b"})
    view = authoritative.copy()
    authoritative.move(0, "b")  # epoch 2
    assert view.note(0, "b", epoch=2) is True
    assert view.owner_of(0) == "b" and view.epoch == 2
    # Replayed/stale redirects change nothing.
    assert view.note(0, "a", epoch=2) is False
    assert view.note(0, "a", epoch=1) is False
    assert view.note(0, "", epoch=9) is False  # "no view" sentinel
    assert view.owner_of(0) == "b"
    # The copy is independent of the authoritative map.
    assert authoritative.epoch == 2 and view.epoch == 2
    view.note(1, "a", epoch=5)
    assert authoritative.owner_of(1) == "b"


# ----------------------------------------------------------------------
# Owned-subset gateways
# ----------------------------------------------------------------------


def test_subset_gateway_serves_owned_and_refuses_foreign_shards():
    gateway = member([1, 3])
    assert gateway.shards == 2 and gateway.total_shards == 4
    owned = aimed_at(1, 5) + aimed_at(3, 5)
    foreign = aimed_at(0, 3)
    asyncio.run(gateway.insert_batch(owned, client="t"))
    assert all(asyncio.run(gateway.query_batch(owned, client="t")))
    with pytest.raises(NotOwner) as info:
        asyncio.run(gateway.query_batch(foreign, client="t"))
    assert info.value.shard_id == 0
    # The whole batch is refused before any shard mutates: a batch
    # mixing owned and foreign shards inserts nothing.
    probe = aimed_at(1, 10)[5:] + foreign
    with pytest.raises(NotOwner):
        asyncio.run(gateway.insert_batch(probe, client="t"))
    assert not any(asyncio.run(gateway.query_batch(probe[:1], client="t")))
    gateway.close()


def test_subset_gateway_requires_explicit_total():
    with pytest.raises(ParameterError):
        MembershipGateway(lambda: BloomFilter(256, 4), shard_ids=[0, 1])
    with pytest.raises(ParameterError):
        member([0, 0])  # duplicate ids
    with pytest.raises(ParameterError):
        member([5])  # outside the global space


# ----------------------------------------------------------------------
# Handoff
# ----------------------------------------------------------------------


def _handoff_pair() -> tuple[MembershipGateway, MembershipGateway]:
    source = member([0, 1])
    target = member([2, 3])
    asyncio.run(source.insert_batch(aimed_at(0, 20) + aimed_at(1, 10), client="w"))
    return source, target


def test_handoff_is_byte_exact_and_transfers_service():
    source, target = _handoff_pair()
    answers_before = asyncio.run(source.query_batch(aimed_at(0, 20), client="w"))
    block = asyncio.run(source.release_shard(0, epoch=2))
    target.adopt_shard(0, 2, block)
    # Re-exporting from the adopter reproduces the wire block exactly:
    # filter bits, lifecycle scratch and telemetry all round-tripped.
    assert asyncio.run(target.export_shard_block(0)) == block
    assert asyncio.run(target.query_batch(aimed_at(0, 20), client="w")) == answers_before
    # The source no longer owns the shard.
    assert source.shard_ids == [1]
    with pytest.raises(NotOwner):
        asyncio.run(source.query_batch(aimed_at(0, 1), client="w"))
    source.close()
    target.close()


def test_handoff_replay_and_double_adopt_rejected():
    source, target = _handoff_pair()
    block = asyncio.run(source.release_shard(0, epoch=2))
    target.adopt_shard(0, 2, block)
    # A replayed handoff cannot resurrect the shard on its old owner:
    # the release epoch is remembered and only strictly newer wins.
    with pytest.raises(ParameterError, match="epoch"):
        source.adopt_shard(0, 2, block)
    with pytest.raises(ParameterError, match="epoch"):
        source.adopt_shard(0, 1, block)
    # The adopter refuses a second copy outright.
    with pytest.raises(ParameterError, match="already served"):
        target.adopt_shard(0, 5, block)
    # A block for shard 0 cannot be adopted under another shard id.
    bystander = member([])
    with pytest.raises(ParameterError, match="shard"):
        bystander.adopt_shard(2, 5, block)
    source.close()
    target.close()
    bystander.close()


def test_poisoned_handoff_block_leaves_adopter_unchanged():
    source, target = _handoff_pair()
    block = asyncio.run(source.release_shard(0, epoch=2))
    before_ids = list(target.shard_ids)
    # Truncated block: rejected while parsing, before any state changes.
    with pytest.raises(SnapshotError):
        target.adopt_shard(0, 2, block[:-8])
    # Parseable block whose embedded filter section is corrupt: the
    # backend restore fails and the freshly-attached slot rolls back.
    poisoned = bytearray(block)
    magic_at = bytes(block).rindex(b"RBFS")
    poisoned[magic_at : magic_at + 4] = b"XXXX"
    with pytest.raises((SnapshotError, ProtocolError, ParameterError)):
        target.adopt_shard(0, 2, bytes(poisoned))
    assert target.shard_ids == before_ids
    # The untouched adopter still serves its own shards.
    assert asyncio.run(target.query_batch(aimed_at(2, 1), client="w")) in ([True], [False])
    # And the genuine block still adopts cleanly afterwards.
    target.adopt_shard(0, 2, block)
    assert 0 in target.shard_ids
    source.close()
    target.close()


def test_shard_block_parses_and_rejects_corruption():
    source, _ = _handoff_pair()
    block = asyncio.run(source.export_shard_block(0))
    parsed = parse_shard_block(block)
    assert parsed.shard_id == 0
    assert parsed.telemetry.inserts > 0
    assert parsed.lifecycle["inserts"] > 0
    with pytest.raises(SnapshotError):
        parse_shard_block(b"XXXX" + block[4:])  # bad magic
    with pytest.raises(SnapshotError):
        parse_shard_block(block + b"\x00")  # trailing garbage
    assert snapshot_shard(source, 0) == block
    source.close()


# ----------------------------------------------------------------------
# The routing client and harness
# ----------------------------------------------------------------------


def test_cluster_client_routes_batches_across_nodes():
    async def scenario():
        async with ClusterHarness(["a", "b", "c"], total_shards=8) as harness:
            async with harness.client() as client:
                inserted = await client.insert_batch(URLS[:100], client="w")
                assert len(inserted) == 100
                answers = await client.query_batch(URLS[:120], client="w")
                assert answers[:100] == [True] * 100
            # Every node saw some of the traffic (8 shards over 3 nodes
            # leaves nobody idle for this workload).
            return [g.telemetry for g in harness.gateways.values()]

    telemetry = asyncio.run(scenario())
    assert all(sum(t.inserts for t in node) > 0 for node in telemetry)


def test_cluster_client_follows_redirects_after_move():
    async def scenario():
        async with ClusterHarness(["a", "b"], total_shards=4) as harness:
            stale = harness.client()
            await stale.insert_batch(URLS[:60], client="w")
            source = harness.ownership.owner_of(0)
            destination = "b" if source == "a" else "a"
            epoch = await harness.move_shard(0, destination)
            assert epoch == 2
            assert harness.ownership.owner_of(0) == destination
            # The stale client still answers -- one redirect round
            # teaches its private view the new epoch.
            answers = await stale.query_batch(URLS[:60], client="w")
            assert answers == [True] * 60
            assert stale.redirects_followed >= 1
            assert stale.ownership.epoch == epoch
            # A fresh client starts converged.
            fresh = harness.client()
            assert fresh.ownership.owner_of(0) == destination
            return True

    assert asyncio.run(scenario())


def test_cluster_client_bounds_redirect_rounds():
    async def scenario():
        # A gateway owning nothing and holding no ownership view sends
        # contentless redirects (epoch 0): the client can never learn a
        # better route and must fail loudly instead of spinning.
        empty = member([], total=4)
        owners = OwnershipMap({0: "a", 1: "a", 2: "a", 3: "a"})
        client = ClusterClient(
            {"a": empty},
            owners,
            picker=HashShardPicker(),
            max_redirects=3,
            retry_backoff_s=0.0,
        )
        with pytest.raises(ProtocolError, match="did not converge"):
            await client.query(URLS[0], client="w")
        empty.close()
        return True

    assert asyncio.run(scenario())


def test_cluster_view_is_gateway_shaped():
    async def scenario():
        async with ClusterHarness(["a", "b", "c"], total_shards=8) as harness:
            view = harness.view
            await view.insert_batch(URLS[:80], client="w")
            assert await view.query(URLS[0], client="w")
            assert view.shards == 8 and view.total_shards == 8
            assert view.shard_of(URLS[0]) == view.picker.pick(URLS[0], 8)
            assert len(view.lifecycle) == 8
            assert [s.shard_id for s in view.snapshot()] == list(range(8))
            assert sum(s.inserts for s in view.snapshot()) == 80
            assert view.shard_state(0).fill_ratio >= 0
            assert view.rotations == sum(
                g.rotations for g in harness.gateways.values()
            )
            assert "ownership epoch" in view.render_stats()
            return True

    assert asyncio.run(scenario())


def test_tcp_cluster_handoff_crosses_the_wire():
    async def scenario():
        config = ServiceConfig(shard_m=512, rotation_policy="never")
        async with ClusterHarness(
            ["a", "b"], total_shards=4, config=config, mode="tcp"
        ) as harness:
            stale = harness.client()
            try:
                await stale.insert_batch(URLS[:60], client="w")
                source = harness.ownership.owner_of(0)
                destination = "b" if source == "a" else "a"
                before = await harness.gateways[source].export_shard_block(0)
                await harness.move_shard(0, destination)
                # The handoff travelled through OP_HANDOFF frames; the
                # adopted shard re-exports byte-identically.
                after = await harness.gateways[destination].export_shard_block(0)
                assert after == before
                # The stale client converges through ST_NOT_OWNER
                # redirects carried over TCP.
                answers = await stale.query_batch(URLS[:60], client="w")
                assert answers == [True] * 60
                assert stale.redirects_followed >= 1
            finally:
                await stale.aclose()
            return True

    assert asyncio.run(scenario())
