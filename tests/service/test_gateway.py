"""The membership gateway: routing, batching, rotation, admission, stats."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.bloom import BloomFilter
from repro.countermeasures.keyed import KeyedBloomFilter
from repro.exceptions import ConfigError, ParameterError
from repro.service.admission import ClientRateLimiter, RateLimited
from repro.service.cluster.ring import KeyedShardPicker
from repro.service.config import ServiceConfig
from repro.service.gateway import MembershipGateway
from repro.service.lifecycle import FillThresholdPolicy
from repro.urlgen.faker import UrlFactory

URLS = UrlFactory(seed=0x6A7E).urls(200)


def make_gateway(**kwargs) -> MembershipGateway:
    kwargs.setdefault("shards", 4)
    return MembershipGateway(lambda: BloomFilter(1024, 4), **kwargs)


def test_insert_then_query_round_trip():
    gateway = make_gateway()

    async def scenario():
        for url in URLS[:30]:
            await gateway.insert(url)
        hits = [await gateway.query(url) for url in URLS[:30]]
        return hits

    assert all(asyncio.run(scenario()))


def test_batch_matches_singles_and_shard_state():
    gateway = make_gateway()

    async def scenario():
        await gateway.insert_batch(URLS[:50])
        batched = await gateway.query_batch(URLS[:80])
        singles = [await gateway.query(url) for url in URLS[:80]]
        return batched, singles

    batched, singles = asyncio.run(scenario())
    assert batched == singles
    assert batched[:50] == [True] * 50
    # Every item lives in exactly the shard the router names.
    for url in URLS[:50]:
        assert url in gateway.filters[gateway.shard_of(url)]


def test_batch_results_keep_input_order():
    gateway = make_gateway()

    async def scenario():
        await gateway.insert_batch(URLS[:40])
        # Interleave known-present and fresh items.
        mixed = [u for pair in zip(URLS[:20], URLS[100:120]) for u in pair]
        answers = await gateway.query_batch(mixed)
        expected = [await gateway.query(u) for u in mixed]
        return answers, expected

    answers, expected = asyncio.run(scenario())
    assert answers == expected
    assert answers[0::2] == [True] * 20  # the inserted half, in place


def test_empty_batch_is_noop():
    gateway = make_gateway()

    async def scenario():
        return await gateway.insert_batch([]), await gateway.query_batch([])

    assert asyncio.run(scenario()) == ([], [])


def test_saturation_guard_rotates_hot_shard():
    gateway = make_gateway(policy=FillThresholdPolicy(0.3))

    async def scenario():
        # Hammer one shard's key space until its filter crosses 30% fill.
        shard0 = [url for url in URLS if gateway.shard_of(url) == 0]
        factory = UrlFactory(seed=77)
        while len(shard0) < 120:
            url = factory.url()
            if gateway.shard_of(url) == 0:
                shard0.append(url)
        await gateway.insert_batch(shard0)

    asyncio.run(scenario())
    assert gateway.rotations >= 1
    event = gateway.rotation_log[0]
    assert event.shard_id == 0
    assert event.retired_fill >= 0.3
    assert event.retired_weight > 0
    # The replacement shard is fresh (weight far below the retired one).
    assert gateway.filters[0].fill_ratio < 0.3
    assert gateway.snapshot()[0].rotations == gateway.rotations


def test_rate_limited_batch_is_rejected_whole():
    gateway = make_gateway(
        limiter=ClientRateLimiter(rate=1.0, burst=10, clock=lambda: 0.0)
    )

    async def scenario():
        await gateway.insert_batch(URLS[:10], client="mallory")  # drains burst
        with pytest.raises(RateLimited):
            await gateway.query_batch(URLS[:5], client="mallory")
        # Another client still gets through.
        return await gateway.query_batch(URLS[:5], client="alice")

    answers = asyncio.run(scenario())
    assert len(answers) == 5
    # The rejected batch never reached a shard.
    assert sum(s.queries for s in gateway.snapshot()) == 5


def test_over_burst_batch_rejected_permanently():
    # A batch larger than the bucket's burst can never be admitted, so
    # the gateway must fail it with a non-retryable error, not the
    # retryable RateLimited (a backing-off client would livelock).
    gateway = make_gateway(
        limiter=ClientRateLimiter(rate=100.0, burst=16, clock=lambda: 0.0)
    )
    assert gateway.max_batch == 16

    async def scenario():
        with pytest.raises(ParameterError, match="burst"):
            await gateway.insert_batch(URLS[:17], client="bulk")
        return await gateway.insert_batch(URLS[:16], client="bulk")

    assert len(asyncio.run(scenario())) == 16
    assert make_gateway().max_batch is None  # unlimited admission


def test_telemetry_counts_and_latency():
    gateway = make_gateway()

    async def scenario():
        await gateway.insert_batch(URLS[:64])
        await gateway.query_batch(URLS[:64])

    asyncio.run(scenario())
    snaps = gateway.snapshot()
    assert sum(s.inserts for s in snaps) == 64
    assert sum(s.queries for s in snaps) == 64
    assert sum(s.positives for s in snaps) == 64
    assert all(s.query_p99_us >= s.query_p50_us >= 0 for s in snaps)
    table = gateway.render_stats()
    assert "shard" in table and "fill" in table


def test_from_config_builds_variants():
    plain = MembershipGateway.from_config(ServiceConfig(shards=2, shard_m=512))
    assert plain.shards == 2
    assert isinstance(plain.filters[0], BloomFilter)
    # The default config still rotates at half fill.
    assert MembershipGateway.from_config(ServiceConfig()).policy.spec() == "fill:0.5"

    keyed = MembershipGateway.from_config(
        ServiceConfig(shards=2, router="siphash", keyed_filters=True, rate_limit=10.0)
    )
    assert isinstance(keyed.picker, KeyedShardPicker)
    assert isinstance(keyed.filters[0], KeyedBloomFilter)
    assert keyed.limiter.rate == 10.0

    unrotated = MembershipGateway.from_config(ServiceConfig(rotation_policy="never"))
    assert unrotated.policy.spec() == "never"
    # One spelling each: ``None`` is neither a policy nor a router.
    for field in ("rotation_policy", "router"):
        with pytest.raises(ConfigError):
            ServiceConfig(**{field: None})


def test_from_config_pinned_keys_rebuild_identically():
    config = ServiceConfig(
        shards=4,
        shard_m=512,
        router=f"siphash:{bytes(range(16)).hex()}",
        keyed_filters=True,
        filter_key=bytes(16),
    )
    a = MembershipGateway.from_config(config)
    b = MembershipGateway.from_config(config)
    for url in URLS[:40]:
        assert a.shard_of(url) == b.shard_of(url)
        shard = a.shard_of(url)
        assert a.filters[shard].indexes(url) == b.filters[shard].indexes(url)
    with pytest.raises(ParameterError):
        ServiceConfig(filter_key=b"short")


def test_from_config_process_backend():
    from repro.service.backends import ProcessPoolBackend

    config = ServiceConfig(shards=2, shard_m=512, backend="process")
    with MembershipGateway.from_config(config) as gateway:
        assert isinstance(gateway.backend, ProcessPoolBackend)
        assert gateway.shards == 2

        async def scenario():
            await gateway.insert_batch(URLS[:40])
            return await gateway.query_batch(URLS[:60])

        answers = asyncio.run(scenario())
        assert answers[:40] == [True] * 40


def test_from_config_process_backend_keyed_filters_are_deterministic():
    # An unpinned filter key is resolved once at build time for process
    # backends, so the parent's white-box views agree with the workers.
    from repro.service.backends import ProcessPoolBackend

    config = ServiceConfig(
        shards=2, shard_m=512, keyed_filters=True, backend="process"
    )
    with MembershipGateway.from_config(config) as gateway:
        assert isinstance(gateway.backend, ProcessPoolBackend)
        asyncio.run(gateway.insert_batch(URLS[:30]))
        for url in URLS[:30]:
            assert url in gateway.shard_view(gateway.shard_of(url))


def test_config_validation():
    for bad in (
        dict(shards=0),
        dict(shard_m=-1),
        dict(rotation_policy="fill:0.0"),
        dict(rotation_policy="fill:1.5"),
        dict(rate_limit=-3.0),
        dict(burst=0),
        dict(backend="grpc"),
    ):
        with pytest.raises(ParameterError):
            ServiceConfig(**bad)
    assert ServiceConfig(shards=3, shard_m=100).total_bits == 300


def test_gateway_rejects_bad_shard_count():
    with pytest.raises(ParameterError):
        make_gateway(shards=0)
