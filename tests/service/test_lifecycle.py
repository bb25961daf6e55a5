"""The shard-lifecycle layer: policies, parsing, gateway integration over
both backends, and policy-state snapshot/restore parity."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.bloom import BloomFilter
from repro.core.counting import CountingBloomFilter
from repro.exceptions import ParameterError
from repro.service.backends import LocalBackend, ProcessPoolBackend, ShardState
from repro.service.cluster.ring import HashShardPicker
from repro.service.config import ServiceConfig
from repro.service.gateway import MembershipGateway
from repro.service.lifecycle import (
    AdaptivePositiveRatePolicy,
    FillThresholdPolicy,
    NeverRotatePolicy,
    RotateOnRestorePolicy,
    RotationDecision,
    RotationPolicy,
    ShardLifecycleState,
    ShardObservation,
    TimeBasedRecyclingPolicy,
    parse_policy,
)
from repro.service.snapshots import restore_gateway, snapshot_gateway
from repro.urlgen.faker import UrlFactory

URLS = UrlFactory(seed=0x11FE).urls(400)


def observation(**overrides) -> ShardObservation:
    base = dict(
        shard_id=0,
        hamming_weight=100,
        fill_ratio=0.1,
        insertions=40,
        age_ops=40,
        inserts=40,
        queries=0,
        positives=0,
        restored=False,
        ops_since_restore=40,
        op_epoch=40,
    )
    base.update(overrides)
    return ShardObservation(**base)


# ----------------------------------------------------------------------
# Pure policy decisions
# ----------------------------------------------------------------------


def test_fill_threshold_policy_matches_the_guard():
    policy = FillThresholdPolicy(0.5)
    assert not policy.evaluate(observation(fill_ratio=0.49)).rotate
    decision = policy.evaluate(observation(fill_ratio=0.5))
    assert decision.rotate and decision.reason == "fill_ratio>=0.5"
    # Exactly the saturation rule: rotate at or above the threshold.
    for fill in (0.0, 0.3, 0.499, 0.5, 0.8, 1.0):
        assert policy.evaluate(observation(fill_ratio=fill)).rotate == (fill >= 0.5)


def test_time_based_policy_rotates_on_op_budget():
    policy = TimeBasedRecyclingPolicy(100)
    assert not policy.evaluate(observation(age_ops=99)).rotate
    decision = policy.evaluate(observation(age_ops=100, fill_ratio=0.01))
    assert decision.rotate and decision.reason == "age_ops>=100"


def test_adaptive_policy_needs_volume_and_rate():
    policy = AdaptivePositiveRatePolicy(0.8, min_queries=10)
    # High rate, too few samples: hold.
    assert not policy.evaluate(observation(queries=9, positives=9)).rotate
    # Enough samples, honest rate: hold.
    assert not policy.evaluate(observation(queries=100, positives=50)).rotate
    # The ghost-storm signature: rotate.
    decision = policy.evaluate(observation(queries=100, positives=85))
    assert decision.rotate and decision.reason == "positive_rate>=0.8"


def test_windowed_observation_math():
    obs = observation(recent=((16, 2), (16, 4), (16, 16)))
    # Newest batch only.
    assert obs.windowed_positive_rate(16) == (16, 16)
    # Two newest batches.
    assert obs.windowed_positive_rate(32) == (32, 20)
    # More than retained: everything there is.
    assert obs.windowed_positive_rate(100) == (48, 22)
    # Whole batches are never split (coverage may overshoot).
    assert obs.windowed_positive_rate(20) == (32, 20)
    assert observation().windowed_positive_rate(8) == (0, 0)
    with pytest.raises(ParameterError):
        obs.windowed_positive_rate(0)


def test_windowed_adaptive_policy_sees_the_spike_dilution_hides():
    # 500 queries since rotation at an honest 30% positive rate, then a
    # late ghost storm: the lifetime rate barely moves, the window sees
    # a wall of positives.
    spike = observation(
        queries=500,
        positives=150 + 32,
        recent=((16, 5), (16, 16), (16, 16)),
    )
    unwindowed = AdaptivePositiveRatePolicy(0.8, min_queries=24)
    assert not unwindowed.evaluate(spike).rotate  # diluted: 182/500 = 0.36
    windowed = AdaptivePositiveRatePolicy(0.8, min_queries=24, window=32)
    decision = windowed.evaluate(spike)
    assert decision.rotate
    assert decision.reason == "window_positive_rate>=0.8"
    # Too little window coverage yet: hold, whatever the rate.
    young = observation(queries=8, positives=8, recent=((8, 8),))
    assert not windowed.evaluate(young).rotate


def test_windowed_policy_validation_and_spec():
    policy = AdaptivePositiveRatePolicy(0.8, min_queries=24, window=64)
    assert policy.spec() == "adaptive:0.8:24:64"
    rebuilt = parse_policy(policy.spec())
    assert rebuilt.spec() == policy.spec()
    assert rebuilt.window == 64
    for bad in (
        lambda: AdaptivePositiveRatePolicy(0.8, window=0),
        lambda: AdaptivePositiveRatePolicy(0.8, min_queries=65, window=64),
        lambda: AdaptivePositiveRatePolicy(
            0.8, window=ShardLifecycleState.WINDOW_CAP + 1
        ),
    ):
        with pytest.raises(ParameterError):
            bad()


def test_needs_recent_flags_skip_the_window_copy():
    # Shipped non-windowed policies never pay the O(window) copy; the
    # windowed adaptive (and any wrapper delegating to it) opts in, and
    # custom policies default to the safe True.
    assert not FillThresholdPolicy(0.5).needs_recent
    assert not TimeBasedRecyclingPolicy(10).needs_recent
    assert not NeverRotatePolicy().needs_recent
    assert not AdaptivePositiveRatePolicy(0.8).needs_recent
    assert AdaptivePositiveRatePolicy(0.8, 16, window=32).needs_recent
    assert not RotateOnRestorePolicy(5, inner=FillThresholdPolicy(0.5)).needs_recent
    assert RotateOnRestorePolicy(
        5, inner=AdaptivePositiveRatePolicy(0.8, 16, window=32)
    ).needs_recent

    class CustomPolicy(RotationPolicy):
        def evaluate(self, observation):
            return RotationDecision(rotate=False, reason="keep")

    assert CustomPolicy().needs_recent
    # observe() honours the flag: no window materialisation when False.
    life = ShardLifecycleState(0)
    life.note_queries(10, 5)
    assert life.observe(ShardState(0, 0.0, 0), 0, include_recent=False).recent == ()
    assert life.observe(ShardState(0, 0.0, 0), 0).recent == ((10, 5),)


def test_lifecycle_window_tracks_evicts_and_resets():
    life = ShardLifecycleState(0)
    assert life.window_rate() == 0.0
    life.note_queries(10, 5)
    life.note_queries(10, 10)
    assert life.window_rate() == 15 / 20
    obs = life.observe(ShardState(0, 0.0, 0), op_epoch=20)
    assert obs.recent == ((10, 5), (10, 10))
    # Eviction: old batches fall off once the cap stays covered.
    cap = ShardLifecycleState.WINDOW_CAP
    for _ in range(cap // 10 + 5):
        life.note_queries(10, 0)
    retained = life.observe(ShardState(0, 0.0, 0), op_epoch=0).recent
    assert (10, 5) not in retained  # the oldest batches were evicted
    assert cap <= sum(q for q, _ in retained) < cap + 10
    life.reset()
    assert life.window_rate() == 0.0
    assert life.observe(ShardState(0, 0.0, 0), op_epoch=0).recent == ()


def test_rotate_on_restore_policy_wraps_an_inner():
    policy = RotateOnRestorePolicy(50, inner=FillThresholdPolicy(0.5))
    # Never restored: delegates to the fill rule.
    assert not policy.evaluate(observation(restored=False)).rotate
    assert policy.evaluate(observation(restored=False, fill_ratio=0.6)).rotate
    # Restored but young: inner still decides.
    young = observation(restored=True, ops_since_restore=10)
    assert not policy.evaluate(young).rotate
    # Restored and past the budget: expire, whatever the fill.
    old = observation(restored=True, ops_since_restore=50, fill_ratio=0.0)
    decision = policy.evaluate(old)
    assert decision.rotate and decision.reason == "restored_age>=50"


def test_never_policy_and_observation_rate():
    assert not NeverRotatePolicy().evaluate(observation(fill_ratio=1.0)).rotate
    assert observation(queries=0, positives=0).positive_rate == 0.0
    assert observation(queries=8, positives=2).positive_rate == 0.25


def test_policy_validation():
    for bad in (
        lambda: FillThresholdPolicy(0.0),
        lambda: FillThresholdPolicy(1.5),
        lambda: TimeBasedRecyclingPolicy(0),
        lambda: AdaptivePositiveRatePolicy(0.0),
        lambda: AdaptivePositiveRatePolicy(0.5, min_queries=0),
        lambda: RotateOnRestorePolicy(-1),
    ):
        with pytest.raises(ParameterError):
            bad()


# ----------------------------------------------------------------------
# Spec parsing and legacy mapping
# ----------------------------------------------------------------------


def test_parse_policy_round_trips_specs():
    for spec, kind in (
        ("never", NeverRotatePolicy),
        ("fill:0.5", FillThresholdPolicy),
        ("age:4000", TimeBasedRecyclingPolicy),
        ("adaptive:0.8", AdaptivePositiveRatePolicy),
        ("adaptive:0.8:32", AdaptivePositiveRatePolicy),
        ("restore:2000", RotateOnRestorePolicy),
        ("restore:2000+fill:0.5", RotateOnRestorePolicy),
    ):
        policy = parse_policy(spec)
        assert isinstance(policy, kind)
        rebuilt = parse_policy(policy.spec())
        assert rebuilt.spec() == policy.spec()
    wrapped = parse_policy("restore:100+age:50")
    assert isinstance(wrapped.inner, TimeBasedRecyclingPolicy)
    assert wrapped.spec() == "restore:100+age:50"


def test_parse_policy_rejects_garbage():
    for bad in (
        "",
        "   ",
        "lru:3",
        "fill",
        "fill:abc",
        "fill:0.5:9",
        "age:2.5e",
        "never:1",
        "adaptive",
        "adaptive:0.5:2:2:2",
        "adaptive:0.5:2:nope",
        "adaptive:0.8:64:32",  # min_queries must fit inside the window
        "adaptive:0.8:32:999999",  # window beyond the retention cap
        "fill:0.5+age:100",  # only restore may wrap
        "restore:10+lru:3",
    ):
        with pytest.raises(ParameterError):
            parse_policy(bad)


def test_config_rotation_policy_knob():
    config = ServiceConfig(rotation_policy="age:500")
    gateway = MembershipGateway.from_config(config)
    assert isinstance(gateway.policy, TimeBasedRecyclingPolicy)
    never = MembershipGateway.from_config(ServiceConfig(rotation_policy="never"))
    assert isinstance(never.policy, NeverRotatePolicy)
    fill = MembershipGateway.from_config(ServiceConfig(rotation_policy="fill:0.4"))
    assert isinstance(fill.policy, FillThresholdPolicy)
    assert fill.policy.threshold == 0.4
    with pytest.raises(ParameterError):
        ServiceConfig(rotation_policy="fill:2.0")
    with pytest.raises(ParameterError):
        ServiceConfig(rotation_policy="bogus")


# ----------------------------------------------------------------------
# Gateway integration over both backends
# ----------------------------------------------------------------------


def shard0_heavy_urls(gateway: MembershipGateway, count: int) -> list[str]:
    """URLs the gateway routes to shard 0 (aimable public hash)."""
    factory = UrlFactory(seed=99)
    out = []
    while len(out) < count:
        url = factory.url()
        if gateway.shard_of(url) == 0:
            out.append(url)
    return out


@pytest.fixture(params=["local", "process"])
def backend_kind(request):
    return request.param


def build_gateway(backend_kind: str, policy, m: int = 512) -> MembershipGateway:
    def factory() -> BloomFilter:
        return BloomFilter(m, 4)

    backend = (
        ProcessPoolBackend(factory, 2)
        if backend_kind == "process"
        else LocalBackend(factory, 2)
    )
    return MembershipGateway(
        factory, backend=backend, picker=HashShardPicker(), policy=policy
    )


def test_fill_policy_rotates_over_backends(backend_kind):
    with build_gateway(backend_kind, FillThresholdPolicy(0.3), m=256) as gateway:
        asyncio.run(gateway.insert_batch(shard0_heavy_urls(gateway, 120)))
        assert gateway.rotations >= 1
        event = gateway.rotation_log[0]
        assert event.policy == "fill"
        assert event.reason == "fill_ratio>=0.3"
        assert event.op_epoch > 0
        assert gateway.shard_state(0).fill_ratio < 0.3


def test_age_policy_rotates_over_backends(backend_kind):
    with build_gateway(backend_kind, TimeBasedRecyclingPolicy(40)) as gateway:
        targeted = shard0_heavy_urls(gateway, 90)
        asyncio.run(gateway.insert_batch(targeted[:45]))
        asyncio.run(gateway.query_batch(targeted[45:]))
        assert gateway.rotations >= 2  # 90 targeted ops / 40-op budget
        assert all(e.reason == "age_ops>=40" for e in gateway.rotation_log)
        assert all(e.shard_id == 0 for e in gateway.rotation_log)
        # The backend's instance clock restarted with the last rotation.
        assert gateway.shard_state(0).age_ops < 40


def test_adaptive_policy_rotates_on_positive_spike(backend_kind):
    policy = AdaptivePositiveRatePolicy(0.9, min_queries=20)
    with build_gateway(backend_kind, policy) as gateway:
        targeted = shard0_heavy_urls(gateway, 60)
        asyncio.run(gateway.insert_batch(targeted[:30]))
        assert gateway.rotations == 0  # inserts alone never trip it
        # All-positive queries (re-querying the inserted set): spike.
        asyncio.run(gateway.query_batch(targeted[:30]))
        assert gateway.rotations == 1
        assert gateway.rotation_log[0].reason == "positive_rate>=0.9"
        # The rotation reset the lifecycle window.
        assert gateway.lifecycle[0].queries == 0


def test_windowed_adaptive_policy_rotates_late_over_backends(backend_kind):
    # A long honest life dilutes the since-rotation rate; only the
    # windowed policy catches the late all-positive storm.
    policy = AdaptivePositiveRatePolicy(0.9, min_queries=16, window=32)
    with build_gateway(backend_kind, policy, m=4096) as gateway:
        targeted = shard0_heavy_urls(gateway, 200)
        asyncio.run(gateway.insert_batch(targeted[:100]))
        # Honest-ish phase: mostly-negative queries pile up history.
        asyncio.run(gateway.query_batch(targeted[100:200]))
        assert gateway.rotations == 0
        diluted = gateway.lifecycle[0].observe(
            gateway.backend.state(0), gateway.op_epoch
        )
        assert diluted.positive_rate < 0.9  # the unwindowed rule never fires
        # Late storm: re-query known items in small batches -> window spikes.
        for start in range(0, 48, 8):
            asyncio.run(gateway.query_batch(targeted[start : start + 8]))
            if gateway.rotations:
                break
        assert gateway.rotations >= 1
        assert gateway.rotation_log[0].reason == "window_positive_rate>=0.9"
        # Rotation cleared the window with the rest of the history.
        assert gateway.lifecycle[0].window_rate() == 0.0


def test_window_survives_snapshot_round_trip(backend_kind):
    policy = AdaptivePositiveRatePolicy(0.9, min_queries=16, window=32)
    with build_gateway(backend_kind, policy) as gateway:
        asyncio.run(gateway.insert_batch(URLS[:60]))
        asyncio.run(gateway.query_batch(URLS[:40]))
        raw = snapshot_gateway(gateway)
        with build_gateway(backend_kind, policy) as restored:
            restore_gateway(restored, raw)
            for a, b in zip(gateway.lifecycle, restored.lifecycle):
                obs_a = a.observe(gateway.backend.state(a.shard_id), 0)
                obs_b = b.observe(restored.backend.state(b.shard_id), 0)
                assert obs_a.recent == obs_b.recent
                assert a.window_rate() == b.window_rate()
            # The stats table (recent_pos column included) survives too.
            assert restored.render_stats() == gateway.render_stats()


def test_rotate_on_restore_expires_restored_shards(backend_kind):
    policy = RotateOnRestorePolicy(10, inner=FillThresholdPolicy(0.9))
    with build_gateway(backend_kind, policy) as gateway:
        asyncio.run(gateway.insert_batch(URLS[:60]))
        assert gateway.rotations == 0  # live shards: wrapper is inert
        raw = snapshot_gateway(gateway)

        with build_gateway(backend_kind, policy) as restored:
            restore_gateway(restored, raw)
            assert all(life.restored for life in restored.lifecycle)
            # Young restored shards keep serving ...
            asyncio.run(restored.query_batch(URLS[:8]))
            # ... until the post-restore budget runs out on each shard.
            asyncio.run(restored.query_batch(URLS[:40]))
            asyncio.run(restored.query_batch(URLS[40:80]))
            assert restored.rotations >= 1
            assert all(
                e.reason == "restored_age>=10" for e in restored.rotation_log
            )
            # Expired shards are fresh: no longer flagged restored.
            rotated = {e.shard_id for e in restored.rotation_log}
            for shard_id in rotated:
                assert not restored.lifecycle[shard_id].restored


def test_policy_state_snapshot_parity(backend_kind):
    """(age, counters, restored) survive a snapshot byte-exactly."""
    with build_gateway(backend_kind, TimeBasedRecyclingPolicy(10_000)) as gateway:
        asyncio.run(gateway.insert_batch(URLS[:100]))
        asyncio.run(gateway.query_batch(URLS[:150]))
        raw = snapshot_gateway(gateway)
        with build_gateway(backend_kind, TimeBasedRecyclingPolicy(10_000)) as restored:
            restore_gateway(restored, raw)
            assert restored.op_epoch == gateway.op_epoch == 250
            for a, b in zip(gateway.lifecycle, restored.lifecycle):
                obs_a = a.observe(gateway.backend.state(a.shard_id), gateway.op_epoch)
                obs_b = b.observe(
                    restored.backend.state(b.shard_id), restored.op_epoch
                )
                assert (obs_a.age_ops, obs_a.inserts, obs_a.queries, obs_a.positives) == (
                    obs_b.age_ops,
                    obs_b.inserts,
                    obs_b.queries,
                    obs_b.positives,
                )
            # A second snapshot/restore cycle is a byte-level fixed point.
            again = snapshot_gateway(restored)
            with build_gateway(
                backend_kind, TimeBasedRecyclingPolicy(10_000)
            ) as third:
                restore_gateway(third, again)
                assert snapshot_gateway(third) == again


def test_counting_shards_snapshot_through_gateway(backend_kind):
    """CountingBloomFilter shards ride the same gateway snapshot path."""

    def factory() -> CountingBloomFilter:
        return CountingBloomFilter(512, 4)

    backend = (
        ProcessPoolBackend(factory, 2)
        if backend_kind == "process"
        else LocalBackend(factory, 2)
    )
    with MembershipGateway(
        factory, backend=backend, picker=HashShardPicker(), policy=FillThresholdPolicy(0.9)
    ) as gateway:
        asyncio.run(gateway.insert_batch(URLS[:80]))
        raw = snapshot_gateway(gateway)
        with MembershipGateway(
            factory,
            backend=(
                ProcessPoolBackend(factory, 2)
                if backend_kind == "process"
                else LocalBackend(factory, 2)
            ),
            picker=HashShardPicker(),
            policy=FillThresholdPolicy(0.9),
        ) as restored:
            restore_gateway(restored, raw)
            assert asyncio.run(restored.query_batch(URLS[:120])) == asyncio.run(
                gateway.query_batch(URLS[:120])
            )
            for shard_id in range(2):
                assert restored.backend.export_shard(
                    shard_id
                ) == gateway.backend.export_shard(shard_id)


def test_rotation_log_renders_and_no_policy_means_no_rotation():
    gateway = MembershipGateway(
        lambda: BloomFilter(128, 4), shards=2, picker=HashShardPicker()
    )
    asyncio.run(gateway.insert_batch(URLS[:200]))
    assert gateway.rotations == 0  # no policy: never rotate
    guarded = MembershipGateway(
        lambda: BloomFilter(128, 4),
        shards=2,
        picker=HashShardPicker(),
        policy=FillThresholdPolicy(0.2),
    )
    asyncio.run(guarded.insert_batch(URLS[:200]))
    assert guarded.rotations >= 1
    stats = guarded.render_stats()
    assert "rotation log" in stats
    assert "fill_ratio>=0.2" in stats


def test_shard_state_age_ops_defaults_and_equality():
    # Positional construction (pre-lifecycle call sites) still works and
    # compares equal to a zero-age state.
    assert ShardState(0, 0.0, 0) == ShardState(
        hamming_weight=0, fill_ratio=0.0, insertions=0, age_ops=0
    )


def test_lifecycle_state_round_trip_marks_mid_life_restores():
    life = ShardLifecycleState(1)
    life.note_inserts(30)
    life.note_queries(20, 5)
    state = life.to_state(instance_ops=50)
    assert state == {
        "age_ops": 50,
        "inserts": 30,
        "queries": 20,
        "positives": 5,
        "restored": False,
        "restore_epoch": 0,
        "window": ((20, 5),),
        "suppressed": 0,
        "streaks": {},
    }
    back = ShardLifecycleState.from_state(1, state, restore_epoch=77)
    assert back.restored and back.restore_epoch == 77
    assert back.age_base == 50
    # The sliding window crossed the snapshot too.
    assert back.window_rate() == 5 / 20
    # A fresh, never-worked shard does not come back flagged.
    empty = ShardLifecycleState.from_state(
        0, ShardLifecycleState(0).to_state(0), restore_epoch=77
    )
    assert not empty.restored and empty.restore_epoch == 0
    # An already-restored shard keeps its first-restore epoch across
    # further snapshot/restore cycles (the field is stable, not
    # rewritten on every restore).
    again = ShardLifecycleState.from_state(1, back.to_state(10), restore_epoch=200)
    assert again.restored and again.restore_epoch == 77


def test_process_shard_view_keeps_counting_overflow_policy():
    from repro.core.counters import OverflowPolicy

    def factory() -> CountingBloomFilter:
        return CountingBloomFilter(256, 3, overflow=OverflowPolicy.WRAP)

    with ProcessPoolBackend(factory, 1) as backend:
        asyncio.run(backend.insert_batch(0, URLS[:10]))
        view = backend.shard_view(0)
        assert isinstance(view, CountingBloomFilter)
        # The white-box view mirrors the worker's configuration, not the
        # from_snapshot default.
        assert view.overflow is OverflowPolicy.WRAP
        assert all(url in view for url in URLS[:10])
