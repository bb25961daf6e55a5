"""The defence-policy algebra: combinators, the spec grammar, stateful
wrapper scratch, and its persistence through gateway snapshots."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.bloom import BloomFilter
from repro.exceptions import ConfigError, ParameterError
from repro.service.backends import ShardState
from repro.service.cluster.ring import HashShardPicker
from repro.service.config import ServiceConfig
from repro.service.gateway import MembershipGateway
from repro.service.lifecycle import (
    KEEP,
    AdaptivePositiveRatePolicy,
    AllOf,
    AnyOf,
    Cooldown,
    FillThresholdPolicy,
    Hysteresis,
    NeverRotatePolicy,
    Not,
    RotateOnRestorePolicy,
    ShardLifecycleState,
    ShardObservation,
    TimeBasedRecyclingPolicy,
    parse_policy,
)
from repro.service.snapshots import restore_gateway, snapshot_gateway
from repro.urlgen.faker import UrlFactory

URLS = UrlFactory(seed=0xA16E).urls(400)


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
# Pure combinator semantics
# ----------------------------------------------------------------------


def test_all_of_requires_every_vote():
    policy = AllOf([FillThresholdPolicy(0.5), TimeBasedRecyclingPolicy(100)])
    assert not policy.decide(observation(fill_ratio=0.6, age_ops=50)).rotate
    assert not policy.decide(observation(fill_ratio=0.4, age_ops=150)).rotate
    decision = policy.decide(observation(fill_ratio=0.6, age_ops=150))
    assert decision.rotate
    assert decision.reason == "fill_ratio>=0.5 & age_ops>=100"


def test_any_of_takes_the_first_rotating_reason():
    policy = AnyOf([FillThresholdPolicy(0.5), TimeBasedRecyclingPolicy(100)])
    assert not policy.decide(observation(fill_ratio=0.1, age_ops=10)).rotate
    assert policy.decide(observation(fill_ratio=0.6, age_ops=10)).reason == "fill_ratio>=0.5"
    assert policy.decide(observation(fill_ratio=0.1, age_ops=150)).reason == "age_ops>=100"


def test_combinators_need_two_children():
    for bad in (
        lambda: AllOf([FillThresholdPolicy(0.5)]),
        lambda: AnyOf([]),
    ):
        with pytest.raises(ParameterError):
            bad()


def test_not_inverts_and_guards():
    veto = Not(FillThresholdPolicy(0.5))
    assert veto.decide(observation(fill_ratio=0.1)).rotate
    assert not veto.decide(observation(fill_ratio=0.9)).rotate
    # The intended use: an AllOf guard ("recycle on age, except while
    # the filter is saturated enough to be under active study").
    guarded = AllOf([TimeBasedRecyclingPolicy(100), Not(FillThresholdPolicy(0.9))])
    assert guarded.decide(observation(age_ops=150, fill_ratio=0.2)).rotate
    assert not guarded.decide(observation(age_ops=150, fill_ratio=0.95)).rotate


def test_needs_recent_propagates_through_the_tree():
    windowed = AdaptivePositiveRatePolicy(0.8, 16, window=32)
    assert AllOf([FillThresholdPolicy(0.5), windowed]).needs_recent
    assert not AllOf([FillThresholdPolicy(0.5), TimeBasedRecyclingPolicy(5)]).needs_recent
    assert AnyOf([NeverRotatePolicy(), windowed]).needs_recent
    assert Not(windowed).needs_recent
    assert Cooldown(10, windowed).needs_recent
    assert not Cooldown(10, FillThresholdPolicy(0.5)).needs_recent
    assert Hysteresis(2, windowed).needs_recent


# ----------------------------------------------------------------------
# Cooldown
# ----------------------------------------------------------------------


def test_cooldown_refuses_young_rotations_and_tallies():
    life = ShardLifecycleState(0)
    policy = Cooldown(100, FillThresholdPolicy(0.5))
    # Inner keeps: cooldown passes the keep through, no tally.
    assert not policy.decide(observation(fill_ratio=0.1, age_ops=10), life).rotate
    assert life.suppressed == 0
    # Inner rotates but the filter is young: refused and tallied.
    refused = policy.decide(observation(fill_ratio=0.8, age_ops=10), life)
    assert not refused.rotate
    assert refused.reason == "cooldown<100"
    assert life.suppressed == 1
    # Old enough: the rotation passes with the inner reason.
    passed = policy.decide(observation(fill_ratio=0.8, age_ops=100), life)
    assert passed.rotate and passed.reason == "fill_ratio>=0.5"
    assert life.suppressed == 1
    with pytest.raises(ParameterError):
        Cooldown(0, FillThresholdPolicy(0.5))


def test_cooldown_without_life_still_decides():
    policy = Cooldown(100, FillThresholdPolicy(0.5))
    assert not policy.evaluate(observation(fill_ratio=0.8, age_ops=10)).rotate
    assert policy.evaluate(observation(fill_ratio=0.8, age_ops=200)).rotate


# ----------------------------------------------------------------------
# Hysteresis
# ----------------------------------------------------------------------


def test_hysteresis_needs_consecutive_votes():
    life = ShardLifecycleState(0)
    policy = Hysteresis(3, FillThresholdPolicy(0.5))
    key = policy.spec()
    hot = observation(fill_ratio=0.8)
    cold = observation(fill_ratio=0.1)
    assert not policy.decide(hot, life).rotate
    assert life.streaks[key] == 1
    assert not policy.decide(hot, life).rotate
    assert life.streaks[key] == 2
    # A keep vote resets the streak.
    assert not policy.decide(cold, life).rotate
    assert life.streaks[key] == 0
    # Three consecutive rotate votes fire, and the streak clears.
    for _ in range(2):
        assert not policy.decide(hot, life).rotate
    decision = policy.decide(hot, life)
    assert decision.rotate
    assert decision.reason == "hold3:fill_ratio>=0.5"
    assert life.streaks[key] == 0
    with pytest.raises(ParameterError):
        Hysteresis(0, FillThresholdPolicy(0.5))


def test_hysteresis_transient_fallback_is_per_shard():
    policy = Hysteresis(2, FillThresholdPolicy(0.5))
    hot0 = observation(shard_id=0, fill_ratio=0.8)
    hot1 = observation(shard_id=1, fill_ratio=0.8)
    assert not policy.decide(hot0).rotate
    assert not policy.decide(hot1).rotate  # shard 1's streak is its own
    assert policy.decide(hot0).rotate
    assert policy.decide(hot1).rotate


def test_duplicate_hysteresis_twins_keep_separate_streaks():
    # Two identical wrappers in one tree must not share a streak entry:
    # each bumps its own key once per decision, so a hold-2 pair still
    # needs two *batches*, not one, to fire.
    life = ShardLifecycleState(0)
    policy = parse_policy("hysteresis:2(fill:0.5)|hysteresis:2(fill:0.5)")
    first, second = policy.children
    assert first.streak_key == "hysteresis:2(fill:0.5)"
    assert second.streak_key == "hysteresis:2(fill:0.5)#2"
    hot = observation(fill_ratio=0.8)
    assert not policy.decide(hot, life).rotate  # one spiky batch: held
    assert life.streaks == {first.streak_key: 1, second.streak_key: 1}
    assert policy.decide(hot, life).rotate  # the second consecutive one
    # Re-parsing the same spec rebuilds the same keys, so snapshotted
    # streaks stay attached across a restart.
    reparsed = parse_policy(policy.spec())
    assert [c.streak_key for c in reparsed.children] == [
        first.streak_key,
        second.streak_key,
    ]


def test_restore_wrapping_a_negation_round_trips():
    policy = RotateOnRestorePolicy(5, inner=Not(FillThresholdPolicy(0.5)))
    assert policy.spec() == "restore:5+(!fill:0.5)"
    rebuilt = parse_policy(policy.spec())
    assert rebuilt.spec() == policy.spec()
    assert isinstance(rebuilt.inner, Not)


def test_streaks_clear_on_lifecycle_reset_but_tally_survives():
    life = ShardLifecycleState(0)
    life.streaks["hysteresis:2(fill:0.5)"] = 1
    life.suppressed = 4
    life.reset()
    assert life.streaks == {}
    assert life.suppressed == 4  # cumulative operator counter


# ----------------------------------------------------------------------
# Grammar: composed specs, round trips, rejection
# ----------------------------------------------------------------------


def test_composed_specs_round_trip():
    for spec in (
        "(adaptive:0.8:24:32&fill:0.5)|age:4000",
        "cooldown:200(adaptive:0.8:24:32)",
        "cooldown:200(hysteresis:2(adaptive:0.85:24:32))",
        "hysteresis:3(fill:0.5&age:100)",
        "fill:0.5&age:100&!adaptive:0.9:16",
        "!(fill:0.5|age:100)",
        "restore:10+(fill:0.5|age:100)",
        "restore:10+cooldown:50(fill:0.5)",
        "never|fill:0.9",
        "cooldown:150(adaptive:0.6:32)&fill:0.2",
    ):
        policy = parse_policy(spec)
        assert parse_policy(policy.spec()).spec() == policy.spec(), spec


def test_parse_builds_the_expected_tree():
    policy = parse_policy("(adaptive:0.8:24:32&fill:0.5)|age:4000")
    assert isinstance(policy, AnyOf)
    conjunction, age = policy.children
    assert isinstance(conjunction, AllOf)
    assert isinstance(age, TimeBasedRecyclingPolicy)
    adaptive, fill = conjunction.children
    assert isinstance(adaptive, AdaptivePositiveRatePolicy)
    assert adaptive.window == 32
    assert isinstance(fill, FillThresholdPolicy)

    wrapped = parse_policy("cooldown:200(hysteresis:2(adaptive:0.85:24:32))")
    assert isinstance(wrapped, Cooldown) and wrapped.ops == 200
    assert isinstance(wrapped.inner, Hysteresis) and wrapped.inner.hold == 2

    restore = parse_policy("restore:10+(fill:0.5|age:100)")
    assert isinstance(restore, RotateOnRestorePolicy)
    assert isinstance(restore.inner, AnyOf)


def test_operator_precedence_and_wins_over_or():
    # a|b&c parses as a|(b&c), matching the documented precedence.
    policy = parse_policy("age:4000|adaptive:0.9:16&fill:0.5")
    assert isinstance(policy, AnyOf)
    assert isinstance(policy.children[0], TimeBasedRecyclingPolicy)
    assert isinstance(policy.children[1], AllOf)


def test_parse_rejects_trailing_garbage_with_config_error():
    # The historical bug class: a valid prefix followed by junk must be
    # rejected, never silently accepted.
    for bad in (
        "fill:0.5xyz",
        "fill:0.5)",
        "(fill:0.5",
        "fill:0.5 age:4000",
        "fill:0.5&",
        "fill:0.5|",
        "fill:0.5&&age:4",
        "!(fill:0.5))",
        "cooldown:5",
        "cooldown:5 fill:0.5",
        "hysteresis:2()",
        "fill:0.5+age:100",
        "age:4_000",
        "fill:nan",
        "fill:inf",
        "fill:+0.5",
        "adaptive:0.8:",
        "",
        "   ",
        "&",
        "!",
        "never:",
    ):
        with pytest.raises(ConfigError):
            parse_policy(bad)
    # ConfigError is a ParameterError, so pre-grammar callers still work.
    assert issubclass(ConfigError, ParameterError)


def test_service_config_validates_composed_specs():
    config = ServiceConfig(
        rotation_policy="cooldown:200(hysteresis:2(adaptive:0.85:24:32))",
    )
    gateway = MembershipGateway.from_config(config)
    assert isinstance(gateway.policy, Cooldown)
    with pytest.raises(ConfigError):
        ServiceConfig(rotation_policy="fill:0.5xyz")


# ----------------------------------------------------------------------
# Gateway integration: the composed defence live, over real traffic
# ----------------------------------------------------------------------


def shard0_heavy_urls(gateway: MembershipGateway, count: int) -> list[str]:
    factory = UrlFactory(seed=77)
    out: list[str] = []
    while len(out) < count:
        url = factory.url()
        if gateway.shard_of(url) == 0:
            out.append(url)
    return out


def build_gateway(policy) -> MembershipGateway:
    return MembershipGateway(
        lambda: BloomFilter(512, 4),
        shards=2,
        picker=HashShardPicker(),
        policy=policy,
    )


def test_cooldown_suppresses_live_rotation_and_shows_in_telemetry():
    # The inner tripwire would rotate on the re-query storm, but the
    # filter is younger than the cool-down: refused, tallied, visible.
    policy = parse_policy("cooldown:100000(adaptive:0.6:16)")
    with build_gateway(policy) as gateway:
        targeted = shard0_heavy_urls(gateway, 60)
        asyncio.run(gateway.insert_batch(targeted[:30]))
        asyncio.run(gateway.query_batch(targeted[:30]))
        assert gateway.rotations == 0
        assert gateway.lifecycle[0].suppressed >= 1
        snapshot = gateway.snapshot()[0]
        assert snapshot.rotations_suppressed == gateway.lifecycle[0].suppressed
        assert "suppressed" in gateway.render_stats()


def test_hysteresis_delays_live_rotation_until_the_storm_persists():
    policy = parse_policy("hysteresis:3(adaptive:0.6:8)")
    with build_gateway(policy) as gateway:
        targeted = shard0_heavy_urls(gateway, 80)
        asyncio.run(gateway.insert_batch(targeted[:40]))
        # One spiky batch is not a campaign: no rotation yet.
        asyncio.run(gateway.query_batch(targeted[:10]))
        assert gateway.rotations == 0
        assert gateway.lifecycle[0].streaks[policy.spec()] >= 1
        # Two more all-positive batches complete the streak.
        asyncio.run(gateway.query_batch(targeted[10:20]))
        asyncio.run(gateway.query_batch(targeted[20:30]))
        assert gateway.rotations == 1
        assert gateway.rotation_log[0].reason == "hold3:positive_rate>=0.6"
        # The rotation cleared the streak with the rest of the history.
        assert gateway.lifecycle[0].streaks == {}


def test_composed_scratch_survives_snapshot_round_trip():
    spec = "cooldown:100000(hysteresis:4(adaptive:0.6:16))"
    policy = parse_policy(spec)
    with build_gateway(policy) as gateway:
        targeted = shard0_heavy_urls(gateway, 60)
        asyncio.run(gateway.insert_batch(targeted[:30]))
        asyncio.run(gateway.query_batch(targeted[:20]))
        life = gateway.lifecycle[0]
        assert life.streaks or life.suppressed  # scratch is non-trivial
        raw = snapshot_gateway(gateway)
        with build_gateway(parse_policy(spec)) as restored:
            restore_gateway(restored, raw)
            for before, after in zip(gateway.lifecycle, restored.lifecycle):
                assert after.streaks == before.streaks
                assert after.suppressed == before.suppressed
            # The restored gateway keeps counting from where it left off.
            asyncio.run(restored.query_batch(targeted[20:30]))
            assert restored.lifecycle[0].suppressed >= gateway.lifecycle[0].suppressed


def test_all_branches_keep_seeing_observations():
    # No short-circuiting: the hysteresis branch of an AnyOf builds its
    # streak even while the other branch never fires.
    life = ShardLifecycleState(0)
    streaky = Hysteresis(2, FillThresholdPolicy(0.5))
    policy = AnyOf([NeverRotatePolicy(), streaky])
    hot = observation(fill_ratio=0.8)
    assert not policy.decide(hot, life).rotate
    assert life.streaks[streaky.spec()] == 1
    assert policy.decide(hot, life).rotate


def test_keep_decision_is_shared_constant():
    assert not KEEP.rotate and KEEP.reason == "keep"
