"""The adversarial traffic driver: crafting, concurrency, reporting,
rate-limit-accurate retries, and the shared attack budget."""

from __future__ import annotations

import asyncio
import time
from types import SimpleNamespace

import pytest

from repro import accel
from repro.adversary.budget import AdaptiveQueryStrategy, AttackBudget
from repro.core.bloom import BloomFilter
from repro.exceptions import AttackBudgetExhausted, ParameterError
from repro.service.admission import ClientRateLimiter
from repro.service.backends import LocalBackend, ProcessPoolBackend
from repro.service.cluster.ring import HashShardPicker, KeyedShardPicker
from repro.service.config import ServiceConfig
from repro.service.driver import AdversarialTrafficDriver, TrafficReport, replay
from repro.service.gateway import MembershipGateway
from repro.service.lifecycle import FillThresholdPolicy


def make_gateway(m: int = 512, **kwargs) -> MembershipGateway:
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("picker", HashShardPicker())
    return MembershipGateway(lambda: BloomFilter(m, 4), **kwargs)


def small_workload(**overrides) -> dict:
    workload = dict(
        honest_clients=2,
        honest_inserts=60,
        honest_queries=60,
        batch=8,
        pollution_inserts=40,
        ghost_queries=8,
        ghost_min_fill=0.1,
        target_shard=0,
        probe_queries=120,
    )
    workload.update(overrides)
    return workload


def test_crafted_pollution_aims_at_target_shard():
    gateway = make_gateway()
    driver = AdversarialTrafficDriver(gateway, seed=5, max_trials=100_000)
    report = TrafficReport()
    items = driver.craft_pollution(0, 12, report)
    assert len(items) == 12
    assert report.pollution_crafted == 12
    assert report.pollution_trials >= 12
    # Every crafted item routes to the target shard and pollutes it:
    # k fresh bits per insert, by the paper's eq. (6) predicate.
    before = gateway.filters[0].hamming_weight
    for item in items:
        assert gateway.shard_of(item) == 0
        gateway.filters[0].add(item)
    assert gateway.filters[0].hamming_weight == before + 12 * 4


def test_crafting_aims_over_the_global_shard_space_of_a_partial_gateway():
    """A gateway owning shards {1, 3} of 4 still routes over all 4, so
    the attacker's candidate filter must pick over the global count."""
    gateway = MembershipGateway.from_config(
        ServiceConfig(shards=4, shard_m=2**12, shard_k=4, rotation_policy="never"),
        shard_ids=[1, 3],
        total_shards=4,
    )
    driver = AdversarialTrafficDriver(gateway, seed=5, max_trials=100_000)
    report = TrafficReport()
    # Shard 1 first: picking over the owned count (2) still finds items
    # for it, just the wrong ones, so a regression fails here rather
    # than hanging on shard 3, which no 2-way pick can ever reach.
    items = driver.craft_pollution(1, 4, report)
    assert [gateway.shard_of(item) for item in items] == [1] * 4
    items = driver.craft_pollution(3, 2, report)
    assert [gateway.shard_of(item) for item in items] == [3] * 2


def test_crafted_ghosts_hit_polluted_shard():
    gateway = make_gateway()
    shard0 = gateway.filters[0]
    # Pre-fill the shard so ghost forging is affordable.
    filler = AdversarialTrafficDriver(gateway, seed=9, max_trials=100_000)
    report = TrafficReport()
    for item in filler.craft_pollution(0, 30, report):
        shard0.add(item)
    ghosts = filler.craft_ghosts(0, 6, report)
    assert len(ghosts) == 6
    assert report.ghost_crafted == 6
    for ghost in ghosts:
        assert gateway.shard_of(ghost) == 0
        assert ghost in shard0  # a false positive by construction


# ----------------------------------------------------------------------
# The chunk contract every craft_* call keeps
# ----------------------------------------------------------------------

CRAFT_CALLS = {
    "pollution": lambda driver, count, report: driver.craft_pollution(
        0, count, report
    ),
    "ghost": lambda driver, count, report: driver.craft_ghosts(0, count, report),
    "adaptive": lambda driver, count, report: driver.craft_adaptive_ghosts(
        0, count, AdaptiveQueryStrategy(seed=3), report
    ),
    "latency": lambda driver, count, report: driver.craft_latency_queries(
        0, count, report
    ),
}


def chunk_driver(budget: AttackBudget, max_trials: int = 100_000):
    """A budgeted driver over a gateway whose shard 0 was pre-filled by
    crafted pollution (so every attack is affordable)."""
    gateway = make_gateway()
    filler = AdversarialTrafficDriver(gateway, seed=9, max_trials=100_000)
    for item in filler.craft_pollution(0, 40, TrafficReport()):
        gateway.filters[0].add(item)
    return AdversarialTrafficDriver(
        gateway, seed=6, max_trials=max_trials, budget=budget
    )


def first_item(name: str) -> tuple[list[str], int]:
    """The first item a chunk crafts, and its cost, given purse to spare."""
    budget = AttackBudget(max_trials=10**6)
    items = CRAFT_CALLS[name](chunk_driver(budget), 1, TrafficReport())
    return items, budget.trials_spent


def assert_ledgers_agree(report: TrafficReport, budget: AttackBudget) -> None:
    spend = budget.spend_by_label().get("pollution")
    assert report.pollution_trials == (spend.trials if spend else 0)


@pytest.mark.parametrize("name", sorted(CRAFT_CALLS))
def test_per_item_cap_cuts_the_chunk_short(name: str):
    budget = AttackBudget(max_trials=10**6)
    report = TrafficReport()
    items = CRAFT_CALLS[name](chunk_driver(budget, max_trials=2), 8, report)
    assert len(items) < 8
    assert report.crafting_exhausted == 1
    assert_ledgers_agree(report, budget)


@pytest.mark.parametrize("name", sorted(CRAFT_CALLS))
def test_purse_drained_after_the_first_item_returns_the_paid_for_items(name: str):
    first, cost = first_item(name)
    budget = AttackBudget(max_trials=cost + 1)
    driver = chunk_driver(budget)
    report = TrafficReport()
    items = CRAFT_CALLS[name](driver, 3, report)
    assert items[:1] == first
    assert budget.trials_spent == cost + 1
    assert_ledgers_agree(report, budget)
    with pytest.raises(AttackBudgetExhausted):
        CRAFT_CALLS[name](driver, 3, report)
    assert_ledgers_agree(report, budget)


@pytest.mark.parametrize("name", sorted(CRAFT_CALLS))
def test_purse_drained_before_the_first_item_raises_after_spending_it(name: str):
    _, cost = first_item(name)
    assert cost >= 2  # the seeds leave a purse to drain
    budget = AttackBudget(max_trials=cost - 1)
    report = TrafficReport()
    with pytest.raises(AttackBudgetExhausted):
        CRAFT_CALLS[name](chunk_driver(budget), 3, report)
    assert budget.trials_spent == cost - 1
    assert_ledgers_agree(report, budget)


def test_replay_reports_consistent_counts():
    gateway = make_gateway(policy=FillThresholdPolicy(0.35))
    driver = AdversarialTrafficDriver(gateway, seed=11, max_trials=100_000)
    report = asyncio.run(driver.run(**small_workload()))
    assert report.honest_inserts == 60
    assert report.honest_queries == 60
    assert report.probe_queries == 120
    assert report.elapsed_s > 0
    assert report.operations > 0
    assert report.throughput > 0
    assert len(report.snapshots) == 4
    # The aimed attack concentrates inserts on the target shard.
    inserts = [s.inserts for s in report.snapshots]
    assert inserts[0] == max(inserts)
    rendered = report.render()
    assert "pollution" in rendered and "shard" in rendered


def test_replay_triggers_rotation_under_aimed_pollution():
    gateway = make_gateway(m=256, policy=FillThresholdPolicy(0.35))
    driver = AdversarialTrafficDriver(gateway, seed=2, max_trials=100_000)
    report = asyncio.run(driver.run(**small_workload(pollution_inserts=60)))
    assert report.rotations >= 1
    assert gateway.rotation_log[0].shard_id == 0


def test_keyed_router_disperses_misrouted_attack():
    # Gateway routes with a secret key; the adversary aims via the
    # public hash, so its crafted stream scatters across shards.
    gateway = make_gateway(picker=KeyedShardPicker(bytes(16)))
    driver = AdversarialTrafficDriver(
        gateway, seed=5, attacker_router=HashShardPicker(), max_trials=100_000
    )
    report = TrafficReport()
    items = driver.craft_pollution(0, 16, report)
    landed = [gateway.shard_of(item) for item in items]
    assert len(set(landed)) > 1  # no longer concentrated on shard 0


def test_ghost_amplification_exceeds_honest_baseline():
    gateway = make_gateway()
    driver = AdversarialTrafficDriver(gateway, seed=23, max_trials=100_000)
    report = asyncio.run(driver.run(**small_workload(ghost_queries=12)))
    assert report.ghost_queries > 0
    assert report.ghost_hit_rate > report.honest_fp_rate
    assert report.amplification > 1


def test_replay_sync_wrapper():
    gateway = make_gateway()
    report = replay(gateway, **small_workload(pollution_inserts=0, ghost_queries=0))
    assert isinstance(report, TrafficReport)
    assert report.pollution_crafted == 0
    assert report.ghost_queries == 0
    assert report.amplification == 0.0


def test_driver_validation():
    gateway = make_gateway()
    with pytest.raises(ParameterError):
        AdversarialTrafficDriver(gateway, craft_chunk=0)
    driver = AdversarialTrafficDriver(gateway)
    with pytest.raises(ParameterError):
        asyncio.run(driver.run(honest_clients=-1))


def test_empty_report_properties():
    report = TrafficReport()
    assert report.throughput == 0.0
    assert report.honest_fp_rate == 0.0
    assert report.ghost_hit_rate == 0.0
    assert report.amplification == 0.0
    assert report.latency_mean_probes == 0.0


def test_latency_workload_crafts_worst_case_negatives():
    gateway = make_gateway()
    driver = AdversarialTrafficDriver(gateway, seed=31, max_trials=100_000)
    # Pre-fill the target shard so latency forging is affordable.
    report = TrafficReport()
    for item in driver.craft_pollution(0, 40, report):
        gateway.filters[0].add(item)
    items = driver.craft_latency_queries(0, 10, report)
    assert len(items) == 10
    assert report.latency_crafted == 10
    shard0 = gateway.filters[0]
    for item in items:
        # Routed at the target shard, k-1 set bits then one unset: a
        # negative that walks the whole short-circuit loop.
        assert gateway.shard_of(item) == 0
        indexes = shard0.indexes(item)
        assert all(shard0.bits.get(i) for i in indexes[:-1])
        assert not shard0.bits.get(indexes[-1])
        assert item not in shard0
    # Every crafted item forces all k probes.
    assert report.latency_mean_probes == 4.0


def test_replay_with_latency_stream_reports_counters():
    gateway = make_gateway()
    driver = AdversarialTrafficDriver(gateway, seed=13, max_trials=100_000)
    report = asyncio.run(
        driver.run(
            **small_workload(
                ghost_queries=0, latency_queries=12, latency_min_fill=0.05
            )
        )
    )
    assert report.latency_queries == 12
    assert report.latency_crafted >= 12
    assert report.latency_mean_probes == 4.0
    # Latency queries are negatives: they never raise the positive count
    # beyond what honest traffic and FPs produce, but they do run through
    # the telemetry (shard 0 saw them).
    assert report.snapshots[0].queries >= 12
    assert "latency queries: 12" in report.render()
    with pytest.raises(ParameterError):
        asyncio.run(driver.run(latency_queries=-1))


def test_replay_over_tcp_transport_matches_inproc_counts():
    """The transport knob: identical seeded workload, same counts."""
    from repro.service.client import MembershipClient
    from repro.service.server import MembershipServer

    workload = small_workload(pollution_inserts=0, ghost_queries=0)

    async def over_tcp():
        gateway = make_gateway()
        async with MembershipServer(gateway) as server:
            client = MembershipClient(*server.address)
            driver = AdversarialTrafficDriver(gateway, seed=11, transport=client)
            report = await driver.run(**workload)
            await client.aclose()
            return report

    tcp_report = asyncio.run(over_tcp())
    inproc_driver = AdversarialTrafficDriver(make_gateway(), seed=11)
    inproc_report = asyncio.run(inproc_driver.run(**workload))

    for field in ("honest_inserts", "honest_queries", "operations",
                  "probe_queries", "probe_false_positives"):
        assert getattr(tcp_report, field) == getattr(inproc_report, field)
    assert [s.inserts for s in tcp_report.snapshots] == [
        s.inserts for s in inproc_report.snapshots
    ]


# ----------------------------------------------------------------------
# Rate-limit-accurate accounting (the retry-not-skip fix)
# ----------------------------------------------------------------------


def frozen_limiter(burst: int = 8) -> ClientRateLimiter:
    """A limiter whose clock never advances: each client gets exactly one
    ``burst`` of admissions, ever -- fully deterministic rejections."""
    return ClientRateLimiter(rate=1.0, burst=burst, clock=lambda: 0.0)


def test_honest_rate_limited_chunks_are_retried_then_dropped_explicitly():
    # Frozen bucket: the first 8-item chunk is admitted, everything after
    # is rejected on every attempt.  The old code silently skipped the
    # rejected chunks while advancing the workload cursor; now they are
    # retried (visible in rate_limited) and, past the bounded cap,
    # dropped *explicitly* into send_dropped.
    gateway = make_gateway(limiter=frozen_limiter(burst=8))
    driver = AdversarialTrafficDriver(
        gateway, seed=3, backoff=0.001, send_retries=3
    )
    report = asyncio.run(
        driver.run(
            honest_clients=1,
            honest_inserts=24,
            honest_queries=0,
            batch=8,
            pollution_inserts=0,
            ghost_queries=0,
            probe_queries=0,
        )
    )
    assert report.honest_inserts == 8  # only the admitted chunk delivered
    assert report.send_dropped == 16  # the other two chunks, explicitly
    assert report.honest_inserts + report.send_dropped == 24  # nothing silent
    # Each dropped chunk was attempted 1 + send_retries times.
    assert report.rate_limited == 2 * (1 + 3) * 8
    assert report.operations == 8


def test_honest_rate_limited_chunks_eventually_deliver_with_refill():
    # A live (refilling) limiter: retries must deliver the whole
    # workload -- the pre-fix behaviour lost these chunks entirely.
    gateway = make_gateway(
        limiter=ClientRateLimiter(rate=2000.0, burst=8)
    )
    driver = AdversarialTrafficDriver(
        gateway, seed=5, backoff=0.005, send_retries=50
    )
    report = asyncio.run(
        driver.run(
            honest_clients=1,
            honest_inserts=40,
            honest_queries=16,
            batch=8,
            pollution_inserts=0,
            ghost_queries=0,
            probe_queries=0,
        )
    )
    assert report.honest_inserts == 40
    assert report.honest_queries == 16
    assert report.send_dropped == 0
    assert report.rate_limited > 0  # the bucket did push back along the way


def test_attack_loop_retries_rate_limited_chunks():
    # Same frozen-bucket determinism for the attack path: crafted chunks
    # past the burst are retried then dropped -- never counted as sent.
    gateway = make_gateway(limiter=frozen_limiter(burst=8))
    driver = AdversarialTrafficDriver(
        gateway, seed=2, max_trials=100_000, backoff=0.001, send_retries=2
    )
    report = asyncio.run(
        driver.run(
            honest_clients=0,
            honest_inserts=0,
            honest_queries=0,
            batch=8,
            pollution_inserts=24,
            ghost_queries=0,
            probe_queries=0,
        )
    )
    assert report.pollution_crafted == 24
    # Only the admitted chunk reached the target shard.
    assert report.snapshots[0].inserts == 8
    assert report.operations == 8
    assert report.send_dropped == 16
    assert report.rate_limited == 2 * (1 + 2) * 8


# ----------------------------------------------------------------------
# The monotonic fill-wait bound
# ----------------------------------------------------------------------


def test_wait_for_fill_bound_is_wall_clock_not_iterations(monkeypatch):
    # A never-filling shard with slow state probes: the 5 s bound must be
    # measured with time.monotonic, not by counting 5 ms per iteration
    # (the old accounting stretched the bound by however long each
    # off-thread probe took).
    import repro.service.driver as driver_module

    gateway = make_gateway()
    driver = AdversarialTrafficDriver(gateway)
    fake_now = {"t": 100.0}

    def fake_monotonic() -> float:
        # Each call advances the clock by 2.6 "seconds" -- as if every
        # probe round-trip were that slow on a busy process backend.
        fake_now["t"] += 2.6
        return fake_now["t"]

    monkeypatch.setattr(
        driver_module,
        "time",
        SimpleNamespace(monotonic=fake_monotonic, perf_counter=time.perf_counter),
    )
    polls = {"n": 0}
    real_state = gateway.shard_state

    def counting_state(shard_id):
        polls["n"] += 1
        return real_state(shard_id)

    monkeypatch.setattr(gateway, "shard_state", counting_state)
    start = time.perf_counter()
    asyncio.run(driver._wait_for_fill(0, min_fill=0.99))
    assert time.perf_counter() - start < 2.0  # bound held in real time
    # deadline = t+5; with 2.6s per clock read only one poll fits.
    assert polls["n"] == 1


def test_wait_for_fill_returns_once_filled():
    gateway = make_gateway(m=256)
    driver = AdversarialTrafficDriver(gateway, seed=1, max_trials=100_000)
    report = TrafficReport()
    for item in driver.craft_pollution(0, 20, report):
        gateway.filters[0].add(item)
    start = time.perf_counter()
    asyncio.run(driver._wait_for_fill(0, min_fill=0.1))
    assert time.perf_counter() - start < 1.0


# ----------------------------------------------------------------------
# Amplification without a probe baseline
# ----------------------------------------------------------------------


def test_zero_probe_amplification_is_undefined_not_x1():
    gateway = make_gateway()
    driver = AdversarialTrafficDriver(gateway, seed=23, max_trials=100_000)
    report = asyncio.run(
        driver.run(**small_workload(ghost_queries=12, probe_queries=0))
    )
    assert report.ghost_queries > 0 and report.ghost_hits > 0
    # No baseline -> undefined -> 0.0, never hit_rate/1.0 passed off as x1.
    assert report.probe_queries == 0
    assert report.amplification == 0.0
    assert "no probe baseline" in report.render()


# ----------------------------------------------------------------------
# The shared attack budget over both backends
# ----------------------------------------------------------------------


@pytest.fixture(params=["local", "process"])
def driver_backend(request):
    return request.param


def build_backend_gateway(kind: str, m: int = 512, shards: int = 4) -> MembershipGateway:
    def factory() -> BloomFilter:
        return BloomFilter(m, 4)

    backend = (
        ProcessPoolBackend(factory, shards)
        if kind == "process"
        else LocalBackend(factory, shards)
    )
    return MembershipGateway(factory, backend=backend, picker=HashShardPicker())


def test_budget_exhaustion_stops_the_static_ghost_client(driver_backend):
    with build_backend_gateway(driver_backend) as gateway:
        budget = AttackBudget(max_trials=400)
        driver = AdversarialTrafficDriver(
            gateway, seed=7, max_trials=50_000, budget=budget
        )
        report = asyncio.run(
            driver.run(
                honest_clients=2,
                honest_inserts=120,
                honest_queries=40,
                batch=16,
                pollution_inserts=0,
                ghost_queries=40,
                ghost_min_fill=0.08,
                probe_queries=40,
            )
        )
    assert report.budget_exhausted >= 1  # the campaign hit the wall
    assert report.ghost_queries < 40  # and could not finish the workload
    assert budget.trials_spent <= 400  # the clamp never overspends
    assert report.budget_spend["ghost"]["trials"] == budget.trials_spent
    assert "attack budget spend" in report.render()


def test_adaptive_strategy_outearns_static_per_trial(driver_backend):
    def replay_strategy(strategy: str) -> TrafficReport:
        with build_backend_gateway(driver_backend) as gateway:
            driver = AdversarialTrafficDriver(
                gateway,
                seed=11,
                max_trials=20_000,
                budget=AttackBudget(max_trials=4000),
            )
            workload = dict(
                honest_clients=2,
                honest_inserts=160,
                honest_queries=60,
                batch=16,
                pollution_inserts=0,
                ghost_queries=32 if strategy == "static" else 0,
                adaptive_ghost_queries=32 if strategy == "adaptive" else 0,
                ghost_min_fill=0.15,
                adaptive_min_fill=0.15,
                probe_queries=0,
            )
            return asyncio.run(driver.run(**workload))

    static = replay_strategy("static")
    adaptive = replay_strategy("adaptive")
    assert adaptive.adaptive_queries > 0
    assert adaptive.adaptive_resends > 0  # confirmed ghosts were replayed
    assert adaptive.adaptive_hits >= adaptive.adaptive_resends
    # The Naor-Yogev advantage: same purse, more hits per charged trial.
    assert adaptive.hits_per_kilotrial("adaptive") > static.hits_per_kilotrial(
        "ghost"
    )
    # Spend is labelled per client, and trials go only to the one that ran.
    assert "adaptive" in adaptive.budget_spend
    assert "ghost" not in adaptive.budget_spend


@pytest.mark.skipif(
    accel.numpy_or_none() is None, reason="numpy backend unavailable"
)
def test_adaptive_ghosts_are_identical_across_accel_modes():
    """The adaptive stream draws from the strategy's shared RNG, so a
    search that pulled past its winner would shift every later
    candidate; crafting must consume exactly what it examines in both
    accel modes."""

    def campaign(mode: str) -> list[list[str]]:
        gateway = make_gateway()
        driver = AdversarialTrafficDriver(gateway, seed=9, max_trials=100_000)
        report = TrafficReport()
        for item in driver.craft_pollution(0, 30, report):
            gateway.filters[0].add(item)
        ghosts = driver.craft_ghosts(0, 6, report)
        strategy = AdaptiveQueryStrategy(seed=3)
        strategy.observe(ghosts, asyncio.run(gateway.query_batch(ghosts)))
        assert strategy.promoted_prefixes
        with accel.use_mode(mode):
            return [
                driver.craft_adaptive_ghosts(0, 4, strategy, report, seed_offset=offset)
                for offset in range(3)
            ]

    reference = campaign("pure")
    assert all(len(chunk) == 4 for chunk in reference)
    assert campaign("numpy") == reference


def test_budget_deadline_ends_the_campaign():
    gateway = make_gateway()
    clock = {"t": 0.0}

    def fake_clock() -> float:
        clock["t"] += 0.5  # every budget touch burns half a "second"
        return clock["t"]

    budget = AttackBudget(deadline_s=3.0, clock=fake_clock)
    driver = AdversarialTrafficDriver(
        gateway, seed=9, max_trials=100_000, budget=budget
    )
    report = asyncio.run(
        driver.run(
            honest_clients=1,
            honest_inserts=60,
            honest_queries=0,
            batch=8,
            pollution_inserts=40,
            ghost_queries=0,
            probe_queries=0,
        )
    )
    assert report.budget_exhausted >= 1
    assert report.pollution_crafted < 40
    # Honest traffic is never charged, so it finished untouched.
    assert report.honest_inserts == 60


def test_adaptive_pool_flushes_when_rotation_invalidates_ghosts():
    from repro.service.lifecycle import AdaptivePositiveRatePolicy

    gateway = make_gateway(
        m=512, policy=AdaptivePositiveRatePolicy(0.9, min_queries=8, window=16)
    )
    driver = AdversarialTrafficDriver(gateway, seed=13, max_trials=100_000)
    report = asyncio.run(
        driver.run(
            honest_clients=2,
            honest_inserts=120,
            honest_queries=0,
            batch=16,
            pollution_inserts=0,
            ghost_queries=0,
            adaptive_ghost_queries=48,
            adaptive_min_fill=0.1,
            probe_queries=0,
        )
    )
    # The windowed tripwire rotates on the all-positive adaptive storm,
    # and the strategy notices: a pooled ghost answered negative.
    assert report.rotations >= 1
    assert report.adaptive_flushes >= 1
    assert report.adaptive_queries > 0
    assert report.adaptive_hits < report.adaptive_queries  # post-flush misses


def test_driver_coalesce_knob_and_report_columns():
    gateway = make_gateway(m=2048)
    gateway.configure_coalescing(window_us=200, max_batch=32)
    driver = AdversarialTrafficDriver(gateway, seed=31, max_trials=100_000)
    report = asyncio.run(driver.run(**small_workload()))
    # The concurrent replay actually shared merged backend calls, and
    # the report carries the delta for *this* replay only.
    assert report.coalesce_requests > 0
    assert report.coalesce_flushes > 0
    assert report.coalesce_ratio >= 1.0
    assert "coalesced:" in report.render()

    gateway.configure_coalescing(0, 0)
    off = AdversarialTrafficDriver(gateway, seed=31)
    report_off = asyncio.run(off.run(**small_workload()))
    assert report_off.coalesce_requests == 0
    assert report_off.coalesce_flushes == 0
    assert "coalesced:" not in report_off.render()
