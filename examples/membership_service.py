#!/usr/bin/env python3
"""The membership service under attack, end to end.

Boots the sharded asyncio gateway (``repro.service``), replays a mixed
honest + pollution + ghost-query workload through the adversarial
traffic driver, and prints the per-shard stats.  Four acts:

  1. public routing -- the adversary aims every crafted item at shard 0,
     saturates it, and the fill-threshold policy rotates it mid-run;
  2. the same attack against a rate-limited gateway -- the attacker's
     insert budget collapses;
  3. keyed routing -- the adversary can no longer aim, pollution sprays
     across shards, and the target shard stays healthy;
  4. the full serving stack -- the same attack over TCP against a
     process-pool backend (one worker per shard), then a snapshot,
     a simulated restart, and proof the warm gateway answers
     identically;
  5. the lifecycle layer -- the same attack under an *adaptive* rotation
     policy (rotate on the ghost storm's positive-rate spike), then a
     warm restart under rotate-on-restore, which expires the restored
     shards on their post-restore op budget;
  6. the defence algebra -- a composed policy,
     ``cooldown:150(adaptive:0.6:32)&fill:0.2``, live: rotate on the
     ghost storm's signature only once the filter holds enough state to
     be worth invalidating, and never twice within 150 operations (the
     refused rotations land in the ``suppressed`` telemetry column);
  7. the cluster tier -- three gateways share an 8-shard space over a
     consistent-hash ring with a *keyed* item router, the same aimed
     attack sprays instead of concentrating, and a shard is rebalanced
     to another node mid-attack by byte-exact snapshot handoff while a
     stale client follows ``NOT_OWNER`` redirects without losing a
     single insert.

Run: ``python examples/membership_service.py``
"""

from __future__ import annotations

import asyncio
from functools import partial

from repro.core import BloomFilter
from repro.service import (
    AdversarialTrafficDriver,
    ClientRateLimiter,
    ClusterHarness,
    HashShardPicker,
    KeyedShardPicker,
    MembershipClient,
    MembershipGateway,
    MembershipServer,
    ProcessPoolBackend,
    ServiceConfig,
    parse_policy,
    restore_gateway,
    snapshot_gateway,
)
from repro.urlgen.faker import UrlFactory

SHARDS = 4
SHARD_M = 2048
SHARD_K = 4
THRESHOLD = 0.4

WORKLOAD = dict(
    honest_clients=3,
    honest_inserts=360,
    honest_queries=360,
    batch=16,
    pollution_inserts=200,
    ghost_queries=32,
    ghost_min_fill=0.25,
    target_shard=0,
    probe_queries=400,
)


def build_gateway(keyed_router: bool = False, rate_limit: float | None = None) -> MembershipGateway:
    return MembershipGateway(
        lambda: BloomFilter(SHARD_M, SHARD_K),
        shards=SHARDS,
        picker=KeyedShardPicker() if keyed_router else HashShardPicker(),
        policy=parse_policy(f"fill:{THRESHOLD}"),
        limiter=ClientRateLimiter(rate_limit, burst=32) if rate_limit else None,
    )


def run_act(title: str, gateway: MembershipGateway) -> None:
    print(f"=== {title} ===")
    print(f"gateway: {SHARDS} shards of m={SHARD_M}, k={SHARD_K}, "
          f"router {gateway.picker.name}, rotate at fill {THRESHOLD}")
    # The adversary aims through the public router regardless of what the
    # gateway actually uses -- with keyed routing that aim is wrong.
    driver = AdversarialTrafficDriver(gateway, seed=7, attacker_router=HashShardPicker())
    report = asyncio.run(driver.run(**WORKLOAD))
    print(report.render())
    for event in gateway.rotation_log:
        print(f"rotation: shard {event.shard_id} retired at fill "
              f"{event.retired_fill:.2f} ({event.retired_weight} bits, "
              f"{event.retired_insertions} insertions)")
    if not gateway.rotation_log:
        print("rotation: none (no shard crossed the saturation threshold)")
    print()


async def run_act_networked() -> None:
    """Act 4: the attack over TCP + process pool, then a warm restart."""
    print("=== act 4: full stack (TCP wire, process-pool shards, snapshot) ===")
    factory = partial(BloomFilter, SHARD_M, SHARD_K)
    gateway = MembershipGateway(
        factory,
        backend=ProcessPoolBackend(factory, SHARDS),
        picker=HashShardPicker(),
        policy=parse_policy(f"fill:{THRESHOLD}"),
    )
    try:
        async with MembershipServer(gateway) as server:
            host, port = server.address
            print(f"gateway: {SHARDS} shard workers behind tcp://{host}:{port}")
            client = MembershipClient(host, port)
            driver = AdversarialTrafficDriver(
                gateway, seed=7, attacker_router=HashShardPicker(), transport=client
            )
            report = await driver.run(**WORKLOAD)
            print(report.render())
            await client.aclose()

        # Snapshot, "restart" into a fresh gateway (new workers), re-probe.
        raw = snapshot_gateway(gateway)
        restarted = MembershipGateway(
            factory,
            backend=ProcessPoolBackend(factory, SHARDS),
            picker=HashShardPicker(),
            policy=parse_policy(f"fill:{THRESHOLD}"),
        )
        try:
            restore_gateway(restarted, raw)
            probes = UrlFactory(seed=0xCAFE).urls(200)
            before = await gateway.query_batch(probes)
            after = await restarted.query_batch(probes)
            print(
                f"warm restart: {len(raw)} snapshot bytes, "
                f"{restarted.rotations} rotation event(s) carried over, "
                f"200 probe answers {'identical' if before == after else 'DIVERGED'}"
            )
        finally:
            restarted.close()
    finally:
        gateway.close()
    print()


def run_act_lifecycle() -> None:
    """Act 5: pluggable rotation policies + snapshot-aware recycling."""
    print("=== act 5: lifecycle policies (adaptive spike, rotate-on-restore) ===")
    # The adaptive policy ignores fill entirely: it watches the positive
    # rate, which the ghost storm pushes far above the honest mix.
    gateway = MembershipGateway(
        lambda: BloomFilter(SHARD_M, SHARD_K),
        shards=SHARDS,
        picker=HashShardPicker(),
        policy=parse_policy("adaptive:0.6:32"),
    )
    driver = AdversarialTrafficDriver(gateway, seed=7, attacker_router=HashShardPicker())
    report = asyncio.run(driver.run(**WORKLOAD))
    print(f"adaptive policy: {report.rotations} rotation(s) "
          f"{report.rotation_reasons or ''} -- each one invalidates every "
          f"ghost forged against the retired bits")

    # Warm restart under rotate-on-restore: the restored shards' bits
    # were observable while the service was down, so they expire after a
    # short post-restore budget (the snapshot carries the policy state).
    spec = "restore:150+fill:0.4"
    restarted = MembershipGateway(
        lambda: BloomFilter(SHARD_M, SHARD_K),
        shards=SHARDS,
        picker=HashShardPicker(),
        policy=parse_policy(spec),
    )
    restore_gateway(restarted, snapshot_gateway(gateway))
    print(f"restored under '{spec}': shards flagged restored = "
          f"{[life.restored for life in restarted.lifecycle]}")
    report = asyncio.run(
        AdversarialTrafficDriver(restarted, seed=8).run(**WORKLOAD)
    )
    print(f"post-restore replay: {report.rotations} rotation(s) "
          f"{report.rotation_reasons}")
    print()


def run_act_defense_algebra() -> None:
    """Act 6: a composed defence live -- cooldown(adaptive) & fill."""
    print("=== act 6: defence algebra (cooldown(adaptive:spike) & fill guard) ===")
    # Conjunction: the ghost-storm tripwire fires only once the filter
    # holds enough state to be worth invalidating (fill >= 0.2), and the
    # cool-down wrapper guarantees a 150-op minimum filter lifetime --
    # a sustained storm cannot thrash the shard into permanent
    # emptiness; every refused rotation is tallied.
    spec = "cooldown:150(adaptive:0.6:32)&fill:0.2"
    gateway = MembershipGateway(
        lambda: BloomFilter(SHARD_M, SHARD_K),
        shards=SHARDS,
        picker=HashShardPicker(),
        policy=parse_policy(spec),
    )
    print(f"policy: {gateway.policy.spec()}")
    driver = AdversarialTrafficDriver(gateway, seed=7, attacker_router=HashShardPicker())
    report = asyncio.run(driver.run(**WORKLOAD))
    suppressed = sum(life.suppressed for life in gateway.lifecycle)
    print(f"composed policy: {report.rotations} rotation(s) "
          f"{report.rotation_reasons or ''}, {suppressed} refused by the "
          f"cool-down (the 'suppressed' column below)")
    print(gateway.render_stats())
    print()


async def run_act_cluster() -> None:
    """Act 7: three gateways, a keyed ring, a live mid-attack rebalance."""
    print("=== act 7: cluster tier (3 gateways, keyed router, live rebalance) ===")
    # The item router is a secret SipHash key, so the adversary's aim --
    # computed against the public hash -- is wrong twice over: wrong
    # shard, and (via the ring) often the wrong *gateway* entirely.
    config = ServiceConfig(
        shard_m=SHARD_M,
        shard_k=SHARD_K,
        rotation_policy="never",
        router="siphash:" + bytes(range(16)).hex(),
    )
    async with ClusterHarness(
        ["alpha", "beta", "gamma"], total_shards=8, config=config
    ) as cluster:
        print(f"cluster: 8 global shards over {list(cluster.ring.nodes)}, "
              f"item router {cluster.picker.name}, "
              f"ownership epoch {cluster.ownership.epoch}")

        # The attacker crafts items that the PUBLIC router would send to
        # shard 0 -- the paper's chosen-insertion aim, rejection-sampled.
        aim = HashShardPicker()
        factory = UrlFactory(seed=0x7A)
        honest = factory.urls(240)
        crafted: list[str] = []
        while len(crafted) < 160:
            crafted.extend(
                url for url in factory.urls(256) if aim.pick(url, 8) == 0
            )
        crafted = crafted[:160]

        # A client minted BEFORE the rebalance: its ownership view will
        # go stale the moment the shard moves.
        stale = cluster.client()
        await stale.insert_batch(honest, client="honest")
        await stale.insert_batch(crafted[:80], client="attacker")

        view = cluster.view
        fills = [row.fill_ratio for row in view.snapshot()]
        print(f"mid-attack: aimed shard 0 at fill {fills[0]:.2f}, "
              f"cluster max/mean = {max(fills) / (sum(fills) / len(fills)):.2f} "
              "(the keyed router sprayed the aim)")
        print()
        print("--- before rebalance ---")
        print(view.render_stats())

        # Rebalance shard 0 away from its owner, mid-attack: snapshot
        # handoff under the serving lock, ownership epoch bumped last.
        source = cluster.ownership.owner_of(0)
        destination = next(n for n in cluster.ring.nodes if n != source)
        epoch = await cluster.move_shard(0, destination)
        print()
        print(f"rebalance: shard 0 handed {source} -> {destination} "
              f"(ownership epoch {epoch})")

        # The stale client keeps attacking: its first batch touching
        # shard 0 bounces off the old owner with NOT_OWNER, it learns
        # the new placement, and retries -- nothing is lost.
        await stale.insert_batch(crafted[80:], client="attacker")
        answers = await stale.query_batch(honest + crafted, client="audit")
        print(f"stale client: {stale.redirects_followed} redirect(s) "
              f"followed, {sum(answers)}/{len(answers)} tracked inserts "
              "still answer positive (zero lost)")
        print()
        print("--- after rebalance ---")
        print(cluster.view.render_stats())
    print()


if __name__ == "__main__":
    run_act("act 1: aimed pollution against public routing", build_gateway())
    run_act(
        "act 2: same attack, rate-limited clients",
        build_gateway(rate_limit=400.0),
    )
    run_act("act 3: same attack, keyed (secret) routing", build_gateway(keyed_router=True))
    asyncio.run(run_act_networked())
    run_act_lifecycle()
    run_act_defense_algebra()
    asyncio.run(run_act_cluster())
