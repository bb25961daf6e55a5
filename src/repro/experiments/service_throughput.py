"""Service-level experiment: the paper's attacks against a deployed gateway.

Everything the paper measures happens to a filter *object*; this
experiment re-measures it at the layer real deployments care about -- a
sharded membership service under concurrent traffic.  Five in-process
scenarios run the same honest workload through a
:class:`~repro.service.gateway.MembershipGateway`:

* ``honest``            -- no adversary (baseline throughput/FP rate);
* ``aimed-pollution``   -- public shard routing, so the chosen-insertion
  adversary aims every crafted item at shard 0 (Section 4.1,
  concentrated ``shards``-fold) and follows with ghost queries
  (Section 4.2);
* ``aimed+rate-limit``  -- same attack behind a per-client token bucket;
* ``keyed-routing``     -- the gateway routes with a secret SipHash key,
  the adversary still aims via the public hash and now sprays shards;
* ``latency-attack``    -- the worst-case-latency query stream of
  Section 4.2 aimed at shard 0, read off that shard's query p99.

Then the *same seeded attack workload* is replayed over three
transports -- in-process, TCP against a local backend, and TCP against a
process-pool backend (one worker process per shard) -- so real serving
overhead and multi-core parallelism become reproduction outputs rather
than folklore.  Finally the aimed-pollution gateway is snapshotted,
restored into a fresh instance, and re-probed to demonstrate the
warm-restart path.

Notes also record the batch-API microbenchmark (vectorized
``contains_batch``/``add_batch`` vs the scalar loop) that makes the
gateway's hot path worth having.
"""

from __future__ import annotations

import asyncio
import time
from functools import partial

from repro.core.bloom import BloomFilter
from repro.exceptions import SnapshotError
from repro.experiments.runner import ExperimentResult
from repro.service.admission import ClientRateLimiter
from repro.service.backends import LocalBackend, ProcessPoolBackend, ShardBackend
from repro.service.client import MembershipClient
from repro.service.cluster.ring import HashShardPicker, KeyedShardPicker
from repro.service.driver import AdversarialTrafficDriver, TrafficReport
from repro.service.gateway import MembershipGateway
from repro.service.lifecycle import FillThresholdPolicy
from repro.service.server import MembershipServer
from repro.service.snapshots import restore_gateway, snapshot_gateway
from repro.urlgen.faker import UrlFactory

__all__ = ["run"]

_SHARDS = 4
_K = 4
_THRESHOLD = 0.35


def _shard_filter(m: int) -> BloomFilter:
    """Module-level shard factory (picklable for the process backend)."""
    return BloomFilter(m, _K)


def _batch_microbench(scale: float, seed: int) -> tuple[int, float, float, float, float]:
    """(items, scalar_q_us, batch_q_us, scalar_a_us, batch_a_us) per item."""
    count = max(1_000, int(10_000 * scale))
    items = UrlFactory(seed=seed + 11).urls(count)
    target = BloomFilter(65_536, _K)
    target.add_batch(items[: count // 2])

    start = time.perf_counter()
    scalar_answers = [item in target for item in items]
    scalar_q = time.perf_counter() - start
    start = time.perf_counter()
    batch_answers = target.contains_batch(items)
    batch_q = time.perf_counter() - start
    assert scalar_answers == batch_answers

    scalar_target = BloomFilter(65_536, _K)
    batch_target = BloomFilter(65_536, _K)
    start = time.perf_counter()
    for item in items:
        scalar_target.add(item)
    scalar_a = time.perf_counter() - start
    start = time.perf_counter()
    batch_target.add_batch(items)
    batch_a = time.perf_counter() - start
    assert scalar_target.to_bytes() == batch_target.to_bytes()

    to_us = 1e6 / count
    return count, scalar_q * to_us, batch_q * to_us, scalar_a * to_us, batch_a * to_us


def _workload(scale: float, attack: bool, latency: bool = False) -> dict:
    return dict(
        honest_clients=3,
        honest_inserts=max(40, int(800 * scale)),
        honest_queries=max(40, int(800 * scale)),
        batch=16,
        pollution_inserts=max(30, int(240 * scale)) if attack else 0,
        ghost_queries=max(8, int(48 * scale)) if attack else 0,
        ghost_min_fill=_THRESHOLD * 0.6,
        latency_queries=max(16, int(96 * scale)) if latency else 0,
        latency_min_fill=_THRESHOLD * 0.4,
        target_shard=0,
        probe_queries=max(100, int(800 * scale)),
    )


def _scenario(
    name: str,
    scale: float,
    seed: int,
    keyed_router: bool,
    rate_limit: float | None,
    attack: bool,
    latency: bool = False,
) -> tuple[str, TrafficReport, MembershipGateway]:
    shard_m = max(256, int(4096 * scale))
    gateway = MembershipGateway(
        lambda: BloomFilter(shard_m, _K),
        shards=_SHARDS,
        picker=KeyedShardPicker() if keyed_router else HashShardPicker(),
        policy=FillThresholdPolicy(_THRESHOLD),
        limiter=ClientRateLimiter(rate_limit, burst=32) if rate_limit else None,
    )
    # The adversary always aims through the *public* router; when the
    # gateway keys its routing, that aim is wrong.
    driver = AdversarialTrafficDriver(
        gateway, seed=seed, attacker_router=HashShardPicker(), max_trials=250_000
    )
    report = asyncio.run(driver.run(**_workload(scale, attack, latency)))
    return name, report, gateway


async def _replay_over_tcp(
    backend_kind: str, scale: float, seed: int, attack: bool
) -> tuple[TrafficReport, MembershipGateway]:
    """Replay a seeded workload through the wire layer."""
    shard_m = max(256, int(4096 * scale))
    factory = partial(_shard_filter, shard_m)
    backend: ShardBackend = (
        ProcessPoolBackend(factory, _SHARDS)
        if backend_kind == "procpool"
        else LocalBackend(factory, _SHARDS)
    )
    gateway = MembershipGateway(
        factory,
        backend=backend,
        picker=HashShardPicker(),
        policy=FillThresholdPolicy(_THRESHOLD),
    )
    try:
        async with MembershipServer(gateway) as server:
            client = MembershipClient(*server.address)
            try:
                driver = AdversarialTrafficDriver(
                    gateway,
                    seed=seed,
                    attacker_router=HashShardPicker(),
                    max_trials=250_000,
                    transport=client,
                )
                report = await driver.run(**_workload(scale, attack=attack))
            finally:
                await client.aclose()
    finally:
        gateway.close()
    return report, gateway


def _probe_answers(gateway: MembershipGateway, seed: int, count: int) -> list[bool]:
    probes = UrlFactory(seed=seed ^ 0x5EED).urls(count)
    return asyncio.run(gateway.query_batch(probes, client="restart-probe"))


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Run the service-throughput experiment at the given ``scale``."""
    result = ExperimentResult(
        experiment_id="service",
        title="Sharded membership service under adversarial traffic",
        paper_claim=(
            "deployed behind a service, chosen-insertion pollution aimed at one "
            "shard saturates it and ghost queries amplify the false-positive "
            "rate by orders of magnitude; keyed routing and rotation restore "
            "the honest profile; the attack is transport-independent while "
            "serving overhead and parallelism are not"
        ),
        headers=[
            "scenario",
            "transport",
            "routing",
            "ops",
            "ops/s",
            "rotations",
            "limited",
            "shard0_fill",
            "ghost_hit",
            "honest_fp",
            "amplif",
            "shard0_p99_us",
        ],
    )

    scenarios = [
        _scenario("honest", scale, seed, keyed_router=False, rate_limit=None, attack=False),
        _scenario("aimed-pollution", scale, seed, keyed_router=False, rate_limit=None, attack=True),
        _scenario("aimed+rate-limit", scale, seed, keyed_router=False, rate_limit=400.0, attack=True),
        _scenario("keyed-routing", scale, seed, keyed_router=True, rate_limit=None, attack=True),
        _scenario("latency-attack", scale, seed, keyed_router=False, rate_limit=None, attack=False, latency=True),
    ]

    def add_row(name: str, transport: str, routing: str, report: TrafficReport) -> None:
        shard0 = report.snapshots[0]
        result.add_row(
            name,
            transport,
            routing,
            report.operations,
            round(report.throughput),
            report.rotations,
            report.rate_limited,
            round(shard0.fill_ratio, 3),
            round(report.ghost_hit_rate, 3),
            round(report.honest_fp_rate, 4),
            round(report.amplification, 1),
            round(shard0.query_p99_us, 1),
        )

    for name, report, gateway in scenarios:
        add_row(name, "inproc", gateway.picker.name.split("(")[0], report)

    by_name = {name: report for name, report, _ in scenarios}
    aimed = by_name["aimed-pollution"]
    keyed = by_name["keyed-routing"]
    result.note(
        f"aimed pollution triggers {aimed.rotations} rotation(s) and ghosts hit "
        f"{aimed.ghost_hit_rate:.0%}; keyed routing absorbs the same attack with "
        f"{keyed.rotations} rotation(s) of the target shard"
    )
    latency = by_name["latency-attack"]
    honest = by_name["honest"]
    result.note(
        f"latency-query stream: {latency.latency_queries} worst-case negatives "
        f"walking {latency.latency_mean_probes:.1f} probes each push shard0 query "
        f"p99 to {latency.snapshots[0].query_p99_us:.1f}us "
        f"(honest baseline {honest.snapshots[0].query_p99_us:.1f}us)"
    )

    # -- transport comparison ---------------------------------------------
    # The same seeded *attack* workload replays over TCP against both
    # backends (same row structure as the in-process run: that is the
    # transport-independence claim) ...
    tcp_local, _ = asyncio.run(_replay_over_tcp("local", scale, seed, attack=True))
    tcp_pool, _ = asyncio.run(_replay_over_tcp("procpool", scale, seed, attack=True))
    add_row("aimed-pollution", "tcp-local", "murmur3", tcp_local)
    add_row("aimed-pollution", "tcp-procpool", "murmur3", tcp_pool)
    # ... while serving overhead is read off the *honest* workload, whose
    # clock contains no adversarial crafting time.
    honest_local, _ = asyncio.run(_replay_over_tcp("local", scale, seed, attack=False))
    honest_pool, _ = asyncio.run(_replay_over_tcp("procpool", scale, seed, attack=False))
    add_row("honest", "tcp-local", "murmur3", honest_local)
    add_row("honest", "tcp-procpool", "murmur3", honest_pool)
    if honest_local.throughput > 0 and honest_pool.throughput > 0:
        result.note(
            f"serving overhead (honest workload): inproc "
            f"{honest.throughput:,.0f} -> tcp-local "
            f"{honest_local.throughput:,.0f} ops/s "
            f"(x{honest.throughput / honest_local.throughput:.1f} slower over the "
            f"wire); tcp-procpool {honest_pool.throughput:,.0f} ops/s "
            f"(x{honest_local.throughput / honest_pool.throughput:.2f} vs "
            f"tcp-local; one worker per shard, speedup needs multi-core and "
            f"CPU-bound batches)"
        )

    # -- warm restart: snapshot, restore, identical answers --------------
    _, aimed_report, aimed_gateway = scenarios[1]
    probe_count = max(100, int(400 * scale))
    before = _probe_answers(aimed_gateway, seed, probe_count)
    raw = snapshot_gateway(aimed_gateway)
    shard_m = max(256, int(4096 * scale))
    restarted = MembershipGateway(
        lambda: BloomFilter(shard_m, _K),
        shards=_SHARDS,
        picker=HashShardPicker(),
        policy=FillThresholdPolicy(_THRESHOLD),
    )
    restore_gateway(restarted, raw)
    after = _probe_answers(restarted, seed, probe_count)
    identical = before == after
    result.note(
        f"warm restart: {len(raw)} snapshot bytes restore {restarted.rotations} "
        f"rotation event(s) and all shard bits; {probe_count} probe answers "
        f"{'identical' if identical else 'DIVERGED'} after restart"
    )
    if not identical:
        # A hard failure, not an assert: this invariant must hold even
        # under `python -O`, and the CI smoke run leans on it.
        raise SnapshotError("restored gateway diverged from the snapshot source")

    count, scalar_q, batch_q, scalar_a, batch_a = _batch_microbench(scale, seed)
    result.note(
        f"batch hot path ({count} items): query {scalar_q:.2f} -> {batch_q:.2f} "
        f"us/item (x{scalar_q / batch_q:.2f}), insert {scalar_a:.2f} -> "
        f"{batch_a:.2f} us/item (x{scalar_a / batch_a:.2f})"
    )
    return result
