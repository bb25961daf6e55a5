"""Rotation-policy study: lifecycle defences under adversarial traffic.

The ROADMAP's open question: the default policy rotates on a fill
threshold -- how do the alternatives behave under the same attacks?
This experiment replays the driver's seeded honest / pollution / ghost /
latency workloads against a gateway running each of the four shipped
:mod:`repro.service.lifecycle` policies:

* ``fill``      -- the fill-threshold default (retire at 35% fill);
* ``age``       -- dablooms-style op-count recycling, fill-blind;
* ``adaptive``  -- rotate on a positive-rate spike (the ghost storm's
  signature), the anti-adaptive-adversary defence;
* ``restore+fill`` -- expire snapshot-restored shards, fill rule
  otherwise.

Each policy runs on two transports (in-process and TCP against a local
backend), so the policy comparison holds across the wire exactly like
the attack itself.  The per-policy table reports rotations (with their
machine-readable reasons), honest FP rate, ghost amplification and
throughput.

Two extra rows re-run the fill and adaptive policies over the paper's
*worst-case-parameter* shards (Section 8.1: ``k = round(m/(en))``
minimises the adversarially-achievable FP rate), closing the loop
between the parameter countermeasure and the lifecycle one.

Finally the snapshot story: a gateway running the rotate-on-restore
policy is snapshotted mid-run and restored; lifecycle state (op age,
counters) must survive byte-exactly, every worked shard must come back
flagged restored, and the continued workload must retire those shards
for the ``restored_age`` reason.  The same round trip is verified on
counting-filter shards (the deletable-service warm restart the ROADMAP
asked for).
"""

from __future__ import annotations

import asyncio

from repro.core.bloom import BloomFilter
from repro.core.counting import CountingBloomFilter
from repro.core.params import BloomParameters
from repro.exceptions import SnapshotError
from repro.experiments.runner import ExperimentResult
from repro.service.client import MembershipClient
from repro.service.cluster.ring import HashShardPicker
from repro.service.config import ServiceConfig
from repro.service.driver import AdversarialTrafficDriver, TrafficReport
from repro.service.gateway import MembershipGateway
from repro.service.lifecycle import parse_policy
from repro.service.server import MembershipServer
from repro.service.snapshots import restore_gateway, snapshot_gateway
from repro.urlgen.faker import UrlFactory

__all__ = ["run"]

_SHARDS = 4
_K = 4
_FILL = 0.35


def _age_budget(scale: float) -> int:
    """Op budget of the age policy, scaled so each shard retires a
    couple of times per run (EXPERIMENTS.md documents this mapping)."""
    return max(48, int(400 * scale))


def _restore_budget(scale: float) -> int:
    """Post-restore op budget of the rotate-on-restore wrapper, scaled
    so restored shards expire within the post-restore replay."""
    return max(16, int(200 * scale))


def _policy_specs(scale: float) -> list[tuple[str, str]]:
    """(label, spec) per studied policy, budgets scaled with the workload."""
    return [
        ("fill", f"fill:{_FILL}"),
        ("age", f"age:{_age_budget(scale)}"),
        ("adaptive", "adaptive:0.55:24"),
        ("restore+fill", f"restore:{_restore_budget(scale)}+fill:{_FILL}"),
    ]


def _workload(scale: float) -> dict:
    return dict(
        honest_clients=3,
        honest_inserts=max(40, int(800 * scale)),
        honest_queries=max(40, int(800 * scale)),
        batch=16,
        pollution_inserts=max(30, int(240 * scale)),
        ghost_queries=max(32, int(400 * scale)),
        ghost_min_fill=_FILL * 0.35,
        latency_queries=max(8, int(48 * scale)),
        latency_min_fill=_FILL * 0.3,
        target_shard=0,
        probe_queries=max(100, int(800 * scale)),
    )


def _config(scale: float, spec: str) -> ServiceConfig:
    return ServiceConfig(
        shards=_SHARDS,
        shard_m=max(256, int(4096 * scale)),
        shard_k=_K,
        rotation_policy=spec,
    )


def _replay_inproc(config: ServiceConfig, scale: float, seed: int) -> TrafficReport:
    gateway = MembershipGateway.from_config(config)
    driver = AdversarialTrafficDriver(
        gateway, seed=seed, attacker_router=HashShardPicker(), max_trials=12_000
    )
    return asyncio.run(driver.run(**_workload(scale)))


def _replay_tcp(config: ServiceConfig, scale: float, seed: int) -> TrafficReport:
    async def scenario() -> TrafficReport:
        gateway = MembershipGateway.from_config(config)
        try:
            async with MembershipServer(gateway) as server:
                client = MembershipClient(*server.address)
                try:
                    driver = AdversarialTrafficDriver(
                        gateway,
                        seed=seed,
                        attacker_router=HashShardPicker(),
                        max_trials=12_000,
                        transport=client,
                    )
                    return await driver.run(**_workload(scale))
                finally:
                    await client.aclose()
        finally:
            gateway.close()

    return asyncio.run(scenario())


def _replay_worst_case(spec: str, scale: float, seed: int) -> TrafficReport:
    """Same replay over shards parameterised for the worst case: the
    config DSL cannot express a derived k, so the gateway is built
    directly from the Section 8.1 design rule."""
    shard_m = max(256, int(4096 * scale))
    capacity = max(40, int(300 * scale))
    params = BloomParameters.design_worst_case(capacity, shard_m)
    gateway = MembershipGateway(
        lambda: BloomFilter(params.m, params.k),
        shards=_SHARDS,
        picker=HashShardPicker(),
        policy=parse_policy(spec),
    )
    driver = AdversarialTrafficDriver(
        gateway, seed=seed, attacker_router=HashShardPicker(), max_trials=12_000
    )
    return asyncio.run(driver.run(**_workload(scale)))


def _reasons(report: TrafficReport) -> str:
    if not report.rotation_reasons:
        return "-"
    return ",".join(f"{r}x{n}" for r, n in sorted(report.rotation_reasons.items()))


def _lifecycle_fingerprint(gateway: MembershipGateway) -> list[tuple]:
    """(age, inserts, queries, positives) per shard, via the same
    observation path the policies read."""
    out = []
    for shard_id in range(gateway.shards):
        obs = gateway.lifecycle[shard_id].observe(
            gateway.backend.state(shard_id), gateway.op_epoch
        )
        out.append((obs.age_ops, obs.inserts, obs.queries, obs.positives))
    return out


def _check_restore_round_trip(
    result: ExperimentResult, scale: float, seed: int
) -> None:
    """Mid-run snapshot -> restore keeps policy state; rotate-on-restore
    then retires the restored shards."""
    restore_budget = _restore_budget(scale)
    spec = f"restore:{restore_budget}+fill:{_FILL}"
    config = _config(scale, spec)
    gateway = MembershipGateway.from_config(config)
    # Phase 1: run roughly half the workload, then snapshot mid-life.
    half = {
        key: (value // 2 if isinstance(value, int) and key != "batch" else value)
        for key, value in _workload(scale).items()
    }
    driver = AdversarialTrafficDriver(
        gateway, seed=seed, attacker_router=HashShardPicker(), max_trials=12_000
    )
    asyncio.run(driver.run(**half))
    raw = snapshot_gateway(gateway)
    before = _lifecycle_fingerprint(gateway)

    restored = MembershipGateway.from_config(config)
    restore_gateway(restored, raw)
    after = _lifecycle_fingerprint(restored)
    if before != after:
        raise SnapshotError(
            f"policy state diverged across restore: {before} != {after}"
        )
    flags = [life.restored for life in restored.lifecycle]
    worked = [life.restored for life in gateway.lifecycle]
    result.note(
        f"warm restart (policy '{spec}'): {len(raw)} snapshot bytes; per-shard "
        f"(age, inserts, queries, positives) identical across restore; "
        f"restored flags {worked} -> {flags}"
    )
    if not all(flags):
        raise SnapshotError("restored gateway did not flag its shards as restored")

    # Phase 2: keep serving; the wrapper must expire the restored shards.
    driver = AdversarialTrafficDriver(
        restored, seed=seed + 1, attacker_router=HashShardPicker(), max_trials=12_000
    )
    report = asyncio.run(driver.run(**half))
    expiries = report.rotation_reasons.get(f"restored_age>={restore_budget}", 0)
    result.note(
        f"post-restore replay: {report.rotations} rotation(s), {expiries} for the "
        f"restored_age>={restore_budget} reason (restored shards expired on budget)"
    )
    if expiries == 0:
        raise SnapshotError("rotate-on-restore never fired after a warm restart")


def _check_counting_round_trip(
    result: ExperimentResult, scale: float, seed: int
) -> None:
    """The same snapshot/restore story over counting-filter shards."""
    shard_m = max(256, int(4096 * scale))
    age_budget = _age_budget(scale)

    def factory() -> CountingBloomFilter:
        return CountingBloomFilter(shard_m, _K)

    def build() -> MembershipGateway:
        return MembershipGateway(
            factory,
            shards=2,
            picker=HashShardPicker(),
            policy=parse_policy(f"age:{age_budget}"),
        )

    urls = UrlFactory(seed=seed ^ 0xC0B1).urls(max(60, int(400 * scale)))
    gateway = build()
    asyncio.run(gateway.insert_batch(urls))
    asyncio.run(gateway.query_batch(urls[: len(urls) // 2]))
    raw = snapshot_gateway(gateway)
    restored = build()
    restore_gateway(restored, raw)
    probes = urls + UrlFactory(seed=seed ^ 0x90B).urls(100)
    identical = asyncio.run(gateway.query_batch(probes)) == asyncio.run(
        restored.query_batch(probes)
    )
    parity = _lifecycle_fingerprint(gateway) == _lifecycle_fingerprint(restored)
    result.note(
        f"counting shards: {len(raw)} snapshot bytes restore counters + policy "
        f"state on CountingBloomFilter shards; probe answers "
        f"{'identical' if identical else 'DIVERGED'}, lifecycle parity "
        f"{'ok' if parity else 'BROKEN'}"
    )
    if not (identical and parity):
        raise SnapshotError("counting-shard snapshot round trip diverged")


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Run the rotation-policy study at the given ``scale``."""
    result = ExperimentResult(
        experiment_id="rotation_policy_study",
        title="Rotation policies vs the paper's attacks, across transports",
        paper_claim=(
            "recycling the filter is the deployable countermeasure (Sections 6 "
            "and 8, Table 2): any rotation rule bounds pollution damage, but "
            "*when* to rotate decides how much amplification a ghost forger "
            "extracts before the bits it measured are retired"
        ),
        headers=[
            "policy",
            "transport",
            "rotations",
            "reasons",
            "honest_fp",
            "ghost_hit",
            "amplif",
            "ops/s",
            "shard0_fill",
        ],
    )

    def add_row(label: str, transport: str, report: TrafficReport) -> None:
        result.add_row(
            label,
            transport,
            report.rotations,
            _reasons(report),
            round(report.honest_fp_rate, 4),
            round(report.ghost_hit_rate, 3),
            round(report.amplification, 1),
            round(report.throughput),
            round(report.snapshots[0].fill_ratio, 3),
        )

    by_policy: dict[str, TrafficReport] = {}
    for label, spec in _policy_specs(scale):
        config = _config(scale, spec)
        inproc = _replay_inproc(config, scale, seed)
        by_policy[label] = inproc
        add_row(label, "inproc", inproc)
        add_row(label, "tcp-local", _replay_tcp(config, scale, seed))

    for label, spec in _policy_specs(scale)[:1] + _policy_specs(scale)[2:3]:
        add_row(f"{label}@worstcase-k", "inproc", _replay_worst_case(spec, scale, seed))

    fill, age = by_policy["fill"], by_policy["age"]
    adaptive = by_policy["adaptive"]
    result.note(
        f"same seeded attack, different lifecycles: fill rotates "
        f"{fill.rotations}x ({_reasons(fill)}), age {age.rotations}x "
        f"({_reasons(age)}), adaptive {adaptive.rotations}x ({_reasons(adaptive)}) "
        f"with ghost hit rates {fill.ghost_hit_rate:.0%} / {age.ghost_hit_rate:.0%} "
        f"/ {adaptive.ghost_hit_rate:.0%}"
    )

    _check_restore_round_trip(result, scale, seed)
    _check_counting_round_trip(result, scale, seed)
    return result
