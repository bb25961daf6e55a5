"""The benchmark's workloads: inputs, set-up, timed phases and checks.

A measured process (``child.py``) calls :func:`run_process`; the
orchestrator (``run.py``) calls :func:`build_fixture` first, in its own
process, so neither the fixture's memory nor its imports land in the
measured process.

Every input is a pure function of the seed and a request index, so a
run does a fixed amount of work, the traced and untraced runs of one
seed send identical traffic, and the program under test only ever sees
the generated items.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import time
from array import array
from dataclasses import dataclass, field

from repro.core.bloom import BloomFilter
from repro.service import (
    AdversarialTrafficDriver,
    AttackBudgetConfig,
    MembershipClient,
    MembershipGateway,
    MembershipServer,
    ServiceConfig,
    TrafficReport,
    parse_picker,
)

import tracing

_now = time.perf_counter

SERVE_SMALL, ATTACK = "serve-small", "attack-campaign"


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one service configuration.

    ``units_per_s`` sizes the fixed amount of work: a run of ``seconds``
    sends ``round(seconds * units_per_s)`` one-item requests (serve-small)
    or craft-and-deliver chunks (attack), which takes about ``seconds``
    on a 2-vCPU host.  It is a constant, never a measurement, so every
    run of one ``--seconds`` does the same work.
    """

    name: str
    config: ServiceConfig
    fixture_items: int
    units_per_s: float
    in_flight: int
    connections: int


def _workloads() -> dict[str, Workload]:
    connections = max(1, min(2, os.cpu_count() or 1))
    return {
        SERVE_SMALL: Workload(
            SERVE_SMALL,
            ServiceConfig(
                shards=4,
                shard_m=2**20,
                shard_k=4,
                rotation_policy="fill:0.5",
                coalesce_max_batch=64,
                coalesce_window_us=0,
            ),
            fixture_items=2**16,
            units_per_s=8000,
            in_flight=32,
            connections=connections,
        ),
        ATTACK: Workload(
            ATTACK,
            ServiceConfig(
                shards=4, shard_m=2**16, shard_k=4, rotation_policy="never"
            ),
            # -ln(1/2) * m / k items per shard fill each shard to ~0.5.
            fixture_items=4 * 11357,
            units_per_s=110,
            in_flight=1,
            connections=1,
        ),
    }


WORKLOADS = _workloads()

#: Shard the attack aims at.
ATTACK_TARGET = 0
#: Seed offset of the attack's warm-up craft, far from the chunk indexes.
WARMUP_OFFSET = 1 << 24
#: Odd prime stride walking the fixture; coprime with every fixture size.
_FIXTURE_STRIDE = 1_000_003


class Items:
    """Seeded URL-shaped items, regenerated from an index on demand.

    Families never collide: fixture items end in ``/f<i>``, inserted
    ones in ``/i<i>``, fresh queries in ``/q<i>`` and warm-up queries in
    ``/w<i>``.
    """

    STEMS = 1024

    def __init__(self, seed: int, fixture_items: int) -> None:
        rng = random.Random(seed)
        self.stems = [
            f"https://h{rng.getrandbits(24):06x}.example.net/{rng.getrandbits(48):012x}"
            for _ in range(self.STEMS)
        ]
        self.fixture_items = fixture_items
        self._offset = rng.randrange(fixture_items)
        # Serve-small's request mix per 20 requests: 2 inserts, 9 fixture
        # queries, 9 fresh queries, in a seeded order.
        self.small_pattern = ["insert"] * 2 + ["fixture"] * 9 + ["fresh"] * 9
        rng.shuffle(self.small_pattern)

    def fixture(self, i: int) -> str:
        return f"{self.stems[i % self.STEMS]}/f{i}"

    def inserted(self, i: int) -> str:
        return f"{self.stems[(7 * i + 3) % self.STEMS]}/i{i}"

    def fresh(self, i: int) -> str:
        return f"{self.stems[(13 * i + 5) % self.STEMS]}/q{i}"

    def warm(self, i: int) -> str:
        return f"{self.stems[(17 * i + 11) % self.STEMS]}/w{i}"

    def fixture_pick(self, j: int) -> str:
        """The ``j``-th fixture item of a seeded walk over the fixture."""
        return self.fixture((self._offset + j * _FIXTURE_STRIDE) % self.fixture_items)


# ----------------------------------------------------------------------
# Fixture (built by the orchestrator, outside every measured process)
# ----------------------------------------------------------------------


def build_fixture(name: str, seed: int) -> dict:
    """The workload's pre-filled shards as a gateway snapshot, plus each
    shard's filter snapshot for the reference check."""
    workload = WORKLOADS[name]
    items = Items(seed, workload.fixture_items)
    config = workload.config
    local = ServiceConfig(
        shards=config.shards,
        shard_m=config.shard_m,
        shard_k=config.shard_k,
        rotation_policy="never",
    )

    async def fill() -> MembershipGateway:
        gateway = MembershipGateway.from_config(local)
        step = 4096
        for start in range(0, workload.fixture_items, step):
            stop = min(start + step, workload.fixture_items)
            await gateway.insert_batch([items.fixture(i) for i in range(start, stop)])
        return gateway

    with asyncio.run(fill()) as gateway:
        return {
            "snapshot": gateway.export_snapshot(),
            "shard_blocks": [
                gateway.shard_view(s).snapshot_bytes() for s in range(config.shards)
            ],
        }


# ----------------------------------------------------------------------
# The measured process
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one measured process reports (see :meth:`as_dict`)."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    items: int = 0
    latencies: array = field(default_factory=lambda: array("d"))
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: One byte per timed request or chunk: 1 present, 0 absent, 2 failed.
    answers: bytearray = field(default_factory=bytearray)
    #: Digest of every crafted item, in crafting order.
    crafted: object = field(default_factory=hashlib.sha256)
    inserted: list[str] = field(default_factory=list)
    positives: list[str] = field(default_factory=list)
    trials: dict[str, int] = field(default_factory=dict)
    bytes_digest: str = ""
    layers: dict[str, float] = field(default_factory=dict)

    def record(self, start: float) -> None:
        """One request (or chunk) sent at ``start`` has just answered."""
        self.latencies.append(_now() - start)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def as_dict(self) -> dict:
        samples = sorted(self.latencies)
        digest = hashlib.sha256(self.answers)
        digest.update(self.crafted.digest())
        return {
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "items": self.items,
            "items_per_s": self.items / self.wall_s if self.wall_s else 0.0,
            "samples": len(samples),
            "p50_ms": 1e3 * _quantile(samples, 0.50),
            "p99_ms": 1e3 * _quantile(samples, 0.99),
            "peak_rss_mb": self.peak_rss_mb,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "answers_digest": digest.hexdigest(),
            "bytes_digest": self.bytes_digest,
            "trials": self.trials,
            "layers": self.layers,
        }


def _quantile(ordered, q: float) -> float:
    """Nearest-rank quantile of an ascending sequence (0.0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    """Summed VmHWM of this process and its live worker processes."""
    import multiprocessing

    pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


class _Service:
    """Gateway, server and clients of one measured process."""

    def __init__(self, workload: Workload, fixture: dict, tracer=None) -> None:
        self.workload = workload
        self.fixture = fixture
        self.tracer = tracer
        self.gateway: MembershipGateway | None = None
        self.server: MembershipServer | None = None
        self.clients: list[MembershipClient] = []
        self.installation = None
        self.restore_s = 0.0

    async def start(self, wrap_gateway=None) -> None:
        workload = self.workload
        self.gateway = MembershipGateway.from_config(workload.config)
        start = _now()
        self.gateway.restore_snapshot(self.fixture["snapshot"])
        self.restore_s = _now() - start
        served = self.gateway
        if self.tracer is not None:
            self.installation = tracing.install(
                self.gateway, self.tracer, trace_urlgen=workload.name == ATTACK
            )
            served = tracing.TracedGateway(self.gateway, self.tracer)
        if wrap_gateway is not None:
            served = wrap_gateway(served)
        self.server = MembershipServer(served)
        host, port = await self.server.start()
        depth = max(1, workload.in_flight // workload.connections)
        self.clients = [
            MembershipClient(host, port, pipeline=depth)
            for _ in range(workload.connections)
        ]

    async def close(self) -> None:
        for client in self.clients:
            await client.aclose()
        if self.server is not None:
            await self.server.aclose()
        if self.installation is not None:
            self.installation.remove()
        if self.gateway is not None:
            self.gateway.close()


async def _warm_up(service: _Service, items: Items) -> None:
    """Queries only (no bits change): one bulk request that takes every
    shard onto its batch kernels, then a burst of one-item requests."""
    clients = service.clients
    bulk = [items.fixture_pick(-1 - t) for t in range(256)]
    bulk += [items.warm(t) for t in range(256)]
    await clients[0].query_batch(bulk)
    burst = [items.warm(256 + t) for t in range(8 * service.workload.in_flight)]
    await asyncio.gather(
        *(clients[i % len(clients)].query(item) for i, item in enumerate(burst))
    )


async def _serve_phase(service: _Service, items: Items, total: int, outcome: Outcome):
    """The closed loop: ``in_flight`` workers share request indexes
    ``0..total-1``, each sending its next request only after its
    previous one answered."""
    pattern = items.small_pattern
    indexes = iter(range(total))
    outcome.answers = bytearray(total)

    async def send(client, index: int) -> None:
        kind = pattern[index % len(pattern)]
        if kind == "insert":
            item = items.inserted(index)
        elif kind == "fixture":
            item = items.fixture_pick(index)
        else:
            item = items.fresh(index)
        start = _now()
        try:
            if kind == "insert":
                answer = await client.insert(item)
            else:
                answer = await client.query(item)
        except Exception as exc:  # noqa: BLE001 - counted as a failed request
            outcome.record(start)
            outcome.fail(f"request {index}: {type(exc).__name__}: {exc}")
            outcome.answers[index] = 2
            return
        outcome.record(start)
        outcome.answers[index] = answer
        if kind == "fixture" and not answer:
            outcome.fail(f"request {index}: fixture item {item!r} answered absent")
        elif kind == "fresh" and answer:
            outcome.positives.append(item)

    async def worker(client) -> None:
        for index in indexes:
            await send(client, index)

    clients = service.clients
    start = _now()
    await asyncio.gather(
        *(worker(clients[n % len(clients)]) for n in range(service.workload.in_flight))
    )
    outcome.wall_s = _now() - start
    outcome.items = total
    outcome.attempted += total


def _serve_inserts(items: Items, total: int):
    """Every item the serve phase of ``total`` requests inserted."""
    pattern = items.small_pattern
    for index in range(total):
        if pattern[index % len(pattern)] == "insert":
            yield items.inserted(index)


class _Attack:
    """The white-box adversary of the attack workload.

    One chunk is in flight at a time.  Even chunks craft one polluting
    item against the target shard's live state and insert it; odd
    chunks craft one ghost and query it.  Crafting one polluting item
    per chunk keeps every insert judged against the bits it will land
    on, so each one must set exactly k fresh bits.
    """

    def __init__(self, service: _Service, seed: int) -> None:
        self.service = service
        self.gateway = service.gateway
        self.budget = AttackBudgetConfig().build()
        router = None
        if service.tracer is not None:
            router = tracing.TracedPicker(
                self.gateway.picker.inner, service.tracer, target=ATTACK_TARGET
            )
        self.driver = AdversarialTrafficDriver(
            self.gateway, seed=seed, attacker_router=router, budget=self.budget
        )
        if service.tracer is not None:
            for name in ("craft_pollution", "craft_ghosts"):
                setattr(
                    self.driver,
                    name,
                    tracing.traced_craft(getattr(self.driver, name), service.tracer),
                )
        self.report = TrafficReport()

    async def warm_up(self) -> None:
        ghosts = self.driver.craft_ghosts(
            ATTACK_TARGET, 1, self.report, seed_offset=WARMUP_OFFSET
        )
        await self.service.clients[0].query_batch(ghosts, client="ghost")

    def spent(self) -> dict[str, int]:
        return {label: s.trials for label, s in self.budget.spend_by_label().items()}

    async def phase(self, total: int, outcome: Outcome) -> None:
        client = self.service.clients[0]
        gateway = self.gateway
        k = self.service.workload.config.shard_k
        before = self.spent()
        outcome.answers = bytearray(total)
        start = _now()
        for index in range(total):
            pollution = index % 2 == 0
            weight = gateway.shard_state(ATTACK_TARGET).hamming_weight
            begin = _now()
            try:
                if pollution:
                    chunk = self.driver.craft_pollution(
                        ATTACK_TARGET, 1, self.report, seed_offset=index
                    )
                    answers = await client.insert_batch(chunk, client="attacker")
                else:
                    chunk = self.driver.craft_ghosts(
                        ATTACK_TARGET, 1, self.report, seed_offset=index
                    )
                    answers = await client.query_batch(chunk, client="ghost")
            except Exception as exc:  # noqa: BLE001 - counted as a failed chunk
                outcome.record(begin)
                outcome.fail(f"chunk {index}: {type(exc).__name__}: {exc}")
                outcome.answers[index] = 2
                continue
            outcome.record(begin)
            outcome.items += len(chunk)
            outcome.answers[index] = all(answers)
            outcome.crafted.update("".join(f"{item}\n" for item in chunk).encode())
            if not chunk:
                outcome.fail(f"chunk {index}: crafting returned no item")
            elif pollution:
                outcome.inserted.extend(chunk)
                gained = gateway.shard_state(ATTACK_TARGET).hamming_weight - weight
                if gained != k * len(chunk):
                    outcome.fail(
                        f"chunk {index}: pollution set {gained} bits, "
                        f"expected {k * len(chunk)}"
                    )
            elif not all(answers):
                outcome.fail(f"chunk {index}: ghost answered absent")
        outcome.wall_s = _now() - start
        outcome.attempted += total
        after = self.spent()
        outcome.trials = {
            label: after[label] - before.get(label, 0) for label in sorted(after)
        }


def _verify_shards(service: _Service, inserted, outcome: Outcome) -> None:
    """Each shard's bits must equal a reference filter holding the
    fixture plus every ``inserted`` item, and every fresh item answered
    present must be present in that reference."""
    gateway = service.gateway
    config = service.workload.config
    picker = parse_picker(gateway.picker.spec())
    references = [BloomFilter.from_snapshot(raw) for raw in service.fixture["shard_blocks"]]
    groups: dict[int, list[str]] = {shard: [] for shard in range(config.shards)}
    for item in inserted:
        shard = picker.pick(item, config.shards)
        group = groups[shard]
        group.append(item)
        if len(group) == 4096:
            references[shard].add_batch(group)
            group.clear()
    for shard, group in groups.items():
        references[shard].add_batch(group)
    digest = hashlib.sha256()
    for shard, reference in enumerate(references):
        served = gateway.shard_view(shard).to_bytes()
        digest.update(served)
        outcome.attempted += 1
        if served != reference.to_bytes():
            outcome.fail(f"shard {shard}: bits differ from the reference filter")
    outcome.bytes_digest = digest.hexdigest()
    for item in outcome.positives:
        if item not in references[picker.pick(item, config.shards)]:
            outcome.fail(f"fresh item {item!r} answered present, reference says absent")


def _layer_metrics(service: _Service, outcome: Outcome, before: dict) -> dict:
    """The per-layer metrics of a traced run, by their published names."""
    tracer = service.tracer
    layer = tracer.layer
    after = service.gateway.coalesce_stats()
    flushes = after["flushes"] - before["flushes"]
    coalesced = after["requests"] - before["requests"]
    backend = layer("backend")
    craft = layer("craft")
    trials = sum(outcome.trials.values())
    urlgen = layer("urlgen")
    return {
        "codec.frames": layer("codec.encode").calls,
        "codec.bytes": layer("codec.encode").units,
        "codec.encode_s": layer("codec.encode").busy_s,
        "codec.decode_s": layer("codec.decode").busy_s,
        "gateway.requests": layer("gateway").calls,
        "gateway.request_s": layer("gateway").busy_s,
        "gateway.rejected": layer("gateway").failed,
        "route.items": layer("route").calls,
        "route.busy_s": layer("route").busy_s,
        "coalesce.requests": coalesced,
        "coalesce.flushes": flushes,
        "coalesce.requests_per_flush": coalesced / flushes if flushes else 0.0,
        "coalesce.max_queue_depth": after["max_queue_depth"],
        "coalesce.isolation_splits": after["isolation_splits"]
        - before["isolation_splits"],
        "lifecycle.decisions": layer("lifecycle").calls,
        "lifecycle.decide_s": layer("lifecycle").busy_s,
        "lifecycle.rotations": service.gateway.rotations - before["rotations"],
        "backend.calls": backend.calls,
        "backend.items_per_call": backend.units / backend.calls if backend.calls else 0.0,
        "backend.busy_s": backend.busy_s,
        "backend.failed": backend.failed,
        "hashing.items": layer("hashing").units,
        "hashing.busy_s": layer("hashing").busy_s,
        "core.busy_s": layer("core").self_s,
        "snapshot.restore_s": service.restore_s,
        "snapshot.bytes": len(service.fixture["snapshot"]),
        "craft.items": craft.units,
        "craft.trials": trials,
        "craft.items_per_trial": craft.units / trials if trials else 0.0,
        "craft.self_s": craft.self_s,
        "urlgen.candidates": urlgen.calls,
        "urlgen.busy_s": urlgen.busy_s,
        "urlgen.kept_ratio": urlgen.units / urlgen.calls if urlgen.calls else 0.0,
        "client.requests": len(outcome.latencies),
        "client.failed": outcome.failed,
        "unattributed_s": outcome.wall_s - tracer.attributed_s,
        "trace.wall_s": outcome.wall_s,
    }


def work_units(name: str, seconds: float) -> int:
    """Requests (or chunks) one run of ``seconds`` sends."""
    return max(1, round(seconds * WORKLOADS[name].units_per_s))


async def run_process(
    name: str,
    fixture: dict,
    seed: int,
    seconds: float,
    t0: float,
    measure_phase: bool = True,
    trace: bool = False,
    spans_path: str | None = None,
    wrap_gateway=None,
) -> dict:
    """Set up one workload from a fresh process and, unless
    ``measure_phase`` is False, run, measure and check its timed phase.

    ``t0`` is the process's first clock reading: ``setup_s`` runs from
    it to the first timed request.  ``wrap_gateway`` lets tests put a
    proxy between the server and the gateway.
    """
    workload = WORKLOADS[name]
    items = Items(seed, workload.fixture_items)
    outcome = Outcome()
    tracer = tracing.Tracer() if trace else None
    service = _Service(workload, fixture, tracer)
    try:
        await service.start(wrap_gateway)
        attack = _Attack(service, seed) if name == ATTACK else None
        await _warm_up(service, items)
        if attack is not None:
            await attack.warm_up()
        total = work_units(name, seconds)
        before = dict(
            service.gateway.coalesce_stats(), rotations=service.gateway.rotations
        )
        if tracer is not None:
            tracer.reset()
        outcome.setup_s = _now() - t0
        if not measure_phase:
            return {"setup_s": outcome.setup_s}
        if attack is not None:
            await attack.phase(total, outcome)
        else:
            await _serve_phase(service, items, total, outcome)
        outcome.peak_rss_mb = peak_rss_mb()
        if tracer is not None:
            outcome.layers = _layer_metrics(service, outcome, before)
            if spans_path is not None:
                tracer.write_spans(spans_path)
        if attack is not None:
            inserted = outcome.inserted
        else:
            inserted = _serve_inserts(items, total)
        _verify_shards(service, inserted, outcome)
    finally:
        await service.close()
    return outcome.as_dict()
