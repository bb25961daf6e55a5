"""The micro-batch coalescer: merging, slicing, isolation, parity."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.bloom import BloomFilter
from repro.exceptions import ParameterError
from repro.service.backends import LocalBackend
from repro.service.coalesce import MicroBatchCoalescer
from repro.service.config import ServiceConfig
from repro.service.gateway import MembershipGateway
from repro.service.telemetry import CoalesceTelemetry
from repro.urlgen.faker import UrlFactory

URLS = UrlFactory(seed=0x0C0A).urls(400)


class RecordingRunner:
    """Fake gateway runner: records calls, answers len-parity booleans."""

    def __init__(self) -> None:
        self.calls: list[tuple[int, str, list]] = []

    async def __call__(self, shard_id: int, op: str, items: list) -> list:
        self.calls.append((shard_id, op, list(items)))
        return [len(str(item)) % 2 == 0 for item in items]


# ----------------------------------------------------------------------
# Unit level: the coalescer against a fake runner
# ----------------------------------------------------------------------


def test_concurrent_submits_merge_into_one_backend_call():
    runner = RecordingRunner()

    async def scenario():
        coalescer = MicroBatchCoalescer(runner, window_us=0, max_batch=64)
        futures = [
            coalescer.submit(0, "query", ["a"]),
            coalescer.submit(0, "query", ["bb", "cc"]),
            coalescer.submit(0, "query", ["ddd"]),
        ]
        return await asyncio.gather(*futures)

    slices = asyncio.run(scenario())
    # One merged call carried all three submissions, in order.
    assert len(runner.calls) == 1
    assert runner.calls[0] == (0, "query", ["a", "bb", "cc", "ddd"])
    # Each future got exactly its slice of the merged answers.
    assert [len(s) for s in slices] == [1, 2, 1]
    assert slices[0] == [False]          # "a" has odd length
    assert slices[1] == [True, True]     # "bb", "cc" even
    assert slices[2] == [False]


def test_distinct_shard_and_op_queues_do_not_merge():
    runner = RecordingRunner()

    async def scenario():
        coalescer = MicroBatchCoalescer(runner, window_us=0, max_batch=64)
        await asyncio.gather(
            coalescer.submit(0, "query", ["a"]),
            coalescer.submit(1, "query", ["b"]),
            coalescer.submit(0, "insert", ["c"]),
        )

    asyncio.run(scenario())
    assert sorted(call[:2] for call in runner.calls) == [
        (0, "insert"), (0, "query"), (1, "query"),
    ]


def test_size_flush_fires_before_the_window():
    runner = RecordingRunner()
    stats = CoalesceTelemetry()

    async def scenario():
        # A very long window that would stall the test if it were the
        # trigger; the size threshold must flush instead.
        coalescer = MicroBatchCoalescer(
            runner, window_us=5_000_000, max_batch=4, telemetry=stats
        )
        await asyncio.wait_for(
            asyncio.gather(
                coalescer.submit(0, "query", ["a", "b"]),
                coalescer.submit(0, "query", ["c", "d"]),
            ),
            timeout=1.0,
        )
        coalescer.close()

    asyncio.run(scenario())
    assert stats.flushes == 1
    assert stats.flush_size == 1
    assert stats.flush_window == 0


def test_window_flush_fires_without_reaching_max_batch():
    runner = RecordingRunner()
    stats = CoalesceTelemetry()

    async def scenario():
        coalescer = MicroBatchCoalescer(
            runner, window_us=1_000, max_batch=64, telemetry=stats
        )
        return await coalescer.submit(0, "query", ["only"])

    assert asyncio.run(scenario()) == [True]
    assert stats.flush_window == 1
    assert stats.flush_size == 0


def test_merged_failure_is_isolated_per_request():
    poison = "poison"

    calls: list[list] = []

    async def runner(shard_id: int, op: str, items: list) -> list:
        calls.append(list(items))
        if poison in items:
            raise RuntimeError("bad batch")
        return [True] * len(items)

    stats = CoalesceTelemetry()

    async def scenario():
        coalescer = MicroBatchCoalescer(
            runner, window_us=0, max_batch=64, telemetry=stats
        )
        return await asyncio.gather(
            coalescer.submit(0, "query", ["ok-1"]),
            coalescer.submit(0, "query", [poison]),
            coalescer.submit(0, "query", ["ok-2", "ok-3"]),
            return_exceptions=True,
        )

    first, poisoned, last = asyncio.run(scenario())
    # The merged call failed, then each submission was replayed alone:
    # innocent requests still got answers, only the offender failed.
    assert first == [True]
    assert last == [True, True]
    assert isinstance(poisoned, RuntimeError)
    assert stats.isolation_splits == 1
    assert calls[0] == ["ok-1", poison, "ok-2", "ok-3"]
    assert calls[1:] == [["ok-1"], [poison], ["ok-2", "ok-3"]]


def test_lone_failure_propagates_without_a_split():
    marker = RuntimeError("solo")

    async def runner(shard_id: int, op: str, items: list) -> list:
        raise marker

    stats = CoalesceTelemetry()

    async def scenario():
        coalescer = MicroBatchCoalescer(
            runner, window_us=0, max_batch=64, telemetry=stats
        )
        with pytest.raises(RuntimeError) as excinfo:
            await coalescer.submit(0, "query", ["x"])
        return excinfo.value

    # The original exception object arrives untouched, and no isolation
    # replay happened for a batch of one.
    assert asyncio.run(scenario()) is marker
    assert stats.isolation_splits == 0


def test_knob_validation():
    runner = RecordingRunner()
    with pytest.raises(ParameterError):
        MicroBatchCoalescer(runner, max_batch=0)
    with pytest.raises(ParameterError):
        MicroBatchCoalescer(runner, window_us=-1)


def test_close_cancels_pending_timers():
    runner = RecordingRunner()

    async def scenario():
        coalescer = MicroBatchCoalescer(runner, window_us=5_000_000, max_batch=64)
        future = coalescer.submit(0, "query", ["parked"])
        assert coalescer.queue_depth == 1
        coalescer.close()
        assert coalescer.queue_depth == 0
        future.cancel()

    asyncio.run(scenario())
    assert runner.calls == []


# ----------------------------------------------------------------------
# Gateway level: coalesced serving vs the uncoalesced replay
# ----------------------------------------------------------------------


def _requests(n_clients: int = 8, rounds: int = 6, size: int = 3):
    """Deterministic per-client request streams over the shared URLS."""
    streams = []
    for c in range(n_clients):
        stream = []
        for r in range(rounds):
            base = (c * rounds + r) * size
            stream.append([URLS[(base + i) % len(URLS)] for i in range(size)])
        streams.append(stream)
    return streams


async def _replay(gateway: MembershipGateway, streams, concurrent: bool):
    """Insert every even round, query every round; returns all answers."""

    async def one_client(idx: int, stream) -> list:
        answers = []
        for r, batch in enumerate(stream):
            if r % 2 == 0:
                await gateway.insert_batch(batch, client=f"c{idx}")
            answers.append(await gateway.query_batch(batch, client=f"c{idx}"))
        return answers

    if concurrent:
        return await asyncio.gather(
            *(one_client(i, s) for i, s in enumerate(streams))
        )
    return [await one_client(i, s) for i, s in enumerate(streams)]


def make_gateway(**kwargs) -> MembershipGateway:
    kwargs.setdefault("shards", 4)
    return MembershipGateway(lambda: BloomFilter(2048, 4), **kwargs)


def test_coalesced_answers_and_filter_bytes_match_uncoalesced():
    streams = _requests()

    plain = make_gateway()
    baseline = asyncio.run(_replay(plain, streams, concurrent=False))

    merged = make_gateway()
    merged.configure_coalescing(window_us=0, max_batch=32)
    coalesced = asyncio.run(_replay(merged, streams, concurrent=True))

    # Same answers for every request of every client, and the shard
    # filters end up bit-identical -- merging is invisible.
    assert coalesced == baseline
    assert merged.coalesce_telemetry.flushes > 0
    assert merged.coalesce_telemetry.requests > merged.coalesce_telemetry.flushes
    for shard_id in range(plain.shards):
        assert (
            merged.shard_view(shard_id).to_bytes()
            == plain.shard_view(shard_id).to_bytes()
        )


class PoisonBackend(LocalBackend):
    """Local backend that rejects any batch containing the poison item."""

    poison = "http://poison.example/"

    async def query_batch(self, shard_id, items):
        if self.poison in items:
            raise RuntimeError("poisoned batch")
        return await super().query_batch(shard_id, items)


def test_gateway_merged_batch_isolates_the_poisoned_request():
    backend = PoisonBackend(lambda: BloomFilter(2048, 4), 1)
    gateway = MembershipGateway(backend=backend)
    gateway.configure_coalescing(window_us=0, max_batch=64)

    async def scenario():
        await gateway.insert_batch(URLS[:10], client="seed")
        return await asyncio.gather(
            gateway.query_batch(URLS[:4], client="good-1"),
            gateway.query_batch([PoisonBackend.poison], client="bad"),
            gateway.query_batch(URLS[4:8], client="good-2"),
            return_exceptions=True,
        )

    good1, bad, good2 = asyncio.run(scenario())
    assert good1 == [True] * 4
    assert good2 == [True] * 4
    assert isinstance(bad, RuntimeError)
    assert gateway.coalesce_telemetry.isolation_splits == 1


def test_chatty_client_does_not_starve_the_quiet_ones():
    gateway = make_gateway()
    gateway.configure_coalescing(window_us=0, max_batch=16)

    async def chatty() -> int:
        done = 0
        for r in range(40):
            await gateway.query_batch(
                [URLS[(r * 8 + i) % len(URLS)] for i in range(8)],
                client="chatty",
            )
            done += 1
        return done

    async def quiet(idx: int) -> int:
        done = 0
        for r in range(10):
            await gateway.query_batch(
                [URLS[(idx * 10 + r) % len(URLS)]], client=f"quiet-{idx}"
            )
            done += 1
        return done

    async def scenario():
        return await asyncio.wait_for(
            asyncio.gather(chatty(), *(quiet(i) for i in range(8))),
            timeout=10.0,
        )

    counts = asyncio.run(scenario())
    # Everyone finishes their full stream: merged flushes stay FIFO, so
    # a high-volume client cannot push the singles out indefinitely.
    assert counts == [40] + [10] * 8


def test_rotation_decisions_survive_merging():
    def build(coalesce: bool) -> MembershipGateway:
        gateway = MembershipGateway.from_config(
            ServiceConfig(
                shards=1, shard_m=1024, shard_k=4, rotation_policy="fill:0.2"
            )
        )
        if coalesce:
            gateway.configure_coalescing(window_us=0, max_batch=64)
        return gateway

    batches = [URLS[i : i + 4] for i in range(0, 100, 4)]

    async def sequential(gateway):
        for batch in batches:
            await gateway.insert_batch(batch, client="seq")

    async def concurrent(gateway):
        # Five waves of five concurrent sub-batches so merging happens.
        for wave in range(5):
            await asyncio.gather(
                *(
                    gateway.insert_batch(batch, client=f"w{i}")
                    for i, batch in enumerate(batches[wave * 5 : wave * 5 + 5])
                )
            )

    plain = build(coalesce=False)
    asyncio.run(sequential(plain))
    merged = build(coalesce=True)
    asyncio.run(concurrent(merged))

    assert merged.coalesce_telemetry.flushes < len(batches)
    assert plain.rotations >= 1
    # The fill threshold fires exactly as often either way: merging
    # changes when the check runs, not what it concludes.
    assert merged.rotations == plain.rotations


# ----------------------------------------------------------------------
# Config and gateway knobs
# ----------------------------------------------------------------------


def test_service_config_coalesce_knob_validation():
    config = ServiceConfig(coalesce_window_us=200, coalesce_max_batch=32)
    assert config.coalesce_window_us == 200
    with pytest.raises(ParameterError):
        ServiceConfig(coalesce_window_us=-1)
    with pytest.raises(ParameterError):
        ServiceConfig(coalesce_max_batch=-1)
    with pytest.raises(ParameterError):
        # A window without a batch ceiling would never flush on size and
        # signals a half-configured deployment.
        ServiceConfig(coalesce_window_us=100, coalesce_max_batch=0)


def test_gateway_from_config_wires_coalescing():
    gateway = MembershipGateway.from_config(
        ServiceConfig(shards=2, coalesce_window_us=100, coalesce_max_batch=8)
    )
    assert gateway.coalescing
    stats = gateway.coalesce_stats()
    assert stats["enabled"] is True
    assert stats["queue_depth"] == 0

    off = MembershipGateway.from_config(ServiceConfig(shards=2))
    assert not off.coalescing
    assert off.coalesce_stats()["enabled"] is False


def test_configure_coalescing_toggles_and_keeps_counters():
    gateway = make_gateway()
    gateway.configure_coalescing(window_us=0, max_batch=8)

    async def burst():
        await asyncio.gather(
            *(gateway.query_batch([url]) for url in URLS[:6])
        )

    asyncio.run(burst())
    before = gateway.coalesce_telemetry.requests
    assert before == 6

    gateway.configure_coalescing(0, 0)
    assert not gateway.coalescing
    # Counters survive the toggle so before/after deltas stay meaningful.
    assert gateway.coalesce_telemetry.requests == before
    with pytest.raises(ParameterError):
        gateway.configure_coalescing(window_us=100, max_batch=0)
