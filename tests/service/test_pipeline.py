"""Pipelined serving: correlation ids end to end, hostile peers, stats."""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.core.bloom import BloomFilter
from repro.exceptions import ParameterError, ProtocolError
from repro.service.backends import LocalBackend
from repro.service.client import MembershipClient
from repro.service.codec import (
    FRAME_V2,
    OP_QUERY,
    OP_QUERY_BATCH,
    ST_PROTOCOL,
    decode_request_envelope,
    decode_response_envelope,
    encode_answers_frame,
    encode_frame,
    encode_request,
    encode_request_frame,
    read_frame,
)
from repro.service.gateway import MembershipGateway
from repro.service.server import MembershipServer
from repro.urlgen.faker import UrlFactory

URLS = UrlFactory(seed=0x91BE).urls(200)

SLOW = "http://slow.example/"


class SlowBackend(LocalBackend):
    """Local backend that stalls any batch containing the SLOW item."""

    async def query_batch(self, shard_id, items):
        if SLOW in items:
            await asyncio.sleep(0.15)
        return await super().query_batch(shard_id, items)


def make_gateway(backend_cls=LocalBackend, shards: int = 4) -> MembershipGateway:
    return MembershipGateway(
        backend=backend_cls(lambda: BloomFilter(2048, 4), shards)
    )


def serve(coro_factory, *, pipeline_depth=32, pipeline=8, backend_cls=LocalBackend):
    """Run ``coro_factory(gateway, server, client)`` against a live stack."""

    async def scenario():
        gateway = make_gateway(backend_cls)
        async with MembershipServer(gateway, pipeline_depth=pipeline_depth) as server:
            client = MembershipClient(*server.address, pipeline=pipeline)
            try:
                return await coro_factory(gateway, server, client)
            finally:
                await client.aclose()

    return asyncio.run(scenario())


def raw_serve(coro_factory, *, pipeline_depth=32, backend_cls=LocalBackend):
    """Run ``coro_factory(gateway, server, reader, writer)`` on a raw socket."""

    async def scenario():
        gateway = make_gateway(backend_cls)
        async with MembershipServer(gateway, pipeline_depth=pipeline_depth) as server:
            reader, writer = await asyncio.open_connection(*server.address)
            try:
                return await coro_factory(gateway, server, reader, writer)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    return asyncio.run(scenario())


# ----------------------------------------------------------------------
# Happy path: pipelined answers match the gateway's
# ----------------------------------------------------------------------


def test_pipelined_round_trip_matches_gateway():
    async def scenario(gateway, server, client):
        await client.insert_batch(URLS[:50], client="seed")
        answers = await asyncio.gather(
            *(client.query_batch(URLS[i : i + 5]) for i in range(0, 80, 5))
        )
        direct = await gateway.query_batch(URLS[:80])
        return [a for chunk in answers for a in chunk], direct

    wire, direct = serve(scenario)
    assert wire == direct
    assert wire[:50] == [True] * 50


def test_pipelined_client_against_serial_server():
    """pipeline_depth=1 serves one request at a time and still echoes
    correlation ids."""

    async def scenario(gateway, server, client):
        await client.insert_batch(URLS[:20], client="seed")
        return await asyncio.gather(
            *(client.query(url) for url in URLS[:30])
        )

    answers = serve(scenario, pipeline_depth=1, pipeline=4)
    assert answers[:20] == [True] * 20
    # Depth 1 is the serial case on either end; 0 would be a second
    # spelling of it.
    with pytest.raises(ParameterError):
        MembershipServer(make_gateway(), pipeline_depth=0)
    for depth in (0, -1):
        with pytest.raises(ParameterError, match="pipeline must be at least 1"):
            MembershipClient("127.0.0.1", 1, pipeline=depth)


def test_out_of_order_replies_reach_the_right_callers():
    order: list[str] = []

    async def scenario(gateway, server, client):
        # Keep the fast request off the stalled item's shard, so the
        # only thing that could delay it is the connection itself.
        blocked = gateway.shard_of(SLOW)
        fast_items = [u for u in URLS if gateway.shard_of(u) != blocked][:10]
        await client.insert_batch(fast_items, client="seed")

        async def slow():
            result = await client.query(SLOW)
            order.append("slow")
            return result

        async def fast():
            result = await client.query_batch(fast_items)
            order.append("fast")
            return result

        slow_task = asyncio.ensure_future(slow())
        await asyncio.sleep(0.01)  # the slow query is on the wire first
        fast_answers = await fast()
        slow_answer = await slow_task
        return fast_answers, slow_answer

    fast_answers, slow_answer = serve(scenario, backend_cls=SlowBackend)
    # The later request overtook the stalled one on the same socket, and
    # each reply still landed with its own caller.
    assert order == ["fast", "slow"]
    assert fast_answers == [True] * 10
    assert slow_answer is False


# ----------------------------------------------------------------------
# Hostile peers
# ----------------------------------------------------------------------


def test_duplicate_inflight_correlation_id_forfeits_the_connection():
    async def scenario(gateway, server, reader, writer):
        # Two requests under the same id while the first is stalled.
        writer.write(encode_request_frame(OP_QUERY, [SLOW], request_id=5))
        writer.write(encode_request_frame(OP_QUERY, [URLS[0]], request_id=5))
        await writer.drain()
        raw = await asyncio.wait_for(read_frame(reader), timeout=5.0)
        rid, response = decode_response_envelope(raw)
        eof = await asyncio.wait_for(read_frame(reader), timeout=5.0)
        return server.protocol_errors, rid, response, eof

    errors, rid, response, eof = raw_serve(scenario, backend_cls=SlowBackend)
    assert errors == 1
    assert rid == 5
    assert response.status == ST_PROTOCOL
    assert "already in flight" in (response.message or "")
    assert eof is None  # the server hung up after the violation


def test_envelope_less_request_closes_without_reply():
    """A request body without the correlation envelope has no id to tag
    a reply with: the server counts it and hangs up silently."""

    async def scenario(gateway, server, reader, writer):
        await gateway.insert_batch(URLS[:4], client="seed")
        writer.write(encode_frame(encode_request(OP_QUERY_BATCH, URLS[:4])))
        await writer.drain()
        eof = await asyncio.wait_for(read_frame(reader), timeout=5.0)
        return server.protocol_errors, eof

    errors, eof = raw_serve(scenario)
    assert errors == 1
    assert eof is None  # no reply frame, just the close


def test_truncated_v2_header_is_a_protocol_error():
    async def scenario(gateway, server, reader, writer):
        torn = bytes([FRAME_V2]) + b"\x00\x01"  # marker + half an id
        writer.write(struct.pack(">I", len(torn)) + torn)
        await writer.drain()
        eof = await asyncio.wait_for(read_frame(reader), timeout=5.0)
        return server.protocol_errors, eof

    errors, eof = raw_serve(scenario)
    assert errors == 1
    assert eof is None


def test_client_fails_fast_on_unknown_correlation_id_then_recovers():
    connections = 0

    async def fake_server(reader, writer):
        nonlocal connections
        connections += 1
        misbehave = connections == 1
        try:
            while True:
                raw = await read_frame(reader)
                if raw is None:
                    return
                rid, request = decode_request_envelope(raw)
                reply_id = 999 if misbehave else rid
                writer.write(
                    encode_answers_frame(
                        [False] * len(request.items), request_id=reply_id
                    )
                )
                await writer.drain()
        except (ConnectionError, ProtocolError):
            pass
        finally:
            writer.close()

    async def scenario():
        server = await asyncio.start_server(fake_server, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        client = MembershipClient(host, port, pipeline=4)
        try:
            with pytest.raises(ProtocolError, match="unknown correlation id"):
                await client.query(URLS[0])
            # The poisoned channel is dead; the next request transparently
            # opens a fresh one and succeeds.
            return await client.query(URLS[0])
        finally:
            await client.aclose()
            server.close()
            await server.wait_closed()

    assert asyncio.run(scenario()) is False
    assert connections == 2


# ----------------------------------------------------------------------
# Stats: race-free snapshots and server counters on the wire
# ----------------------------------------------------------------------


def test_snapshot_async_waits_for_the_shard_lock():
    gateway = make_gateway()

    async def scenario():
        async with gateway._locks[0]:
            probe = asyncio.ensure_future(gateway.snapshot_async())
            await asyncio.sleep(0.05)
            # Shard 0 is mid-"batch": the snapshot must not have torn in.
            assert not probe.done()
        return await probe

    snapshots = asyncio.run(scenario())
    assert len(snapshots) == gateway.shards


def test_server_stats_surface_over_tcp():
    async def scenario(gateway, server, client):
        gateway.configure_coalescing(window_us=0, max_batch=16)
        await client.insert_batch(URLS[:10])
        shard_stats = await client.stats()
        server_stats = await client.server_stats()
        return shard_stats, server_stats

    shard_stats, server_stats = serve(scenario)
    assert all("shard_id" in entry for entry in shard_stats)
    assert server_stats["connections"] == 1
    assert server_stats["protocol_errors"] == 0
    assert server_stats["pipeline_depth"] == 32
    assert server_stats["coalesce"]["enabled"] is True


def test_stats_stay_consistent_under_concurrent_traffic():
    async def scenario(gateway, server, client):
        stop = asyncio.Event()

        async def hammer(idx: int):
            r = 0
            while not stop.is_set():
                await client.insert_batch(
                    [URLS[(idx * 31 + r + i) % len(URLS)] for i in range(4)]
                )
                r += 1

        hammers = [asyncio.ensure_future(hammer(i)) for i in range(4)]
        probes = [await client.stats() for _ in range(10)]
        stop.set()
        await asyncio.gather(*hammers)
        final = await client.stats()
        return probes, final

    probes, final = serve(scenario)
    for snapshot in probes:
        assert len(snapshot) == 4
        for entry in snapshot:
            assert entry["inserts"] >= 0
    # Totals only ever grow; the final probe sees everything settled.
    assert sum(e["inserts"] for e in final) >= sum(
        e["inserts"] for e in probes[-1]
    )
