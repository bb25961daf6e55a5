"""The TCP wire layer end to end: server + client against a live gateway."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.bloom import BloomFilter
from repro.exceptions import ParameterError, ProtocolError
from repro.service.admission import ClientRateLimiter, RateLimited
from repro.service.client import MembershipClient
from repro.service.codec import encode_frame
from repro.service.gateway import MembershipGateway
from repro.service.server import MembershipServer
from repro.urlgen.faker import UrlFactory

URLS = UrlFactory(seed=0x7C9).urls(200)


def make_gateway(**kwargs) -> MembershipGateway:
    kwargs.setdefault("shards", 4)
    return MembershipGateway(lambda: BloomFilter(1024, 4), **kwargs)


def serve(coro_factory, **gateway_kwargs):
    """Run ``coro_factory(gateway, client)`` against a live server."""

    async def scenario():
        gateway = make_gateway(**gateway_kwargs)
        async with MembershipServer(gateway) as server:
            client = MembershipClient(*server.address)
            try:
                return await coro_factory(gateway, client)
            finally:
                await client.aclose()

    return asyncio.run(scenario())


def test_insert_query_round_trip_over_tcp():
    async def scenario(gateway, client):
        inserted = await client.insert_batch(URLS[:60])
        hits = await client.query_batch(URLS[:80])
        single = await client.query(URLS[0])
        fresh = await client.insert("http://fresh.example")
        return inserted, hits, single, fresh, gateway

    inserted, hits, single, fresh, gateway = serve(scenario)
    assert inserted == [False] * 60
    assert hits[:60] == [True] * 60
    assert single is True
    assert fresh is False
    # The wire answers match the gateway's own view exactly.
    direct = asyncio.run(gateway.query_batch(URLS[:80]))
    assert hits == direct


def test_wire_answers_equal_inproc_answers():
    """The same seeded traffic gives identical answers on either path."""

    async def over_wire(gateway, client):
        await client.insert_batch(URLS[:100])
        return await client.query_batch(URLS[50:150])

    wire_answers = serve(over_wire)

    async def in_process():
        gateway = make_gateway()
        await gateway.insert_batch(URLS[:100])
        return await gateway.query_batch(URLS[50:150])

    assert wire_answers == asyncio.run(in_process())


def test_stats_over_tcp():
    async def scenario(gateway, client):
        await client.insert_batch(URLS[:64], client="alice")
        return await client.stats()

    stats = serve(scenario)
    assert len(stats) == 4
    assert sum(s["inserts"] for s in stats) == 64
    assert all(s["query_p99_us"] >= 0 for s in stats)


def test_rate_limited_surfaces_as_rate_limited():
    async def scenario(gateway, client):
        await client.insert_batch(URLS[:10], client="mallory")  # drains burst
        with pytest.raises(RateLimited):
            await client.query_batch(URLS[:5], client="mallory")
        # Another client id still gets through on the same connection.
        return await client.query_batch(URLS[:5], client="alice")

    answers = serve(
        scenario, limiter=ClientRateLimiter(rate=1.0, burst=10, clock=lambda: 0.0)
    )
    assert len(answers) == 5


def test_over_burst_batch_surfaces_as_parameter_error():
    async def scenario(gateway, client):
        with pytest.raises(ParameterError, match="burst"):
            await client.insert_batch(URLS[:17], client="bulk")
        return await client.insert_batch(URLS[:16], client="bulk")

    answers = serve(
        scenario, limiter=ClientRateLimiter(rate=100.0, burst=16, clock=lambda: 0.0)
    )
    assert len(answers) == 16


def test_garbage_frame_drops_connection_but_not_server():
    async def scenario(gateway, client):
        host, port = client.host, client.port
        # A raw socket speaking garbage is dropped without a reply (no
        # correlation id to tag one with) ...
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"\xff\xff\xff\xff garbage beyond any length prefix")
        await writer.drain()
        eof = await reader.read(4096)
        writer.close()
        await writer.wait_closed()
        # ... while the well-behaved client keeps working.
        answers = await client.query_batch(URLS[:4])
        return eof, answers

    eof, answers = serve(scenario)
    assert eof == b""
    assert answers == [False] * 4


def test_truncated_frame_then_new_connection_survives():
    async def scenario(gateway, client):
        host, port = client.host, client.port
        reader, writer = await asyncio.open_connection(host, port)
        # Announce 100 bytes, send 3, hang up.
        writer.write((100).to_bytes(4, "big") + b"abc")
        await writer.drain()
        writer.close()
        await writer.wait_closed()
        return await client.insert_batch(URLS[:8])

    assert serve(scenario) == [False] * 8


def test_protocol_error_counter_increments():
    async def full():
        gateway = make_gateway()
        async with MembershipServer(gateway) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"\x00\x00\x00\x00")  # zero-length frame
            await writer.drain()
            await reader.read(4096)
            writer.close()
            await writer.wait_closed()
            return server.protocol_errors, server.connections

    errors, connections = asyncio.run(full())
    assert errors == 1
    assert connections == 1


def test_concurrent_clients_over_one_pool():
    async def scenario(gateway, client):
        async def worker(offset: int):
            chunk = URLS[offset : offset + 20]
            await client.insert_batch(chunk, client=f"w{offset}")
            return await client.query_batch(chunk, client=f"w{offset}")

        results = await asyncio.gather(*(worker(i * 20) for i in range(5)))
        return results

    results = serve(scenario)
    assert all(answers == [True] * 20 for answers in results)


def test_client_refuses_use_after_close():
    async def scenario():
        gateway = make_gateway()
        async with MembershipServer(gateway) as server:
            client = MembershipClient(*server.address)
            await client.query_batch(URLS[:2])
            await client.aclose()
            with pytest.raises(ProtocolError, match="closed"):
                await client.query_batch(URLS[:2])

    asyncio.run(scenario())


def test_server_lifecycle_guards():
    async def scenario():
        gateway = make_gateway()
        server = MembershipServer(gateway)
        with pytest.raises(ProtocolError, match="not started"):
            server.address
        await server.start()
        with pytest.raises(ProtocolError, match="already started"):
            await server.start()
        await server.aclose()
        await server.aclose()  # idempotent

    asyncio.run(scenario())
