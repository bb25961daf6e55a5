"""Serving grid: end-to-end requests/sec with and without coalescing.

``bench_hotpath`` measures the filter core in isolation; this grid
measures what clients actually see -- many concurrent connections
sending small requests through the full serving stack -- across

* transports: ``inproc`` (gateway called directly), ``inproc-procpool``
  (gateway called directly over one worker process per shard),
  ``tcp-local`` (TCP server over an in-process backend),
  ``tcp-procpool`` (TCP over the worker processes), and
* modes: coalescing **off** (one backend call per request) vs **on**
  (the gateway's micro-batch coalescer merging concurrent requests into
  kernel-sized batches).  Both modes use the same client: one pipelined
  connection per cell, so an on/off ratio measures only the coalescer.

The interesting cells are the small request sizes: at ``request_size=1``
every uncoalesced request pays a full gateway round (and, on the
procpool transports, a pipe hop) for one item, which is exactly the
per-request overhead the coalescer amortises across clients.  The
``inproc-procpool`` cell isolates that amortisation from wire-protocol
CPU: with no codec work sharing the event loop, merged pipe calls are
the whole story and the single-item speedup is largest there.  The
``inproc`` (local backend) cell is the deliberate counter-example --
when the backend call is nearly free, coalescing only adds scheduling
overhead, so its ratio hovers at or below 1x.  The TCP cells are
bounded by codec CPU: this harness runs client, server and gateway on
one event loop, so once that loop saturates on wire work, merging
backend calls cannot add throughput (it still cuts pipe hops on
``tcp-procpool``).

The headline claim (:func:`headline_error`): a full run must show >=3x
requests/sec for single-item requests on at least one transport.  Run
the grid with ``python -m repro.perf serving``; :mod:`repro.perf.harness`
writes and checks ``BENCH_serving.json``.
"""

from __future__ import annotations

import asyncio
import time

from repro.perf.harness import document
from repro.service.client import MembershipClient
from repro.service.config import ServiceConfig
from repro.service.gateway import MembershipGateway
from repro.service.server import MembershipServer

__all__ = ["SCHEMA", "ROW_KEYS", "RATIO", "run_bench", "headline_error", "cell_label"]

#: Schema tag written into (and demanded of) every bench file.
SCHEMA = "repro.bench_serving/1"

ROW_KEYS = frozenset(
    {"transport", "coalesce", "request_size", "clients",
     "requests_per_sec", "seconds"}
)

#: Speedup cell: coalescing on over off requests/sec per (transport,
#: request size).
RATIO = (("transport", "request_size"), "coalesce", False, True, "requests_per_sec")

#: Concurrent client coroutines per cell (the acceptance scenario is
#: "many clients, small requests"; more clients mean deeper coalesce
#: queues, and 96 keeps every transport saturated).
CLIENTS = 96
SMOKE_CLIENTS = 8

#: Coalescer window for the "on" cells.  Window 0 (next-tick flush, no
#: added deadline latency) merges best at this client count: clients
#: resume together after each flush, so their next submissions already
#: cluster in one event-loop turn, and a deadline window only delays
#: the flush without deepening the merge once the loop is saturated.
COALESCE_WINDOW_US = 0
COALESCE_MAX_BATCH = 64

#: Server-side concurrent dispatches / client-side in-flight ceiling of
#: the tcp cells (both modes).
PIPELINE_DEPTH = 64

DEFAULT_TRANSPORTS = ("inproc", "inproc-procpool", "tcp-local", "tcp-procpool")
DEFAULT_REQUEST_SIZES = (1, 8, 64)
SMOKE_TRANSPORTS = ("inproc", "tcp-local")
SMOKE_REQUEST_SIZES = (1,)

#: Requests each client sends, per request size (smaller requests need
#: more rounds for a stable clock; bigger ones carry more items each).
ROUNDS_BY_SIZE = {1: 32, 8: 12, 64: 6}


def _service_config(transport: str) -> ServiceConfig:
    """One geometry for every cell; rotation off so no cell pays a
    mid-run filter swap the others did not."""
    return ServiceConfig(
        shards=4,
        shard_m=1 << 16,
        shard_k=4,
        rotation_policy="never",
        backend="process" if transport.endswith("procpool") else "local",
    )


def _items(client_idx: int, round_idx: int, size: int) -> list[bytes]:
    return [
        b"serve:%d:%d:%d" % (client_idx, round_idx, i) for i in range(size)
    ]


async def _populate(gateway: MembershipGateway, clients: int, rounds: int, size: int) -> None:
    """Pre-insert every even round's items so queries mix hits and
    misses instead of short-circuiting all-negative."""
    pending: list[bytes] = []
    for client_idx in range(clients):
        for round_idx in range(0, rounds, 2):
            pending.extend(_items(client_idx, round_idx, size))
            if len(pending) >= 1024:
                await gateway.insert_batch(pending, client="populate")
                pending = []
    if pending:
        await gateway.insert_batch(pending, client="populate")


async def _drive(transport_obj, clients: int, rounds: int, size: int) -> float:
    """Run the concurrent client swarm; returns elapsed seconds."""

    async def one_client(client_idx: int) -> None:
        label = f"bench-{client_idx}"
        for round_idx in range(rounds):
            await transport_obj.query_batch(
                _items(client_idx, round_idx, size), client=label
            )

    start = time.perf_counter()
    await asyncio.gather(*(one_client(i) for i in range(clients)))
    return time.perf_counter() - start


async def _run_once(
    transport: str, coalesce: bool, size: int, clients: int, rounds: int
) -> tuple[float, dict]:
    """One timed pass of a grid cell; returns (seconds, coalesce stats)."""
    gateway = MembershipGateway.from_config(_service_config(transport))
    try:
        if coalesce:
            gateway.configure_coalescing(
                window_us=COALESCE_WINDOW_US, max_batch=COALESCE_MAX_BATCH
            )
        await _populate(gateway, clients, rounds, size)
        if transport.startswith("inproc"):
            elapsed = await _drive(gateway, clients, rounds, size)
        else:
            async with MembershipServer(
                gateway, pipeline_depth=PIPELINE_DEPTH
            ) as server:
                client = MembershipClient(
                    *server.address, pipeline=PIPELINE_DEPTH
                )
                try:
                    elapsed = await _drive(client, clients, rounds, size)
                finally:
                    await client.aclose()
        return elapsed, gateway.coalesce_stats()
    finally:
        gateway.close()


def _bench_cell(
    transport: str, coalesce: bool, size: int, clients: int, repeats: int
) -> dict:
    """Best-of-``repeats`` requests/sec for one grid cell."""
    rounds = ROUNDS_BY_SIZE.get(size, max(2, 64 // size))
    best = float("inf")
    stats: dict = {}
    for _ in range(repeats):
        seconds, cell_stats = asyncio.run(
            _run_once(transport, coalesce, size, clients, rounds)
        )
        if seconds < best:
            best = seconds
            stats = cell_stats
    requests = clients * rounds
    return {
        "transport": transport,
        "coalesce": coalesce,
        "request_size": size,
        "clients": clients,
        "rounds": rounds,
        "seconds": round(best, 6),
        "requests_per_sec": round(requests / best, 1),
        "items_per_sec": round(requests * size / best, 1),
        "coalesce_ratio": stats.get("coalesce_ratio", 0.0),
    }


def run_bench(
    transports=None,
    request_sizes=None,
    repeats: int = 3,
    clients: int | None = None,
    smoke: bool = False,
) -> dict:
    """Run the grid (the smoke grid if ``smoke``) and return its document."""
    transports = transports or (SMOKE_TRANSPORTS if smoke else DEFAULT_TRANSPORTS)
    request_sizes = request_sizes or (
        SMOKE_REQUEST_SIZES if smoke else DEFAULT_REQUEST_SIZES
    )
    clients = clients or (SMOKE_CLIENTS if smoke else CLIENTS)
    results = []
    for transport in transports:
        for size in request_sizes:
            for coalesce in (False, True):
                results.append(
                    _bench_cell(transport, coalesce, size, clients, repeats)
                )
    return document(
        "serving",
        smoke=smoke,
        config={
            "clients": clients,
            "transports": list(transports),
            "request_sizes": list(request_sizes),
            "rounds_by_size": {str(k): v for k, v in ROUNDS_BY_SIZE.items()},
            "coalesce_window_us": COALESCE_WINDOW_US,
            "coalesce_max_batch": COALESCE_MAX_BATCH,
            "pipeline_depth": PIPELINE_DEPTH,
            "repeats": repeats,
        },
        results=results,
    )


def headline_error(doc: dict) -> str | None:
    """The claim: >=3x single-item requests/sec on at least one transport."""
    single = [
        cell["speedup"] for cell in doc["speedups"] if cell["request_size"] == 1
    ]
    if not single:
        return "has no single-item speedup cells"
    if max(single) < 3.0:
        return (
            f"best single-item coalescing speedup is x{max(single)}, below the "
            "claimed x3.0 -- regenerate or investigate the serving-path regression"
        )
    return None


def cell_label(cell: dict) -> str:
    return f"{cell['transport']:>12} request_size={cell['request_size']:>3}"
