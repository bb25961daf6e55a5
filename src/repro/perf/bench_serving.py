"""Serving benchmark: end-to-end requests/sec with and without coalescing.

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

The output file carries a schema tag (:data:`BENCH_SCHEMA`); CI runs a
smoke pass and :func:`check_bench_file` against the committed
``BENCH_serving.json``, which also enforces the headline claim -- a
full run must show >=3x requests/sec for single-item requests on at
least one transport.

Run with ``python -m repro.perf serving`` (or
``python -m repro.perf.bench_serving``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import time

from repro import accel
from repro.service.client import MembershipClient
from repro.service.config import ServiceConfig
from repro.service.gateway import MembershipGateway
from repro.service.server import MembershipServer

__all__ = ["BENCH_SCHEMA", "run_bench", "check_bench_file", "main"]

#: Schema tag written into (and demanded of) every bench file.
BENCH_SCHEMA = "repro.bench_serving/1"

#: Concurrent client coroutines per cell (the acceptance scenario is
#: "many clients, small requests"; more clients mean deeper coalesce
#: queues, and 96 keeps every transport saturated).
CLIENTS = 96

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

_REQUIRED_RESULT_KEYS = frozenset(
    {"transport", "coalesce", "request_size", "clients",
     "requests_per_sec", "seconds"}
)


def _service_config(transport: str) -> ServiceConfig:
    """One geometry for every cell; rotation off so no cell pays a
    mid-run filter swap the others did not."""
    return ServiceConfig(
        shards=4,
        shard_m=1 << 16,
        shard_k=4,
        rotation_policy=None,
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
    transports=DEFAULT_TRANSPORTS,
    request_sizes=DEFAULT_REQUEST_SIZES,
    repeats: int = 3,
    clients: int = CLIENTS,
    smoke: bool = False,
) -> dict:
    """Run the serving grid and return the bench document."""
    results = []
    for transport in transports:
        for size in request_sizes:
            for coalesce in (False, True):
                results.append(
                    _bench_cell(transport, coalesce, size, clients, repeats)
                )
    by_cell = {
        (r["transport"], r["coalesce"], r["request_size"]): r["requests_per_sec"]
        for r in results
    }
    speedups = []
    for transport in transports:
        for size in request_sizes:
            off = by_cell[(transport, False, size)]
            on = by_cell[(transport, True, size)]
            speedups.append(
                {
                    "transport": transport,
                    "request_size": size,
                    "speedup": round(on / off, 2),
                }
            )
    return {
        "schema": BENCH_SCHEMA,
        "generated_by": "python -m repro.perf serving",
        "smoke": smoke,
        "config": {
            "clients": clients,
            "transports": list(transports),
            "request_sizes": list(request_sizes),
            "rounds_by_size": {str(k): v for k, v in ROUNDS_BY_SIZE.items()},
            "coalesce_window_us": COALESCE_WINDOW_US,
            "coalesce_max_batch": COALESCE_MAX_BATCH,
            "pipeline_depth": PIPELINE_DEPTH,
            "repeats": repeats,
            "python": platform.python_version(),
            "numpy": getattr(accel.numpy_or_none(), "__version__", None),
        },
        "results": results,
        "speedups": speedups,
    }


def check_bench_file(path: str) -> dict:
    """Validate a committed serving bench file.

    Raises ``ValueError`` if the file is missing, unparsable,
    schema-stale, structurally empty -- or, for a full (non-smoke) run,
    if no transport shows the headline >=3x single-item coalescing win.
    """
    try:
        with open(path, "rb") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise ValueError(f"bench file {path} is missing") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"bench file {path} is not valid JSON: {exc}") from exc
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"bench file {path} has schema {doc.get('schema')!r}, current is "
            f"{BENCH_SCHEMA!r} -- regenerate with python -m repro.perf serving"
        )
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        raise ValueError(f"bench file {path} carries no results")
    for row in results:
        missing = _REQUIRED_RESULT_KEYS - set(row)
        if missing:
            raise ValueError(
                f"bench file {path} result row missing keys {sorted(missing)}"
            )
    if not doc.get("smoke"):
        single = [
            cell["speedup"]
            for cell in doc.get("speedups", [])
            if cell.get("request_size") == 1
        ]
        if not single:
            raise ValueError(
                f"bench file {path} has no single-item speedup cells"
            )
        if max(single) < 3.0:
            raise ValueError(
                f"bench file {path} best single-item coalescing speedup is "
                f"x{max(single)}, below the claimed x3.0 -- regenerate or "
                "investigate the serving-path regression"
            )
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf serving", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--out", default=None, help="write the bench document to this path"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid (CI: proves the harness runs, not the numbers)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--check",
        metavar="PATH",
        help="validate an existing bench file instead of running",
    )
    args = parser.parse_args(argv)
    if args.check:
        doc = check_bench_file(args.check)
        print(
            f"{args.check}: schema {doc['schema']}, "
            f"{len(doc['results'])} results, "
            f"{len(doc.get('speedups', []))} speedup cells"
        )
        return 0
    if args.smoke:
        doc = run_bench(
            SMOKE_TRANSPORTS,
            SMOKE_REQUEST_SIZES,
            repeats=1,
            clients=8,
            smoke=True,
        )
    else:
        doc = run_bench(repeats=args.repeats)
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    for cell in doc["speedups"]:
        print(
            f"  {cell['transport']:>12} request_size={cell['request_size']:>3} "
            f"-> x{cell['speedup']}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
