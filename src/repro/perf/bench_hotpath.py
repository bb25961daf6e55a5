"""Hot-path grid: batch insert/query throughput, pure vs accelerated.

One run covers the grid ``ops x modes x batch_sizes x shard_counts`` on
Bloom shards using the Kirsch-Mitzenmacher/murmur128 strategy -- the
configuration where the whole pipeline (batched hashing, grouped bit
work) is vectorisable, and also exactly what Dablooms deploys.  Shards
split each batch round-robin, so higher shard counts measure how
per-shard batch fragmentation erodes vectorisation gains.

The grid makes no headline claim: its speedup cells are the record.
Run it with ``python -m repro.perf hotpath``; :mod:`repro.perf.harness`
writes and checks ``BENCH_hotpath.json``.
"""

from __future__ import annotations

import time

from repro import accel
from repro.core.bloom import BloomFilter
from repro.hashing.kirsch_mitzenmacher import KirschMitzenmacherStrategy
from repro.perf.harness import document
from repro.perf.timers import StageTimer
from repro.service.codec import pack_bools

__all__ = ["SCHEMA", "ROW_KEYS", "RATIO", "run_bench", "headline_error", "cell_label"]

#: Schema tag written into (and demanded of) every bench file.
SCHEMA = "repro.bench_hotpath/1"

ROW_KEYS = frozenset(
    {"op", "mode", "batch_size", "shards", "items_per_sec", "seconds"}
)

#: Speedup cell: numpy over pure items/sec per (op, batch size, shards).
RATIO = (("op", "batch_size", "shards"), "mode", "pure", "numpy", "items_per_sec")

#: Filter geometry: large enough that the biggest benchmarked batch
#: leaves the filter far from saturation.
M_PER_SHARD = 1 << 20
K = 4

DEFAULT_BATCH_SIZES = (256, 4096, 32768)
DEFAULT_SHARD_COUNTS = (1, 4)
SMOKE_BATCH_SIZES = (256,)
SMOKE_SHARD_COUNTS = (1,)


def _make_items(count: int) -> list[bytes]:
    return [b"bench:key:%d" % i for i in range(count)]


def _route(items: list[bytes], shards: int) -> list[list[bytes]]:
    return [items[i::shards] for i in range(shards)]


def _fresh_shards(shards: int, strategy) -> list[BloomFilter]:
    return [BloomFilter(M_PER_SHARD, K, strategy) for _ in range(shards)]


def _bench_case(
    op: str, mode: str, batch_size: int, shards: int, repeats: int, strategy
) -> dict:
    """Best-of-``repeats`` throughput for one grid cell."""
    items = _make_items(batch_size)
    chunks = _route(items, shards)
    best = float("inf")
    with accel.use_mode(mode):
        for _ in range(repeats):
            filters = _fresh_shards(shards, strategy)
            if op == "query":
                # Query throughput over half-populated shards: answers
                # mix hits and misses instead of being all-False.
                for filt, chunk in zip(filters, chunks):
                    filt.add_batch(chunk[: max(1, len(chunk) // 2)])
            start = time.perf_counter()
            if op == "insert":
                for filt, chunk in zip(filters, chunks):
                    filt.add_batch(chunk)
            else:
                for filt, chunk in zip(filters, chunks):
                    filt.contains_batch(chunk)
            best = min(best, time.perf_counter() - start)
    return {
        "op": op,
        "mode": mode,
        "batch_size": batch_size,
        "shards": shards,
        "seconds": round(best, 6),
        "items_per_sec": round(batch_size / best, 1),
    }


def _stage_breakdown(batch_size: int, strategy) -> dict:
    """Where an accelerated insert+query batch spends its time."""
    timer = StageTimer()
    items = _make_items(batch_size)
    filt = BloomFilter(M_PER_SHARD, K, strategy)
    with accel.use_mode("auto"):
        with timer.stage("hashing.flat_batch_indexes"):
            flat = strategy.flat_batch_indexes(items, filt.k, filt.m)
        with timer.stage("core.set_groups"):
            answers = filt.bits.set_groups(flat, filt.k)
        with timer.stage("hashing.flat_batch_indexes"):
            flat = strategy.flat_batch_indexes(items, filt.k, filt.m)
        with timer.stage("core.all_set_groups"):
            answers = filt.bits.all_set_groups(flat, filt.k)
        with timer.stage("codec.pack_bools"):
            pack_bools(answers)
    return timer.report()


def run_bench(
    batch_sizes=None,
    shard_counts=None,
    repeats: int = 3,
    smoke: bool = False,
) -> dict:
    """Run the grid (the smoke grid if ``smoke``) and return its document."""
    batch_sizes = batch_sizes or (
        SMOKE_BATCH_SIZES if smoke else DEFAULT_BATCH_SIZES
    )
    shard_counts = shard_counts or (
        SMOKE_SHARD_COUNTS if smoke else DEFAULT_SHARD_COUNTS
    )
    strategy = KirschMitzenmacherStrategy()
    modes = ["pure"]
    if accel.numpy_or_none() is not None:
        modes.append("numpy")
        # Warm-up outside any timed cell: the first accelerated batch
        # pays the one-time kernel-module imports.
        with accel.use_mode("numpy"):
            warm = BloomFilter(M_PER_SHARD, K, strategy)
            warm.add_batch(_make_items(64))
            warm.contains_batch(_make_items(64))
            pack_bools([True] * 64)
    results = []
    for op in ("insert", "query"):
        for batch_size in batch_sizes:
            for shards in shard_counts:
                for mode in modes:
                    results.append(
                        _bench_case(op, mode, batch_size, shards, repeats, strategy)
                    )
    return document(
        "hotpath",
        smoke=smoke,
        config={
            "m_per_shard": M_PER_SHARD,
            "k": K,
            "strategy": strategy.name,
            "batch_sizes": list(batch_sizes),
            "shard_counts": list(shard_counts),
            "repeats": repeats,
        },
        results=results,
        stage_breakdown=_stage_breakdown(max(batch_sizes), strategy),
    )


def headline_error(doc: dict) -> str | None:
    """No headline claim to miss."""
    return None


def cell_label(cell: dict) -> str:
    return f"{cell['op']:>6} batch={cell['batch_size']:>6} shards={cell['shards']}"
