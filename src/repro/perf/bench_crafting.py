"""Crafting grid: batched brute-force search, pure vs accelerated.

One run covers the grid ``predicates x (k, m) scales x modes`` through
the real attack classes (pollution, ghost, latency on a classic filter
with the Kirsch-Mitzenmacher/murmur128 strategy -- the fully
vectorisable Dablooms-style hot path -- and the two-choice pollution
attack, whose pair derivation has no batch kernel, so the engine's
auto-dispatch keeps it on the scalar path in both modes: its ~1x rows
are the control documenting that decision).  Each cell crafts a fixed item count against a
half-full filter and reports *trials per second*: the brute-force
candidates the engine can examine and judge per wall-clock second,
which is the unit the paper prices attacks in (Figs. 5-6).

Candidate URLs are generated **once per cell, outside the timed
region**, and served to both modes from the same pre-built pool: URL
generation costs the same either way, and timing it would dilute the
engine comparison roughly 2x.  Fill levels are chosen per predicate so
the expected cost is ~``2^k`` trials per crafted item at every scale
(ghost/pollution/latency at fill 0.5; two-choice at ``1 - 2**-0.5`` so
both groups fresh is also a ``2^-k`` event).

The headline claim (:func:`headline_error`): in a full run the best
largest-scale speedup must be at least :data:`CLAIMED_SPEEDUP`.  Run the
grid with ``python -m repro.perf crafting``; :mod:`repro.perf.harness`
writes and checks ``BENCH_crafting.json``.
"""

from __future__ import annotations

import random
import time

from repro import accel
from repro.adversary.pollution import PollutionAttack
from repro.adversary.query import GhostForgery, LatencyQueryForgery
from repro.adversary.two_choice_attack import TwoChoicePollutionAttack
from repro.core.bloom import BloomFilter
from repro.core.two_choice import TwoChoiceBloomFilter
from repro.hashing.kirsch_mitzenmacher import KirschMitzenmacherStrategy
from repro.perf.harness import document
from repro.urlgen.faker import UrlFactory

__all__ = [
    "SCHEMA",
    "ROW_KEYS",
    "RATIO",
    "CLAIMED_SPEEDUP",
    "run_bench",
    "headline_error",
    "cell_label",
]

#: Schema tag written into (and demanded of) every bench file.
SCHEMA = "repro.bench_crafting/1"

ROW_KEYS = frozenset(
    {"predicate", "mode", "k", "m", "items", "trials", "seconds", "trials_per_sec"}
)

#: Speedup cell: numpy over pure trials/sec per (predicate, k, m).
RATIO = (("predicate", "k", "m"), "mode", "pure", "numpy", "trials_per_sec")

#: The headline: accelerated crafting at the largest scale must beat the
#: pure loop by at least this factor (enforced on full bench files).
CLAIMED_SPEEDUP = 5.0

#: (k, m) scales; crafting cost per item is ~2^k trials at every one.
DEFAULT_SCALES = ((4, 1 << 14), (8, 1 << 17), (12, 1 << 20))
SMOKE_SCALES = ((4, 1 << 14),)

DEFAULT_PREDICATES = ("pollution", "ghost", "latency", "two_choice")
SMOKE_PREDICATES = ("pollution", "ghost")

#: Items crafted per cell, sized so every cell runs ~2^k * items trials.
ITEMS_BY_K = {4: 512, 8: 48, 12: 6}
SMOKE_ITEMS_BY_K = {4: 24}

#: Classic-filter fill: predicate success is a ~2^-k event at 0.5.
FILL = 0.5
#: Two-choice fill: both 2k-index groups fresh is 2^-k at 1 - 2^-0.5.
TWO_CHOICE_FILL = 1 - 2**-0.5

#: Candidate-pool safety margin over the expected trial total.
_POOL_MARGIN = 8


class _PoolCursor:
    """Serve a pre-generated candidate pool to the engine as a bulk
    source: the scalar path pulls it one at a time, the batched path in
    blocks, both advancing one shared position."""

    def __init__(self, pool: list[str]) -> None:
        self.pool = pool
        self.pos = 0

    def batch(self, count: int) -> list[str]:
        chunk = self.pool[self.pos : self.pos + count]
        self.pos += len(chunk)
        return chunk


def _filled_bloom(k: int, m: int, fill: float, seed: int) -> BloomFilter:
    target = BloomFilter(m, k, KirschMitzenmacherStrategy())
    rng = random.Random(seed)
    target.bits.set_indexes(rng.sample(range(m), round(m * fill)))
    return target


def _filled_two_choice(k: int, m: int, fill: float, seed: int) -> TwoChoiceBloomFilter:
    target = TwoChoiceBloomFilter(m, k)
    rng = random.Random(seed)
    target.bits.set_indexes(rng.sample(range(m), round(m * fill)))
    return target


def _make_attack(predicate: str, k: int, m: int, cursor: _PoolCursor, seed: int):
    """Fresh target + attack client reading candidates from ``cursor``."""
    kwargs = dict(candidates=cursor.batch, max_trials=1_000_000)
    if predicate == "pollution":
        return PollutionAttack(_filled_bloom(k, m, FILL, seed), **kwargs)
    if predicate == "ghost":
        return GhostForgery(_filled_bloom(k, m, FILL, seed), **kwargs)
    if predicate == "latency":
        return LatencyQueryForgery(_filled_bloom(k, m, FILL, seed), **kwargs)
    if predicate == "two_choice":
        return TwoChoicePollutionAttack(
            _filled_two_choice(k, m, TWO_CHOICE_FILL, seed), **kwargs
        )
    raise ValueError(f"unknown predicate {predicate!r}")


def _make_pool(items: int, k: int, seed: int) -> list[str]:
    factory = UrlFactory(seed=seed)
    return factory.candidate_batch(items * (1 << k) * _POOL_MARGIN + 16_384)


def _bench_case(
    predicate: str,
    mode: str,
    k: int,
    m: int,
    items: int,
    pool: list[str],
    repeats: int,
    seed: int,
) -> dict:
    """Best-of-``repeats`` crafting throughput for one grid cell.

    Every repeat rebuilds the attack on the same seeded filter state and
    replays the same candidate pool, so the trial count is identical
    across repeats and modes -- only the clock varies.
    """
    best = float("inf")
    trials = 0
    with accel.use_mode(mode):
        for _ in range(repeats):
            attack = _make_attack(predicate, k, m, _PoolCursor(pool), seed)
            start = time.perf_counter()
            results = [attack.craft_one() for _ in range(items)]
            best = min(best, time.perf_counter() - start)
            trials = sum(r.trials for r in results)
    return {
        "predicate": predicate,
        "mode": mode,
        "k": k,
        "m": m,
        "items": items,
        "trials": trials,
        "seconds": round(best, 6),
        "trials_per_sec": round(trials / best, 1),
    }


def run_bench(
    scales=None,
    predicates=None,
    items_by_k=None,
    repeats: int = 3,
    seed: int = 0xC4AF7,
    smoke: bool = False,
) -> dict:
    """Run the grid (the smoke grid if ``smoke``) and return its document."""
    scales = scales or (SMOKE_SCALES if smoke else DEFAULT_SCALES)
    predicates = predicates or (SMOKE_PREDICATES if smoke else DEFAULT_PREDICATES)
    items_by_k = items_by_k or (SMOKE_ITEMS_BY_K if smoke else ITEMS_BY_K)
    modes = ["pure"]
    if accel.numpy_or_none() is not None:
        modes.append("numpy")
        # Warm-up outside any timed cell: the first accelerated craft
        # pays the one-time kernel-module imports.
        with accel.use_mode("numpy"):
            cursor = _PoolCursor(_make_pool(4, 4, seed))
            warm = _make_attack("ghost", 4, 1 << 14, cursor, seed)
            for _ in range(4):
                warm.craft_one()
    results = []
    for predicate in predicates:
        for k, m in scales:
            items = items_by_k[k]
            pool = _make_pool(items, k, seed ^ (k * m))
            for mode in modes:
                results.append(
                    _bench_case(predicate, mode, k, m, items, pool, repeats, seed)
                )
    return document(
        "crafting",
        smoke=smoke,
        config={
            "scales": [list(s) for s in scales],
            "predicates": list(predicates),
            "items_by_k": {str(k): v for k, v in items_by_k.items()},
            "fill": FILL,
            "two_choice_fill": round(TWO_CHOICE_FILL, 6),
            "strategy": KirschMitzenmacherStrategy().name,
            "repeats": repeats,
            "seed": seed,
        },
        results=results,
    )


def headline_error(doc: dict) -> str | None:
    """The claim: the best largest-scale speedup is >= CLAIMED_SPEEDUP."""
    largest_k = max(row["k"] for row in doc["results"])
    at_scale = [
        cell["speedup"] for cell in doc["speedups"] if cell["k"] == largest_k
    ]
    if not at_scale:
        return f"has no speedup cells at the largest scale (k={largest_k})"
    if max(at_scale) < CLAIMED_SPEEDUP:
        return (
            f"best largest-scale crafting speedup is x{max(at_scale)}, below the "
            f"claimed x{CLAIMED_SPEEDUP} -- regenerate or investigate the "
            "batched-engine regression"
        )
    return None


def cell_label(cell: dict) -> str:
    return (
        f"{cell['predicate']:>10} k={cell['k']:>2} "
        f"m=2^{cell['m'].bit_length() - 1}"
    )
