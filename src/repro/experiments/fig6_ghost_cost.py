"""Fig. 6 -- cost of creating ghost URLs (false-positive forgeries).

The paper plots minutes-per-ghost against the filter's occupation (the
fraction of its 1e6-item capacity already inserted) for f in
{2^-5, 2^-10}: the emptier the filter, the harder the forgery, since a
random candidate is a false positive with probability ``(W/m)^k``.

We reproduce the curve on a scaled filter, measuring wall time where the
expected trial count fits a laptop budget and reporting the analytic
expectation everywhere (the paper's own low-occupation points are
hours-long for the same reason).
"""

from __future__ import annotations

import copy
import math
import time

from repro import accel
from repro.adversary.crafting import expected_trials
from repro.adversary.query import GhostForgery, false_positive_success_probability
from repro.core.bloom import BloomFilter
from repro.core.params import BloomParameters
from repro.experiments.runner import ExperimentResult
from repro.urlgen.faker import UrlFactory

__all__ = ["run", "expected_ghost_trials"]

FPPS = (2**-5, 2**-10)
OCCUPATIONS = (0.2, 0.4, 0.6, 0.8, 1.0)
#: Skip live measurement above this many expected trials per ghost.
TRIAL_BUDGET = 400_000


def expected_ghost_trials(m: int, k: int, weight: int) -> float:
    """Expected candidates per ghost at the given filter weight."""
    p = false_positive_success_probability(m, weight, k)
    if p == 0.0:
        return math.inf
    return expected_trials(p)


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Regenerate Fig. 6 at laptop scale."""
    capacity = max(200, int(3000 * scale))
    ghosts_per_point = 3
    result = ExperimentResult(
        experiment_id="fig6",
        title="Cost of creating ghost URLs vs filter occupation",
        paper_claim=(
            "per-ghost forgery cost falls steeply as occupation grows; "
            "low-occupation forgeries take hours (f=2^-10 curve far above 2^-5)"
        ),
        headers=[
            "f",
            "occupation",
            "weight/m",
            "expected trials",
            "measured trials",
            "time/ghost (s)",
        ],
    )

    if accel.accelerated():
        accel.numpy_or_none().zeros(1)  # pay the lazy numpy import outside timing

    #: The most expensive live-measured cell (filter snapshot, ghost
    #: seed, trials/ghost, seconds/ghost), kept for the speedup note:
    #: that is where the batched engine does almost all its work, so it
    #: is the honest place to measure the scalar comparison.
    costliest: tuple[BloomFilter, int, float, float] | None = None
    for f in FPPS:
        params = BloomParameters.design_optimal(capacity, f)
        target = BloomFilter(params.m, params.k)
        factory = UrlFactory(seed=seed ^ params.k)
        inserted = 0
        for occupation in OCCUPATIONS:
            goal = int(occupation * capacity)
            while inserted < goal:
                target.add(factory.url())
                inserted += 1
            weight = target.hamming_weight
            expectation = expected_ghost_trials(params.m, params.k, weight)
            if expectation <= TRIAL_BUDGET:
                forgery = GhostForgery(
                    target, max_trials=20 * TRIAL_BUDGET, seed=seed ^ goal
                )
                start = time.perf_counter()
                ghosts = forgery.craft(ghosts_per_point)
                elapsed = (time.perf_counter() - start) / ghosts_per_point
                measured = sum(g.trials for g in ghosts) / ghosts_per_point
                if costliest is None or measured > costliest[2]:
                    # Ghost crafting never mutates the filter, but the
                    # occupation loop keeps inserting -- snapshot the
                    # state so the cell can be re-run scalar later.
                    costliest = (copy.deepcopy(target), seed ^ goal, measured, elapsed)
                result.add_row(
                    f"2^-{params.k}",
                    occupation,
                    round(weight / params.m, 4),
                    round(expectation),
                    round(measured),
                    round(elapsed, 4),
                )
            else:
                result.add_row(
                    f"2^-{params.k}",
                    occupation,
                    round(weight / params.m, 4),
                    round(expectation),
                    "(skipped)",
                    "(model only)",
                )

    if accel.accelerated() and costliest is not None and costliest[3] > 0:
        ghost_target, ghost_seed, _, batched_elapsed = costliest
        forgery = GhostForgery(
            ghost_target, max_trials=20 * TRIAL_BUDGET, seed=ghost_seed
        )
        with accel.use_mode("pure"):
            start = time.perf_counter()
            forgery.craft(ghosts_per_point)
            scalar_elapsed = (time.perf_counter() - start) / ghosts_per_point
        result.note(
            f"batched crafting engine: costliest measured cell re-run scalar "
            f"took {scalar_elapsed:.4f}s/ghost vs {batched_elapsed:.4f}s "
            f"batched (x{scalar_elapsed / batched_elapsed:.1f} speedup, "
            f"identical ghosts and trials)"
        )

    result.note(
        "cells above the trial budget are reported analytically -- the same "
        "steep low-occupation wall the paper's Fig. 6 shows (its y axis tops "
        "out at 3 hours)"
    )
    result.note(f"scale={scale}: capacity {capacity} vs 1e6 in the paper")
    return result
