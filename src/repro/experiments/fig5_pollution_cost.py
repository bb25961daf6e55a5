"""Fig. 5 -- cost of creating polluting URLs.

The paper forges 10^6 URLs against pyBloom-parameterised filters for
f in {2^-5, 2^-10, 2^-15, 2^-20}: 38 s at 2^-5 growing to ~2 h at
2^-20 -- "the time needed to find the polluting items grows
exponentially" (in -log2 f, since k = log2(1/f) raises both the hashing
cost per candidate and the rejection rate).

Scaled reproduction: we forge ``n = 1200 * scale`` URLs into filters
sized for ``capacity = 2 * n`` (a half-filled filter, keeping the
acceptance probability finite for k = 20 -- at *full* fill the k = 20
acceptance is (1 - ln2)^20 ~ 5e-11, unreachable for anyone, which is
worth knowing and is reported as a note).  Measured wall time per f is
accompanied by the analytic expected-trials integral so the paper-scale
cost can be extrapolated.
"""

from __future__ import annotations

import time

from repro import accel
from repro.adversary.pollution import PollutionAttack, expected_pollution_trials
from repro.core.bloom import BloomFilter
from repro.core.params import BloomParameters
from repro.experiments.runner import ExperimentResult

__all__ = ["run", "expected_total_trials"]

FPPS = (2**-5, 2**-10, 2**-15, 2**-20)


def expected_total_trials(m: int, k: int, n_items: int) -> float:
    """Analytic expected brute-force candidates to craft ``n_items``
    polluting items in sequence (sum of per-item geometric means)."""
    return sum(expected_pollution_trials(m, i * k, k) for i in range(n_items))


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Regenerate Fig. 5 at laptop scale."""
    n_items = max(50, int(1200 * scale))
    capacity = 2 * n_items
    result = ExperimentResult(
        experiment_id="fig5",
        title="Cost of creating polluting URLs",
        paper_claim=(
            "forging 1e6 polluting URLs takes 38 s at f=2^-5 and ~2 h at "
            "f=2^-20; cost grows exponentially with -log2 f"
        ),
        headers=[
            "f",
            "k",
            "m (bits)",
            "URLs forged",
            "trials",
            "expected trials",
            "time (s)",
            "us/URL",
        ],
    )

    def forge(f: float, mode: str | None = None) -> tuple[float, "PollutionReport"]:
        """One curve point: forge ``n_items`` URLs, timed.

        ``mode`` pins the accel backend (the batched-vs-scalar speedup
        note re-runs the cheapest point with the scalar engine); the
        crafted items and trial counts are identical either way.
        """
        params = BloomParameters.design_optimal(capacity, f)
        target = BloomFilter(params.m, params.k)
        attack = PollutionAttack(target, seed=seed ^ params.k)
        with accel.use_mode(mode or accel.current_mode()):
            start = time.perf_counter()
            report = attack.run(n_items, insert=True)
            elapsed = time.perf_counter() - start
        return elapsed, report

    if accel.accelerated():
        accel.numpy_or_none().zeros(1)  # pay the lazy numpy import outside timing

    times: list[float] = []
    for f in FPPS:
        params = BloomParameters.design_optimal(capacity, f)
        elapsed, report = forge(f)
        times.append(elapsed)
        result.add_row(
            f"2^-{params.k}" if abs(f - 2**-params.k) < 1e-12 else f,
            params.k,
            params.m,
            n_items,
            report.total_trials,
            round(expected_total_trials(params.m, params.k, n_items)),
            round(elapsed, 3),
            round(elapsed / n_items * 1e6, 1),
        )

    if times[0] > 0:
        result.note(
            f"cost growth 2^-5 -> 2^-20: x{times[-1] / times[0]:.1f} "
            "(paper: ~x190, 38 s -> 2 h at n=1e6)"
        )
    if accel.accelerated() and times[-1] > 0:
        # The curve above ran on the batched crafting engine; re-forge
        # the dominant point (f=2^-20, where the search does almost all
        # its work) scalar so the speedup is measured, not assumed
        # (same seed, same items, same trial counts).
        scalar_elapsed, _ = forge(FPPS[-1], mode="pure")
        result.note(
            f"batched crafting engine: f=2^-20 point re-run scalar took "
            f"{scalar_elapsed:.3f}s vs {times[-1]:.3f}s batched "
            f"(x{scalar_elapsed / times[-1]:.1f} speedup, identical trials)"
        )
    result.note(
        "at full fill (n = capacity) the k=20 acceptance probability is "
        "(1 - ln 2)^20 ~ 5e-11; the paper's 1e6-URL forgeries are only "
        "feasible on partially-filled filters, which this reproduction makes "
        "explicit (fill = 50% of capacity here)"
    )
    result.note(f"scale={scale}: {n_items} URLs forged per curve vs 1e6 in the paper")
    return result
