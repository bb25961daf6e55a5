"""Budget-frontier calibration: the defence-side inverse of the budget model.

The attack-budget subsystem prices a campaign from the attacker's side:
given trials, a request-rate ceiling and a deadline, how many ghost hits
does the adversary extract?  A defender plans the other way around --
"for my rotation policy and geometry, what is the *cheapest* budget that
still buys the attacker a damaging ghost volume?"  The higher that
cheapest winning budget, the better the defence: it is the price tag a
rational adversary reads before deciding whether the campaign is worth
mounting (Tirmazi's robustness survey frames exactly this cost game, and
Naor-Yogev's adversary is the budgeted player on the other side).

This module computes that frontier point by *replay*: a candidate
:class:`~repro.service.config.AttackBudgetConfig` is handed to the
seeded :class:`~repro.service.driver.AdversarialTrafficDriver` workload
against a gateway built from the :class:`~repro.service.config.
ServiceConfig` under study, the adaptive ghost campaign runs under that
purse, and the probe *wins* when it reaches the target ghost volume.
:func:`cheapest_winning_budget` then binary-searches the trial axis
(request rate and deadline are shape parameters of the campaign) for the
cheapest winning purse -- the mirror image of how ``worst_case_params``
sweeps geometry.

Replays are seeded and deterministic in workload structure, but the
win predicate is only *statistically* monotone in the purse (asyncio
interleaving moves rotation instants slightly between runs), so the
result is the cheapest winning budget the search observed, bracketed to
``resolution`` trials -- calibration, not a closed form.  A defence
strong enough that even ``ceiling`` trials lose reports ``cheapest =
None``: the frontier lies beyond the sweep, which for comparison
purposes is *above* every finite point.

Each probe is an independent seeded replay, so the search parallelises:
hand :func:`cheapest_winning_budget` a :class:`ProbePool` and the
doubling phase fans its whole rung ladder across worker processes while
the search still consumes results in rung order and records exactly the
rungs the serial walk would have probed -- the pool changes wall clock,
never which probes decide the price.

:func:`thrash_events` is the companion diagnostic: rotation pairs on the
same shard closer than a minimum op gap -- the filter-emptying churn a
:class:`~repro.service.lifecycle.Cooldown` wrapper exists to forbid.
"""

from __future__ import annotations

import asyncio
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.exceptions import ParameterError
from repro.service.cluster.ring import HashShardPicker
from repro.service.config import AttackBudgetConfig, ServiceConfig
from repro.service.driver import AdversarialTrafficDriver
from repro.service.gateway import MembershipGateway, RotationEvent

__all__ = [
    "FrontierWorkload",
    "FrontierProbe",
    "FrontierResult",
    "ProbePool",
    "thrash_events",
    "replay_probe",
    "minimise_winning_trials",
    "cheapest_winning_budget",
]


def thrash_events(
    rotation_log: Iterable[RotationEvent], min_gap_ops: int
) -> int:
    """Count rotation pairs on one shard closer than ``min_gap_ops``.

    The gap is measured in gateway op-epochs (the logical clock stamped
    on every :class:`~repro.service.gateway.RotationEvent`), which upper-
    bounds the shard's own operation count over the same interval -- so
    a gateway running ``cooldown:N(...)`` can never produce a thrash
    event with ``min_gap_ops <= N``.  Each event pairs with its
    predecessor on the same shard: three back-to-back rotations are two
    thrash events.
    """
    if min_gap_ops <= 0:
        raise ParameterError("min_gap_ops must be positive")
    last_epoch: dict[int, int] = {}
    thrash = 0
    for event in rotation_log:
        previous = last_epoch.get(event.shard_id)
        if previous is not None and event.op_epoch - previous < min_gap_ops:
            thrash += 1
        last_epoch[event.shard_id] = event.op_epoch
    return thrash


@dataclass(frozen=True)
class FrontierWorkload:
    """The seeded probe replay a frontier search repeats per budget.

    One honest population plus the adaptive ghost campaign aimed at
    ``target_shard``; no pollution client by default, so the purse under
    test is spent by the ghost campaign alone and the frontier prices
    exactly the attack whose volume is being targeted.  Honest traffic
    both camouflages the storm (it keeps the positive-rate mix honest)
    and refills the shard after a rotation -- without it, recrafting
    against a freshly-rotated, empty filter would be impossible and
    every tripwire policy would trivially win.
    """

    honest_clients: int = 3
    honest_inserts: int = 840
    honest_queries: int = 240
    batch: int = 16
    pollution_inserts: int = 0
    ghost_queries: int = 96
    min_fill: float = 0.25
    target_shard: int = 0
    #: Per-item crafting cap (the campaign purse is the searched bound).
    max_trials: int = 30_000
    craft_chunk: int = 8
    #: Consecutive dry craft chunks the campaign survives -- the
    #: frontier models a *patient* attacker who waits out a rotation
    #: until honest traffic refills the shard (a purse big enough to
    #: recraft should win; only the purse, not impatience, should lose).
    craft_patience: int = 12

    def run_kwargs(self) -> dict:
        """Keyword arguments for ``AdversarialTrafficDriver.run``."""
        return dict(
            honest_clients=self.honest_clients,
            honest_inserts=self.honest_inserts,
            honest_queries=self.honest_queries,
            batch=self.batch,
            pollution_inserts=self.pollution_inserts,
            ghost_queries=0,
            adaptive_ghost_queries=self.ghost_queries,
            adaptive_min_fill=self.min_fill,
            latency_queries=0,
            target_shard=self.target_shard,
            probe_queries=0,
        )


@dataclass(frozen=True)
class FrontierProbe:
    """Outcome of replaying one candidate budget against one defence."""

    budget: AttackBudgetConfig
    ghost_queries: int
    ghost_hits: int
    trials_spent: int
    rotations: int
    rotations_suppressed: int
    thrash_events: int
    won: bool


@dataclass(frozen=True)
class FrontierResult:
    """Cheapest winning budget found for one service configuration."""

    policy: str
    target_hits: int
    #: The cheapest budget that reached the target, or ``None`` when
    #: even the ceiling lost -- the frontier lies beyond the sweep,
    #: i.e. above every finite competitor.
    cheapest: AttackBudgetConfig | None
    #: The probe behind ``cheapest`` (``None`` exactly when it is).
    winning: FrontierProbe | None
    probes: tuple[FrontierProbe, ...] = field(default_factory=tuple)

    @property
    def cheapest_trials(self) -> int | None:
        """The frontier price in trials (``None`` = beyond the sweep)."""
        return self.cheapest.max_trials if self.cheapest is not None else None

    def beats(self, other: "FrontierResult") -> bool:
        """True when this defence's frontier price is strictly higher
        than ``other``'s (``None`` counts as beyond every finite price;
        two ``None`` frontiers are not comparable and return False)."""
        if self.cheapest_trials is None:
            return other.cheapest_trials is not None
        if other.cheapest_trials is None:
            return False
        return self.cheapest_trials > other.cheapest_trials


def replay_probe(
    config: ServiceConfig,
    budget: AttackBudgetConfig,
    target_hits: int,
    workload: FrontierWorkload | None = None,
    seed: int = 0,
    thrash_gap: int = 200,
) -> FrontierProbe:
    """Replay the seeded workload under one candidate budget.

    Builds a fresh gateway from ``config``, runs the driver with the
    budget metering the adaptive ghost campaign, and reports whether the
    campaign reached ``target_hits`` confirmed ghost answers.
    """
    if target_hits <= 0:
        raise ParameterError("target_hits must be positive")
    workload = workload or FrontierWorkload()
    gateway = MembershipGateway.from_config(config)
    try:
        driver = AdversarialTrafficDriver(
            gateway,
            seed=seed,
            attacker_router=HashShardPicker(),
            max_trials=workload.max_trials,
            craft_chunk=workload.craft_chunk,
            craft_patience=workload.craft_patience,
            budget=budget.build(),
        )
        report = asyncio.run(driver.run(**workload.run_kwargs()))
    finally:
        gateway.close()
    trials = sum(spend.get("trials", 0) for spend in report.budget_spend.values())
    return FrontierProbe(
        budget=budget,
        ghost_queries=report.adaptive_queries,
        ghost_hits=report.adaptive_hits,
        trials_spent=trials,
        rotations=report.rotations,
        rotations_suppressed=report.rotations_suppressed,
        thrash_events=thrash_events(gateway.rotation_log, thrash_gap),
        won=report.adaptive_hits >= target_hits,
    )


class ProbePool:
    """A process pool fanning seeded frontier replays out concurrently.

    Every probe is a full gateway build plus an ``asyncio.run`` replay --
    seconds of mostly-sleeping wall clock -- and the doubling phase of
    :func:`cheapest_winning_budget` knows its whole rung ladder up
    front.  The pool submits the ladder at once and the search consumes
    results *in rung order*, recording probes only up to the first
    winner -- the same rungs, in the same order, deciding the same way
    as the serial walk.  Given the same probe outcomes the frontier is
    identical; a replay's outcome does not depend on which process runs
    it (only on the seed and the timing jitter every replay already
    carries -- see the module docstring).  Rungs past the first winner
    may still execute (their futures are cancelled best-effort) but are
    never recorded.

    The pool is also a plain ``submit`` surface for experiment-level
    fan-out -- per-policy frontier sweeps and storm replays ship their
    module-level callables through the same workers.
    """

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers <= 0:
            raise ParameterError("workers must be positive")
        self.workers = workers or os.cpu_count() or 1
        self._executor = ProcessPoolExecutor(max_workers=self.workers)

    def submit(self, fn, /, *args, **kwargs):
        """Ship any picklable module-level callable to a worker."""
        return self._executor.submit(fn, *args, **kwargs)

    def probe(
        self,
        config: ServiceConfig,
        budget: AttackBudgetConfig,
        target_hits: int,
        *,
        workload: FrontierWorkload | None = None,
        seed: int = 0,
        thrash_gap: int = 200,
    ):
        """Future for one :func:`replay_probe` in a worker process."""
        return self._executor.submit(
            replay_probe, config, budget, target_hits, workload, seed, thrash_gap
        )

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ProbePool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def _ladder(floor: int, ceiling: int, resolution: int) -> list[int]:
    """The doubling rungs ``floor, 2*floor, ..., ceiling`` (the odd
    ceiling itself last), after validating the search bounds."""
    if floor <= 0 or ceiling < floor:
        raise ParameterError("need 0 < floor <= ceiling")
    if resolution <= 0:
        raise ParameterError("resolution must be positive")
    ladder = [floor]
    while ladder[-1] < ceiling:
        ladder.append(min(ladder[-1] * 2, ceiling))
    return ladder


def minimise_winning_trials(
    win: Callable[[int], bool],
    floor: int,
    ceiling: int,
    resolution: int,
) -> int | None:
    """Find the smallest winning trial purse in [floor, ceiling].

    ``win(trials)`` replays one probe and reports whether the campaign
    reached its target.  The search walks the doubling ladder up from
    ``floor`` until the first winning purse (or ``ceiling``), then
    bisects the bracket down to ``resolution`` trials.  Returns
    ``floor`` when even the floor wins, or ``None`` when no probed purse
    up to ``ceiling`` wins (the frontier lies beyond the sweep).

    Why doubling instead of probing the ceiling first: the win
    predicate is only *locally* monotone.  An oversized purse can lose
    where a modest one wins -- the budgeted crafting layer will happily
    burn a huge allowance on post-rotation searches against a
    near-empty filter and stall the campaign -- so the cheapest winning
    budget is found by walking up from below, never by assuming wins
    propagate down from the top.
    """
    lo = hi = None  # lo lost; hi is the first observed win
    for rung in _ladder(floor, ceiling, resolution):
        if win(rung):
            hi = rung
            break
        lo = rung
    if hi is None:
        return None
    if lo is None:
        return floor
    while hi - lo > resolution:
        mid = (lo + hi) // 2
        if win(mid):
            hi = mid
        else:
            lo = mid
    return hi


def cheapest_winning_budget(
    config: ServiceConfig,
    target_hits: int,
    *,
    workload: FrontierWorkload | None = None,
    seed: int = 0,
    floor: int = 16,
    ceiling: int = 24_000,
    resolution: int | None = None,
    requests_per_s: float | None = None,
    deadline_s: float | None = None,
    thrash_gap: int = 200,
    pool: ProbePool | None = None,
) -> FrontierResult:
    """The defence frontier: cheapest budget that still wins.

    Sweeps the trial axis of :class:`~repro.service.config.
    AttackBudgetConfig` (``requests_per_s`` and ``deadline_s`` fix the
    campaign's other two dimensions) by binary search over seeded
    replays, and returns the cheapest purse that bought the adaptive
    ghost campaign ``target_hits`` confirmed hits -- or ``cheapest =
    None`` when even ``ceiling`` trials lose against this defence.

    With a :class:`ProbePool` every rung of the doubling ladder is
    submitted up front and the one search reads each rung's result in
    order (rungs past the first winner are cancelled unread), then
    bisects through the pool -- the same rung sequence and decision rule
    as the serial search, in less wall clock on multicore hosts.
    """
    workload = workload or FrontierWorkload()
    resolution = resolution or max(16, ceiling // 16)
    probes: list[FrontierProbe] = []
    by_trials: dict[int, FrontierProbe] = {}

    def budget_for(trials: int) -> AttackBudgetConfig:
        return AttackBudgetConfig(
            max_trials=trials,
            requests_per_s=requests_per_s,
            deadline_s=deadline_s,
            strategy="adaptive",
        )

    def record(trials: int, probe: FrontierProbe) -> bool:
        probes.append(probe)
        by_trials[trials] = probe
        return probe.won

    probe_args = dict(workload=workload, seed=seed, thrash_gap=thrash_gap)
    # A single-worker pool serializes the ladder anyway, so prefetching
    # buys no wall clock while still paying per-probe pickling and the
    # speculative rung the worker starts before the in-order reader can
    # cancel it; the serial walk probes the same rungs and decides
    # identically.  (Duck-typed pools that don't advertise a worker
    # count are taken at their word and fanned into.)
    fan_out = pool is not None and getattr(pool, "workers", 2) > 1
    prefetched = {}
    if fan_out:
        prefetched = {
            rung: pool.probe(config, budget_for(rung), target_hits, **probe_args)
            for rung in _ladder(floor, ceiling, resolution)
        }

    def cancel_unread() -> None:
        for future in prefetched.values():
            future.cancel()
        prefetched.clear()

    def win(trials: int) -> bool:
        if not fan_out:
            probe = replay_probe(config, budget_for(trials), target_hits, **probe_args)
            return record(trials, probe)
        future = prefetched.pop(trials, None) or pool.probe(
            config, budget_for(trials), target_hits, **probe_args
        )
        won = record(trials, future.result())
        if won:
            cancel_unread()  # rungs past the first winner are never read
        return won

    try:
        cheapest_trials = minimise_winning_trials(win, floor, ceiling, resolution)
    finally:
        cancel_unread()
    winning = by_trials.get(cheapest_trials) if cheapest_trials is not None else None
    return FrontierResult(
        policy=config.rotation_policy,
        target_hits=target_hits,
        cheapest=winning.budget if winning is not None else None,
        winning=winning,
        probes=tuple(probes),
    )
