"""The budget-frontier calibration layer: thrash accounting, the
cheapest-winning-purse search, and the replay probe end to end."""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from repro.defense.frontier import (
    FrontierProbe,
    ProbePool,
    FrontierResult,
    FrontierWorkload,
    cheapest_winning_budget,
    minimise_winning_trials,
    replay_probe,
    thrash_events,
)
from repro.exceptions import ParameterError
from repro.service.config import AttackBudgetConfig, ServiceConfig
from repro.service.gateway import RotationEvent


def event(shard_id: int, op_epoch: int) -> RotationEvent:
    return RotationEvent(
        shard_id=shard_id,
        retired_weight=0,
        retired_fill=0.5,
        retired_insertions=0,
        op_epoch=op_epoch,
    )


# ----------------------------------------------------------------------
# thrash_events
# ----------------------------------------------------------------------


def test_thrash_counts_same_shard_pairs_below_the_gap():
    log = [event(0, 100), event(0, 250), event(0, 300), event(0, 600)]
    assert thrash_events(log, 100) == 1  # only 250->300
    assert thrash_events(log, 200) == 2  # 100->250 joins
    assert thrash_events(log, 50) == 0
    assert thrash_events([], 100) == 0


def test_thrash_never_pairs_across_shards():
    log = [event(0, 100), event(1, 110), event(0, 120), event(1, 130)]
    # Per shard the gaps are 20: two thrash events, not three.
    assert thrash_events(log, 50) == 2


def test_thrash_chain_counts_every_close_pair():
    log = [event(2, 10), event(2, 20), event(2, 30)]
    assert thrash_events(log, 100) == 2
    with pytest.raises(ParameterError):
        thrash_events(log, 0)


# ----------------------------------------------------------------------
# minimise_winning_trials (pure search over a fake predicate)
# ----------------------------------------------------------------------


def test_search_brackets_the_cheapest_win():
    probes: list[int] = []

    def win(trials: int) -> bool:
        probes.append(trials)
        return trials >= 700

    cheapest = minimise_winning_trials(win, floor=16, ceiling=4096, resolution=16)
    assert cheapest is not None
    assert 700 <= cheapest < 700 + 16 + 1
    # Doubling first, then bisection: never probes above the first win.
    assert max(probes) <= 1024


def test_search_floor_win_and_ceiling_loss():
    assert minimise_winning_trials(lambda t: True, 16, 4096, 16) == 16
    assert minimise_winning_trials(lambda t: False, 16, 4096, 16) is None


def test_search_probes_the_exact_ceiling():
    seen: list[int] = []

    def win(trials: int) -> bool:
        seen.append(trials)
        return False

    assert minimise_winning_trials(win, 16, 5000, 16) is None
    assert seen[-1] == 5000  # the odd ceiling itself is probed last


def test_search_validates_bounds():
    for bad in (
        lambda: minimise_winning_trials(lambda t: True, 0, 100, 16),
        lambda: minimise_winning_trials(lambda t: True, 200, 100, 16),
        lambda: minimise_winning_trials(lambda t: True, 16, 100, 0),
    ):
        with pytest.raises(ParameterError):
            bad()


# ----------------------------------------------------------------------
# FrontierResult ordering
# ----------------------------------------------------------------------


def _result(trials: int | None) -> FrontierResult:
    budget = (
        AttackBudgetConfig(max_trials=trials, strategy="adaptive")
        if trials is not None
        else None
    )
    probe = (
        FrontierProbe(
            budget=budget,
            ghost_queries=10,
            ghost_hits=10,
            trials_spent=trials,
            rotations=0,
            rotations_suppressed=0,
            thrash_events=0,
            won=True,
        )
        if budget is not None
        else None
    )
    return FrontierResult(
        policy="p", target_hits=10, cheapest=budget, winning=probe
    )


def test_beats_treats_beyond_sweep_as_supremum():
    assert _result(100).beats(_result(10))
    assert not _result(10).beats(_result(100))
    assert not _result(100).beats(_result(100))
    assert _result(None).beats(_result(100))
    assert not _result(100).beats(_result(None))
    assert not _result(None).beats(_result(None))  # incomparable
    assert _result(None).cheapest_trials is None
    assert _result(64).cheapest_trials == 64


# ----------------------------------------------------------------------
# The replay probe and full search, miniature end to end
# ----------------------------------------------------------------------

_TINY = FrontierWorkload(
    honest_clients=2,
    honest_inserts=160,
    honest_queries=60,
    ghost_queries=24,
    min_fill=0.2,
    max_trials=8_000,
)


def _config(policy: str) -> ServiceConfig:
    return ServiceConfig(
        shards=2,
        shard_m=256,
        shard_k=4,
        rotation_policy=policy,
    )


def test_replay_probe_reports_the_campaign():
    probe = replay_probe(
        _config("fill:0.95"),
        AttackBudgetConfig(max_trials=4_000, strategy="adaptive"),
        target_hits=12,
        workload=_TINY,
        seed=3,
    )
    assert probe.ghost_queries > 0
    assert 0 <= probe.ghost_hits <= probe.ghost_queries
    assert probe.trials_spent <= 4_000
    assert probe.won == (probe.ghost_hits >= 12)
    with pytest.raises(ParameterError):
        replay_probe(
            _config("never"),
            AttackBudgetConfig(max_trials=10),
            target_hits=0,
            workload=_TINY,
        )


def test_cheapest_winning_budget_finds_a_finite_frontier():
    # Against a never-rotating defence the pool replays freely: some
    # modest purse must win, and the probes must be recorded.
    result = cheapest_winning_budget(
        _config("never"),
        target_hits=12,
        workload=_TINY,
        seed=3,
        floor=8,
        ceiling=8_000,
        resolution=8,
    )
    assert result.cheapest is not None
    assert result.cheapest.strategy == "adaptive"
    assert result.winning is not None and result.winning.won
    assert result.cheapest_trials <= 8_000
    assert len(result.probes) >= 1
    assert result.policy == "never"


# ----------------------------------------------------------------------
# The pooled search: same rungs, same decisions as the serial walk
# ----------------------------------------------------------------------


class _FakePool:
    """ProbePool stand-in answering probes deterministically, at once."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self.submitted: list[int] = []

    def probe(self, config, budget, target_hits, *, workload, seed, thrash_gap):
        self.submitted.append(budget.max_trials)
        future: Future = Future()
        future.set_result(_fake_probe(budget, budget.max_trials >= self.threshold))
        return future


def _fake_probe(budget: AttackBudgetConfig, won: bool) -> FrontierProbe:
    return FrontierProbe(
        budget=budget,
        ghost_queries=1,
        ghost_hits=int(won),
        trials_spent=budget.max_trials,
        rotations=0,
        rotations_suppressed=0,
        thrash_events=0,
        won=won,
    )


@pytest.mark.parametrize("threshold", [10, 100, 700, 3000, 10**6])
def test_pooled_search_matches_serial_given_same_outcomes(
    monkeypatch, threshold: int
):
    """With identical probe outcomes the pooled search records exactly
    the serial search's rung sequence and returns the same price."""

    def fake_replay(config, budget, target_hits, workload=None, seed=0, thrash_gap=200):
        return _fake_probe(budget, budget.max_trials >= threshold)

    monkeypatch.setattr("repro.defense.frontier.replay_probe", fake_replay)
    kwargs = dict(
        target_hits=12, workload=_TINY, seed=3, floor=16, ceiling=4096, resolution=16
    )
    serial = cheapest_winning_budget(_config("never"), **kwargs)
    pooled = cheapest_winning_budget(
        _config("never"), **kwargs, pool=_FakePool(threshold)
    )
    assert pooled.cheapest_trials == serial.cheapest_trials
    assert [(p.budget.max_trials, p.won) for p in pooled.probes] == [
        (p.budget.max_trials, p.won) for p in serial.probes
    ]


def test_pooled_search_submits_the_whole_ladder_up_front():
    pool = _FakePool(threshold=100)
    result = cheapest_winning_budget(
        _config("never"),
        target_hits=12,
        workload=_TINY,
        seed=3,
        floor=16,
        ceiling=4096,
        resolution=16,
        pool=pool,
    )
    # Ladder 16..4096 fanned out in one burst before any bisection probe.
    ladder = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    assert pool.submitted[: len(ladder)] == ladder
    # Rungs past the first winner (128) are submitted but never recorded.
    recorded = [p.budget.max_trials for p in result.probes]
    assert recorded[:4] == [16, 32, 64, 128]
    assert all(t <= 128 for t in recorded)
    assert result.cheapest_trials is not None


def test_pooled_search_validates_bounds():
    pool = _FakePool(threshold=100)
    # (resolution=0 is falsy and coerced to the default, as serially.)
    for floor, ceiling in ((0, 100), (200, 100)):
        with pytest.raises(ParameterError):
            cheapest_winning_budget(
                _config("never"),
                target_hits=12,
                workload=_TINY,
                floor=floor,
                ceiling=ceiling,
                resolution=16,
                pool=pool,
            )


def test_probe_pool_validates_and_closes():
    with pytest.raises(ParameterError):
        ProbePool(workers=0)
    with ProbePool(workers=1) as pool:
        assert pool.workers == 1
        future = pool.submit(max, 3, 5)
        assert future.result() == 5


def test_probe_pool_replays_end_to_end():
    # A real worker process runs the same seeded replay the serial path
    # would; the probe comes back well-formed.
    with ProbePool(workers=1) as pool:
        future = pool.probe(
            _config("fill:0.95"),
            AttackBudgetConfig(max_trials=4_000, strategy="adaptive"),
            12,
            workload=_TINY,
            seed=3,
        )
        probe = future.result()
    assert probe.ghost_queries > 0
    assert probe.won == (probe.ghost_hits >= 12)
