"""Batched-vs-scalar crafting parity: items, indexes, trials, charges.

The batched search path exists purely for speed; this suite pins the
exactness contract from :mod:`repro.adversary.crafting`: for every
attack predicate, in both accel modes, the batched engine returns the
same ``(item, indexes, trials)`` sequence as the scalar loop, charges a
shared :class:`~repro.adversary.budget.AttackBudget` identically, and
raises the same exceptions with the same ``trials`` attributes -- down
to random bit states under hypothesis.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.adversary.budget import AttackBudget
from repro.adversary.pollution import PollutionAttack
from repro.adversary.query import GhostForgery, LatencyQueryForgery
from repro.adversary.two_choice_attack import TwoChoicePollutionAttack
from repro.core.bloom import BloomFilter
from repro.core.two_choice import TwoChoiceBloomFilter
from repro.exceptions import AttackBudgetExhausted, CraftingBudgetExceeded
from repro.urlgen.faker import UrlFactory

MODES = ["pure"] + (["numpy"] if accel.numpy_or_none() is not None else [])

SEED = 99


def _bloom(m: int = 4096, k: int = 6, set_bits: int = 1500) -> BloomFilter:
    target = BloomFilter(m, k)
    target.bits.set_indexes(random.Random(SEED).sample(range(m), set_bits))
    return target


def _two_choice(m: int = 4096, k: int = 4, set_bits: int = 1000) -> TwoChoiceBloomFilter:
    target = TwoChoiceBloomFilter(m, k)
    target.bits.set_indexes(random.Random(SEED).sample(range(m), set_bits))
    return target


ATTACKS = {
    "pollution": lambda: PollutionAttack(_bloom(), seed=SEED),
    "ghost": lambda: GhostForgery(_bloom(), seed=SEED),
    "latency": lambda: LatencyQueryForgery(_bloom(), seed=SEED),
    "two_choice": lambda: TwoChoicePollutionAttack(_two_choice(), seed=SEED),
}


def _sequence(attack, path: str, count: int) -> list[tuple]:
    """``count`` crafted (item, indexes, trials) triples via one path."""
    craft = getattr(attack.engine, path)
    out = []
    for _ in range(count):
        result = craft(attack.predicate)
        out.append((result.item, tuple(result.indexes), result.trials))
    return out


# ----------------------------------------------------------------------
# The parity suite: every predicate, both accel modes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(ATTACKS))
def test_batched_sequence_matches_scalar(name: str, mode: str):
    """Seeded batched and scalar campaigns are item-for-item identical."""
    reference = _sequence(ATTACKS[name](), "craft_scalar", 6)
    with accel.use_mode(mode):
        batched = _sequence(ATTACKS[name](), "craft_batched", 6)
    assert batched == reference


@pytest.mark.parametrize("mode", MODES)
def test_auto_dispatch_matches_scalar(mode: str):
    """``craft()`` lands on whichever path the mode selects -- and the
    campaign cannot tell."""
    reference = _sequence(ATTACKS["ghost"](), "craft_scalar", 6)
    with accel.use_mode(mode):
        auto = _sequence(ATTACKS["ghost"](), "craft", 6)
    assert auto == reference


def test_two_choice_auto_dispatch_stays_scalar():
    """The pair derivation has no batch kernel, so numpy mode must not
    push the two-choice attack onto the batched path."""
    attack = ATTACKS["two_choice"]()
    assert attack.engine._batch_kernel is False
    if accel.numpy_or_none() is None:
        return
    with accel.use_mode("numpy"):
        attack.engine.craft(attack.predicate)
    assert attack.engine.carried == 0  # never pulled a block


@pytest.mark.parametrize("mode", MODES)
def test_per_item_iterator_is_pulled_exactly(mode: str):
    """Without a bulk source, ``craft()`` draws one candidate per trial
    and nothing past the winner, whatever the mode: a bare iterator may
    be costly per item or advance shared state, so no block is sliced
    off it."""
    pulled = 0

    def counting_stream():
        nonlocal pulled
        factory = UrlFactory(seed=SEED)
        while True:
            pulled += 1
            yield factory.url()

    attack = PollutionAttack(_bloom(), candidates=counting_stream())
    with accel.use_mode(mode):
        trials = 0
        for _ in range(4):
            trials += attack.engine.craft(attack.predicate).trials
            assert pulled == trials
    assert attack.engine.carried == 0


def test_mixed_mode_engine_matches_scalar_campaign():
    """One engine alternating paths mid-campaign consumes the carried
    tail exactly where an all-scalar campaign would be."""
    reference = _sequence(ATTACKS["pollution"](), "craft_scalar", 6)
    attack = ATTACKS["pollution"]()
    mixed = []
    for index, path in enumerate(
        ["craft_batched", "craft_scalar", "craft_batched", "craft_scalar",
         "craft_scalar", "craft_batched"]
    ):
        mode = "numpy" if accel.numpy_or_none() is not None and index % 2 == 0 else "pure"
        with accel.use_mode(mode):
            result = getattr(attack.engine, path)(attack.predicate)
        mixed.append((result.item, tuple(result.indexes), result.trials))
    assert mixed == reference


# ----------------------------------------------------------------------
# Trial-accounting regressions: budgets and exhaustion, both paths
# ----------------------------------------------------------------------


def _spent(path: str, mode: str, purse: int) -> tuple[int, dict, int]:
    """Run a ghost campaign into a draining purse via one path."""
    budget = AttackBudget(max_trials=purse)
    target = _bloom()
    attack = GhostForgery(target, seed=SEED, budget=budget)
    craft = getattr(attack.engine, path)
    crafted = 0
    with accel.use_mode(mode):
        with pytest.raises(AttackBudgetExhausted) as excinfo:
            while True:
                craft(attack.predicate)
                crafted += 1
    spend = {k: (v.trials, v.requests) for k, v in budget.spend_by_label().items()}
    assert excinfo.value.trials >= 0
    assert budget.trials_spent == purse  # never over- or under-charged
    return crafted, spend, excinfo.value.trials


@pytest.mark.parametrize("mode", MODES)
def test_budget_drains_mid_block_with_scalar_spend(mode: str):
    """A purse draining mid-search raises AttackBudgetExhausted at the
    same crafted count, with the same final-search spend and the same
    per-label ledger, on both paths."""
    reference = _spent("craft_scalar", "pure", purse=700)
    assert _spent("craft_batched", mode, purse=700) == reference


@pytest.mark.parametrize("mode", MODES)
def test_max_trials_exhaustion_trials_match_scalar(mode: str):
    """CraftingBudgetExceeded carries the scalar trial count, and the
    stream position afterwards is identical (the next craft agrees)."""

    def run_impossible(path: str, with_mode: str) -> tuple[int, int, str]:
        target = _bloom()
        attack = GhostForgery(target, seed=SEED)
        engine = attack.engine
        engine.max_trials = 900
        predicate = _Impossible(attack.predicate)
        craft = getattr(engine, path)
        with accel.use_mode(with_mode):
            with pytest.raises(CraftingBudgetExceeded) as excinfo:
                craft(predicate)
            follow = engine.craft_scalar(lambda indexes: True)
        return excinfo.value.trials, engine.total_trials, follow.item

    reference = run_impossible("craft_scalar", "pure")
    assert run_impossible("craft_batched", mode) == reference
    assert reference[0] == 900


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("path", ["craft_scalar", "craft_batched"])
def test_finite_bulk_source_ends_the_search(path: str, mode: str):
    """An empty pull ends a bulk source: the search stops with every
    pooled candidate examined and charged, instead of spinning."""
    pool = UrlFactory(seed=SEED).candidate_batch(300)

    def source(n: int) -> list[str]:
        chunk = pool[:n]
        del pool[:n]
        return chunk

    attack = GhostForgery(_bloom(), candidates=source)
    with accel.use_mode(mode):
        with pytest.raises(
            CraftingBudgetExceeded, match="candidate stream exhausted"
        ) as excinfo:
            getattr(attack.engine, path)(_Impossible(attack.predicate))
    assert excinfo.value.trials == 300
    assert attack.engine.total_trials == 300


class _Impossible:
    """Mask-capable predicate that never accepts (exhaustion parity)."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __call__(self, indexes) -> bool:
        return False

    def snapshot(self):
        return self._inner.snapshot()

    def mask(self, matrix, state=None):
        np = accel.numpy_or_none()
        if np is not None and isinstance(matrix, np.ndarray):
            return np.zeros(len(matrix), dtype=bool)
        return [False] * len(matrix)


# ----------------------------------------------------------------------
# Hypothesis: parity over arbitrary filter bit states
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    bits=st.sets(st.integers(min_value=0, max_value=511), max_size=420),
    k=st.integers(min_value=2, max_value=6),
)
def test_parity_over_random_bit_states(bits: set[int], k: int):
    """Whatever the filter state -- empty, saturated, adversarial -- the
    batched path mirrors the scalar one: same crafted triples, or the
    same exhaustion at the same trial count."""

    def campaign(path: str, mode: str):
        target = BloomFilter(512, k)
        target.bits.set_indexes(sorted(bits))
        attack = GhostForgery(target, seed=SEED)
        attack.engine.max_trials = 1500
        craft = getattr(attack.engine, path)
        out = []
        with accel.use_mode(mode):
            for _ in range(3):
                try:
                    result = craft(attack.predicate)
                except CraftingBudgetExceeded as exc:
                    out.append(("exhausted", exc.trials))
                else:
                    out.append((result.item, tuple(result.indexes), result.trials))
        return out

    reference = campaign("craft_scalar", "pure")
    for mode in MODES:
        assert campaign("craft_batched", mode) == reference
