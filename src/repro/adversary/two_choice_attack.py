"""Chosen-insertion attack on the two-choice Bloom filter.

Answers the paper's closing question (do variants have a better
worst-case FP?) for the construction its title riffs on: the adversary
crafts items whose *two* candidate groups are both entirely fresh, so
the defender's choose-the-lighter-group heuristic is moot -- every
insertion still adds k ones, and the query-side OR then makes the
forced false-positive probability ``1-(1-(nk/m)^k)^2``, strictly worse
than the classic filter's ``(nk/m)^k`` at the same weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adversary.crafting import CraftingAttack, CraftResult
from repro.adversary.predicates import TwoChoiceFreshPredicate
from repro.core.two_choice import TwoChoiceBloomFilter
from repro.hashing.base import IndexStrategy

__all__ = ["TwoChoicePollutionReport", "TwoChoicePollutionAttack"]


@dataclass
class TwoChoicePollutionReport:
    """Outcome of a two-choice pollution campaign."""

    crafted: list[CraftResult] = field(default_factory=list)
    weight_after: int = 0
    fpp_curve: list[float] = field(default_factory=list)

    @property
    def total_trials(self) -> int:
        """Brute-force candidates examined."""
        return sum(r.trials for r in self.crafted)

    @property
    def items(self) -> list[str]:
        """Crafted items in insertion order."""
        return [r.item for r in self.crafted]


class _PairStrategy(IndexStrategy):
    """Adapter presenting both groups as one 2k-index tuple to the engine.

    Subclassing :class:`IndexStrategy` buys the flattened batch form an
    explicit batched search pulls blocks through.  There is no vector
    kernel (the pair derivation hashes scalar), so ``craft()``'s
    auto-dispatch keeps this attack on the scalar path; the predicate
    mask still vectorises when ``craft_batched`` is called directly.
    """

    name = "two-choice-pair"

    def __init__(self, target: TwoChoiceBloomFilter) -> None:
        self._target = target

    def indexes(self, item: str | bytes, k: int, m: int) -> tuple[int, ...]:
        group_a, group_b = self._target.groups(item)
        return group_a + group_b


class TwoChoicePollutionAttack(CraftingAttack):
    """Craft items with both groups fresh and pairwise distinct.

    Both halves must be fresh; the chosen group (either) must also be
    internally distinct so it adds exactly k ones.
    """

    predicate_type = TwoChoiceFreshPredicate
    default_seed = 0x2C01

    def _geometry(self) -> tuple[IndexStrategy, int]:
        return _PairStrategy(self.target), 2 * self.target.k

    def run(self, count: int) -> TwoChoicePollutionReport:
        """Craft and insert ``count`` items; every insertion adds k ones."""
        report = TwoChoicePollutionReport()
        for _ in range(count):
            result = self.craft_one()
            report.crafted.append(result)
            self.target.add(result.item)
            report.fpp_curve.append(self.target.current_fpp())
        report.weight_after = self.target.hamming_weight
        return report
