"""The chosen-insertion pollution attack (paper Section 4.1).

Each crafted item satisfies eq. (6): all k of its indexes fall on
*currently unset* bits (and are pairwise distinct), so every insertion
adds exactly k ones.  After n insertions the filter holds ``nk`` set bits
instead of the expected ``m(1 - e^{-kn/m})`` -- a 38 % inflation at the
classical optimum -- and the false-positive probability climbs to
``(nk/m)^k`` (eq. 7), the curve of Fig. 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.adversary.crafting import CraftingAttack, CraftResult
from repro.adversary.predicates import FreshBitsPredicate
from repro.core.analysis import birthday_threshold
from repro.exceptions import ParameterError

__all__ = [
    "PollutionReport",
    "PollutionAttack",
    "pollution_success_probability",
    "expected_pollution_trials",
]


def pollution_success_probability(
    m: int, weight: int, k: int, paper_formula: bool = True
) -> float:
    """Probability a uniform random item is a valid polluting item.

    The paper (Table 1) gives ``C(m - W, k) / m^k``.  The exact count of
    favourable *ordered* index tuples is the falling factorial
    ``(m-W)(m-W-1)...(m-W-k+1)``, i.e. ``C(m-W, k) * k!``; pass
    ``paper_formula=False`` for that version.  Both vanish once fewer
    than k bits remain unset.
    """
    if m <= 0 or k <= 0:
        raise ParameterError("m and k must be positive")
    if not 0 <= weight <= m:
        raise ParameterError(f"weight must be in [0, {m}]")
    free = m - weight
    if free < k:
        return 0.0
    ways = math.comb(free, k)
    if not paper_formula:
        ways *= math.factorial(k)
    return ways / (m**k)


def expected_pollution_trials(m: int, weight: int, k: int) -> float:
    """Expected brute-force candidates per polluting item (exact model)."""
    p = pollution_success_probability(m, weight, k, paper_formula=False)
    if p == 0.0:
        return math.inf
    return 1.0 / p


@dataclass
class PollutionReport:
    """Outcome of a pollution run.

    ``fpp_curve[i]`` is the filter's weight-implied FP probability after
    the i-th crafted insertion -- the raw series behind Fig. 3.
    """

    crafted: list[CraftResult] = field(default_factory=list)
    weight_before: int = 0
    weight_after: int = 0
    fpp_curve: list[float] = field(default_factory=list)

    @property
    def total_trials(self) -> int:
        """Brute-force candidates examined across all crafted items."""
        return sum(r.trials for r in self.crafted)

    @property
    def items(self) -> list[str]:
        """The crafted items in insertion order."""
        return [r.item for r in self.crafted]


class PollutionAttack(CraftingAttack):
    """Drive a chosen-insertion pollution campaign against a filter.

    The predicate is eq. (6): pairwise-distinct indexes, all on unset
    bits.
    """

    predicate_type = FreshBitsPredicate
    default_seed = 0x5EED
    default_label = "pollution"

    def run(self, count: int, insert: bool = True) -> PollutionReport:
        """Craft ``count`` polluting items, inserting each by default.

        With ``insert=False`` the items are only returned (an attacker
        preparing a page of links crafts first, plants later) -- note the
        predicate then keeps judging against the unchanged filter state,
        so consecutive items may collide with each other.
        """
        report = PollutionReport(weight_before=self.target.hamming_weight)
        for _ in range(count):
            result = self.craft_one()
            report.crafted.append(result)
            if insert:
                self.target.add(result.item)
            report.fpp_curve.append(self.target.current_fpp())
        report.weight_after = self.target.hamming_weight
        return report

    def free_insertions(self) -> int:
        """Insertions below the birthday threshold need no crafting at
        all: ``ceil(sqrt(m)/k)`` (paper Section 4.1)."""
        return birthday_threshold(self.target.m, self.target.k)
