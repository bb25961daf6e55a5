"""Query-only attacks: false-positive forgery and worst-case-latency
queries (paper Section 4.2).

The query-only adversary cannot insert but knows (part of) the filter
state.  Two goals:

* **Ghosts** -- items satisfying eq. (8): every index lands on a set
  bit, so the filter wrongly answers "present".  Per random trial this
  succeeds with probability ``(W/m)^k``; the cost as the filter empties
  is the curve of Fig. 6.  Used to hide pages from a crawler (the
  decoy/ghost tree of Fig. 7) or to flood a backing database with
  confirm-lookups.
* **Latency queries** -- items whose first k-1 indexes are set and whose
  k-th is not: a short-circuiting query implementation must touch all k
  positions before rejecting, the worst case per lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.adversary.crafting import CraftingAttack, CraftResult
from repro.adversary.predicates import AllSetPredicate, LatencyPredicate
from repro.adversary.state import TargetFilter, bit_oracle
from repro.exceptions import ParameterError
from repro.urlgen.faker import UrlFactory

__all__ = [
    "GhostForgery",
    "LatencyQueryForgery",
    "DecoyTree",
    "false_positive_success_probability",
]


def false_positive_success_probability(m: int, weight: int, k: int) -> float:
    """``(W/m)^k``: chance a uniform random item is a false positive.

    The paper brackets it by ``(k/m)^k`` (right after n = 1 insertion,
    W = k) and ``(1/2)^k`` (optimally-full filter, W = m/2)."""
    if m <= 0 or k <= 0:
        raise ParameterError("m and k must be positive")
    if not 0 <= weight <= m:
        raise ParameterError(f"weight must be in [0, {m}]")
    return (weight / m) ** k


class GhostForgery(CraftingAttack):
    """Craft items the filter wrongly believes present (eq. 8)."""

    predicate_type = AllSetPredicate
    default_seed = 0x6057
    default_label = "ghost"

    def craft(self, count: int) -> list[CraftResult]:
        """``count`` ghost items (the filter state does not change, so
        each search is independent and identically costed)."""
        return [self.craft_one() for _ in range(count)]

    def success_probability(self) -> float:
        """Current per-trial success probability ``(W/m)^k``."""
        return false_positive_success_probability(
            self.target.m, self.target.hamming_weight, self.target.k
        )


class LatencyQueryForgery(CraftingAttack):
    """Craft dummy queries hitting k-1 set bits then one unset bit.

    Forces a short-circuit query loop through its longest path on an
    item that is *not* a member -- per-query worst case, aimed at very
    large filters where each position probe is a memory access.
    """

    predicate_type = LatencyPredicate
    default_seed = 0x7A7E
    default_label = "latency"

    def probes_touched(self, indexes: tuple[int, ...]) -> int:
        """Positions a short-circuiting query visits for these indexes."""
        is_set = bit_oracle(self.target)
        touched = 0
        for i in indexes:
            touched += 1
            if not is_set(i):
                break
        return touched


@dataclass(frozen=True)
class DecoyTree:
    """A root-to-ghost page chain as in paper Fig. 7.

    ``decoys`` are ordinary pages the spider will crawl; ``ghost`` is the
    crafted false positive hiding behind them -- the spider believes it
    has already been visited and never fetches it.
    """

    root: str
    decoys: tuple[str, ...]
    ghost: str

    @property
    def pages(self) -> tuple[str, ...]:
        """All URLs, root first, ghost last."""
        return (self.root, *self.decoys, self.ghost)

    @staticmethod
    def build(
        target: TargetFilter,
        root: str = "http://root.example",
        depth: int = 3,
        max_trials: int = 5_000_000,
        seed: int = 0xDEC0,
    ) -> "DecoyTree":
        """Craft a ghost under ``root`` and lay ``depth`` decoys above it.

        The decoys mirror the paper's example tree (``~/main``,
        ``~/main/tags``, ...); only the leaf needs forging.
        """
        if depth < 1:
            raise ParameterError("depth must be at least 1")
        segments = ["main", "tags", "app", "deep", "more", "extra"]
        decoys = []
        path = root.rstrip("/")
        for level in range(depth):
            path = f"{path}/{segments[level % len(segments)]}"
            decoys.append(path)
        factory = UrlFactory(seed=seed)
        forgery = GhostForgery(
            target,
            candidates=partial(factory.candidate_batch, prefix=path),
            max_trials=max_trials,
        )
        ghost = forgery.craft_one().item
        return DecoyTree(root=root, decoys=tuple(decoys), ghost=ghost)
