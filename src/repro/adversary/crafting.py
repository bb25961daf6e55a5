"""The brute-force crafting engine and the attack base every forge shares.

Paper Section 4: "In each case, we consider brute force search: an item
is selected at random and its k indexes are computed.  If the bit in the
filter at any of these indexes is already set to 1 or 0 depending on the
adversary, the item is discarded and a new one is tried."

The engine pulls candidates from one source (usually a
:class:`~repro.urlgen.faker.UrlFactory`), computes their indexes
through the *public* strategy of the target filter, and keeps the first
candidate whose index tuple satisfies the attack predicate.  Trial counts
are recorded so the cost figures (paper Figs. 5 and 6) can be rebuilt.
:class:`CraftingAttack` binds one predicate class to one target and
engine; the four attacks (pollution, ghosts, latency queries, two-choice
pollution) differ only in that predicate and what they do with a result.

Two search paths share byte-for-byte identical semantics:

* the **scalar** path examines one candidate at a time, exactly as the
  paper describes;
* the **batched** path pulls blocks of candidates, derives the whole
  block's index matrix through the strategy's ``flat_batch_indexes``
  (vectorised for the Kirsch-Mitzenmacher/murmur128 hot path) and
  evaluates a :class:`~repro.adversary.predicates.BatchPredicate` mask
  over the block.

Exactness is non-negotiable: the batched path returns the *first*
satisfying candidate of the stream, charges the shared
:class:`~repro.adversary.budget.AttackBudget` the same trial counts at
the same points, and raises the same exceptions with the same ``trials``
attributes.  Candidates pulled past a winner keep their (state-
independent) index tuples and are *carried* into the engine's next
search, so the candidate stream position matches the scalar engine
item-for-item across a whole campaign.

``craft()`` picks the path from the source it was given.  Mask-capable
predicates take the batched path when the source is a bulk puller
(a callable ``n -> list[str]`` such as
:meth:`UrlFactory.candidate_batch`), the strategy brings a batch kernel
and the accel backend is on.  Otherwise the scalar loop runs:

* ``REPRO_PURE_PYTHON=1`` selects it outright;
* strategies without a kernel (e.g. the two-choice pair derivation)
  stay scalar, because a block's k scalar hashes per over-pulled
  candidate would cost more than the mask saves;
* any other iterable is pulled exactly one candidate per trial.  Only
  the caller knows what a pulled candidate costs, and handing over a
  bulk puller is how it says blocks are cheap.  An iterator may be
  expensive per item (the traffic driver filters its stream through a
  shard router, generating ~``shards`` URLs per accepted one) or
  stateful (the adaptive attacker's stream draws from a shared RNG).  A
  block sliced off such a stream wastes whatever the engine's owner
  drops, and moves shared state past the winner.  Pulling exactly keeps
  both the cost and the state equal to what the paper's search
  examines, whatever the accel mode.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro import accel
from repro.exceptions import CraftingBudgetExceeded, ParameterError
from repro.hashing.base import IndexStrategy
from repro.urlgen.faker import UrlFactory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adversary.budget import AttackBudget
    from repro.adversary.state import TargetFilter

__all__ = [
    "CraftResult",
    "CraftingEngine",
    "CraftingAttack",
    "expected_trials",
    "CRAFT_BLOCK_SIZE",
]

#: First-block size of a batched search -- big enough to amortise the
#: vectorised hashing setup, small enough that cheap searches don't
#: over-pull the candidate stream.  The asymmetry drives the choice:
#: a hard search recoups a small start within a few doublings of the
#: ramp, but a search that wins in single-digit trials never gets its
#: over-pull back once the engine is dropped.  That waste case -- the
#: traffic driver re-binds a fresh attack to the live filter every
#: chunk, over a shard-routed stream costing ~``shards`` generated
#: candidates per accepted one -- is why ``craft()`` only batches bulk
#: sources: the driver passes an iterator, so its searches pull exactly
#: and no block size is ever wasted there.
CRAFT_BLOCK_SIZE = 64

#: Ceiling of the per-search block ramp: each further block of one
#: search doubles in size up to this, so expensive searches spend their
#: time in large, well-amortised kernel calls while staying exact (the
#: post-winner tail is carried either way).
CRAFT_BLOCK_MAX = 8192


@dataclass(frozen=True)
class CraftResult:
    """One successfully crafted item.

    Attributes
    ----------
    item:
        The crafted item (a URL in the application attacks).
    indexes:
        Its filter index tuple.
    trials:
        Candidates examined to find it (including itself).
    """

    item: str
    indexes: tuple[int, ...]
    trials: int


def expected_trials(success_probability: float) -> float:
    """Expected brute-force candidates for a per-trial success probability
    (geometric distribution mean, ``1/p``)."""
    if not 0 < success_probability <= 1:
        raise ParameterError(
            f"success probability must be in (0, 1], got {success_probability}"
        )
    return 1.0 / success_probability


def _row_tuple(matrix, j: int) -> tuple[int, ...]:
    """Row ``j`` of a block index matrix as a plain int tuple."""
    row = matrix[j]
    if isinstance(row, tuple):
        return row
    return tuple(int(v) for v in row)


def _first_true(mask) -> int | None:
    """Index of the first truthy entry of a mask (ndarray or sequence)."""
    np = accel.numpy_or_none()
    if np is not None and isinstance(mask, np.ndarray):
        return int(mask.argmax()) if mask.any() else None
    for j, value in enumerate(mask):
        if value:
            return j
    return None


class CraftingEngine:
    """Brute-force item forge against a known index strategy.

    Parameters
    ----------
    strategy:
        The target filter's (public) index derivation.
    k, m:
        The target filter's parameters.
    candidates:
        The one candidate source, duplicate-free.  A callable
        ``n -> list[str]`` (e.g. :meth:`UrlFactory.candidate_batch`, or
        ``partial(factory.candidate_batch, prefix=p)``) is a bulk
        source: the caller's statement that a block of candidates is
        cheap to pull and safe to over-pull, and what lets
        :meth:`craft` take the batched path.  The scalar loop pulls it
        one candidate at a time; an empty pull ends the source.  Any
        other iterable is pulled exactly one candidate per trial by
        :meth:`craft` (only a direct :meth:`craft_batched` call slices
        blocks off it).
    max_trials:
        Hard budget per crafted item; exceeding it raises
        :class:`~repro.exceptions.CraftingBudgetExceeded` rather than
        looping forever.
    budget:
        Optional campaign-wide :class:`~repro.adversary.budget.
        AttackBudget`: every search asks it for an allowance first (so
        the engine can never overspend the shared purse) and reports the
        trials actually examined, under ``label``.  A drained purse
        raises :class:`~repro.exceptions.AttackBudgetExhausted` before
        the search starts.
    block_size:
        Candidates per batched block.
    """

    def __init__(
        self,
        strategy: IndexStrategy,
        k: int,
        m: int,
        candidates: Iterable[str] | Callable[[int], list[str]],
        max_trials: int = 5_000_000,
        budget: "AttackBudget | None" = None,
        label: str = "craft",
        block_size: int = CRAFT_BLOCK_SIZE,
    ) -> None:
        if k <= 0 or m <= 0:
            raise ParameterError("k and m must be positive")
        if max_trials <= 0:
            raise ParameterError("max_trials must be positive")
        if block_size <= 0:
            raise ParameterError("block_size must be positive")
        self.strategy = strategy
        self.k = k
        self.m = m
        self.max_trials = max_trials
        self.budget = budget
        self.label = label
        self.block_size = block_size
        #: The bulk puller, or ``None`` for a per-item iterable.
        self._bulk: Callable[[int], list[str]] | None = None
        if callable(candidates):
            self._bulk = candidates
            # One-at-a-time view of the same source; the ``[]`` sentinel
            # ends it, so a finite source cannot spin forever.
            candidates = chain.from_iterable(iter(partial(candidates, 1), []))
        self._candidates: Iterator[str] = iter(candidates)
        #: Whether the strategy brings its own batch kernel (overrides
        #: the base scalar flatten).  Without one, block hashing costs
        #: exactly k scalar derivations per pulled candidate, and a
        #: block's over-pull past a cheap win makes the batched path a
        #: net loss -- so ``craft()`` keeps such strategies scalar.
        #: Duck-typed strategies outside the IndexStrategy hierarchy
        #: have no flattened batch form at all, so they stay scalar too.
        self._batch_kernel = (
            getattr(type(strategy), "flat_batch_indexes", None)
            not in (None, IndexStrategy.flat_batch_indexes)
        )
        #: Candidates a previous batched search pulled but never
        #: examined (the post-winner tail of its last block), kept as
        #: block segments ``[items, matrix, start]`` so the index rows
        #: stay in their (state-independent) block matrix with no
        #: per-row conversion.  Predicates are re-evaluated against
        #: current filter state when the next search consumes them.
        self._carry: deque[list] = deque()
        #: Total candidates examined over the engine's lifetime.
        self.total_trials = 0

    @property
    def carried(self) -> int:
        """Candidates pulled but not yet examined (batched-path tail)."""
        return sum(len(items) - start for items, _, start in self._carry)

    def _spend(self, trials: int) -> None:
        self.total_trials += trials
        if self.budget is not None:
            self.budget.charge_trials(trials, self.label)

    # -- search paths ---------------------------------------------------

    def craft(self, predicate: Callable[[tuple[int, ...]], bool]) -> CraftResult:
        """Return the first candidate whose indexes satisfy ``predicate``.

        Dispatches to the batched path when the source is a bulk puller,
        the predicate is mask-capable, the strategy has a batch kernel,
        and the accel backend is on; the scalar loop otherwise.  Both
        paths produce identical results, trial counts and budget
        charges.  The scalar fallback also makes a per-item iterator's
        consumption exact: it is advanced once per examined candidate
        and never past the winner.
        """
        if (
            self._bulk is not None
            and self._batch_kernel
            and callable(getattr(predicate, "mask", None))
            and accel.accelerated(self.block_size)
        ):
            return self.craft_batched(predicate)
        return self.craft_scalar(predicate)

    def craft_scalar(
        self, predicate: Callable[[tuple[int, ...]], bool]
    ) -> CraftResult:
        """The paper's one-candidate-at-a-time search."""
        cap = self.max_trials
        if self.budget is not None:
            cap = self.budget.clamp_trials(cap, self.label)
        for trial in range(1, cap + 1):
            if self._carry:
                seg = self._carry[0]
                items, matrix, start = seg
                item = items[start]
                indexes = _row_tuple(matrix, start)
                seg[2] = start + 1
                if seg[2] >= len(items):
                    self._carry.popleft()
            else:
                try:
                    item = next(self._candidates)
                except StopIteration as exc:
                    self._spend(trial - 1)
                    raise CraftingBudgetExceeded(
                        "candidate stream exhausted", trials=trial - 1
                    ) from exc
                indexes = self.strategy.indexes(item, self.k, self.m)
            if predicate(indexes):
                self._spend(trial)
                return CraftResult(item=item, indexes=indexes, trials=trial)
        return self._raise_exhausted(cap)

    def craft_batched(
        self, predicate: Callable[[tuple[int, ...]], bool]
    ) -> CraftResult:
        """Block-at-a-time search with scalar-identical accounting.

        Works under the pure backend too (block hashing and the mask
        both degrade to loops), so parity can be proven in both modes.
        """
        cap = self.max_trials
        if self.budget is not None:
            cap = self.budget.clamp_trials(cap, self.label)
        mask_fn = getattr(predicate, "mask", None)
        # Filter state cannot change mid-search, so predicates exposing
        # snapshot() have their bulk state read once here and threaded
        # through every block's mask.
        snapshot_fn = getattr(predicate, "snapshot", None)
        state = snapshot_fn() if callable(snapshot_fn) else None
        examined = 0
        # Carried candidates first: the stream already moved past them,
        # and their index rows are cached in their block matrix -- only
        # the (state-dependent) predicate is re-evaluated, as one
        # mask call per pending segment.
        while self._carry and examined < cap:
            seg = self._carry[0]
            items, matrix, start = seg
            take = min(len(items) - start, cap - examined)
            sub = matrix[start : start + take]
            mask = self._eval_mask(mask_fn, predicate, sub, state)
            hit = _first_true(mask)
            if hit is not None:
                row = start + hit
                trials = examined + hit + 1
                seg[2] = row + 1
                if seg[2] >= len(items):
                    self._carry.popleft()
                self._spend(trials)
                return CraftResult(
                    item=items[row],
                    indexes=_row_tuple(matrix, row),
                    trials=trials,
                )
            examined += take
            seg[2] = start + take
            if seg[2] >= len(items):
                self._carry.popleft()
        block = self.block_size
        while examined < cap:
            # Never pull past the allowance: every pulled candidate in a
            # non-winning block is examined and charged, exactly like
            # the scalar loop.
            items = self._pull_block(min(block, cap - examined))
            block = min(block * 2, CRAFT_BLOCK_MAX)
            if not items:
                self._spend(examined)
                raise CraftingBudgetExceeded(
                    "candidate stream exhausted", trials=examined
                )
            matrix = self._block_matrix(items)
            mask = self._eval_mask(mask_fn, predicate, matrix, state)
            hit = _first_true(mask)
            if hit is not None:
                trials = examined + hit + 1
                if hit + 1 < len(items):
                    self._carry.append([items, matrix, hit + 1])
                self._spend(trials)
                return CraftResult(
                    item=items[hit],
                    indexes=_row_tuple(matrix, hit),
                    trials=trials,
                )
            examined += len(items)
        return self._raise_exhausted(cap)

    # -- shared plumbing ------------------------------------------------

    @staticmethod
    def _eval_mask(mask_fn, predicate, matrix, state):
        """The block's boolean mask, via the vector form when available.

        ``state`` is only passed to mask-capable predicates that also
        expose ``snapshot()`` (the :class:`~repro.adversary.predicates.
        StatePredicate` family contract); bare-mask predicates keep the
        single-argument call.
        """
        if callable(mask_fn):
            if state is not None:
                return mask_fn(matrix, state)
            return mask_fn(matrix)
        return [predicate(_row_tuple(matrix, j)) for j in range(len(matrix))]

    def _pull_block(self, n: int) -> list[str]:
        if self._bulk is not None:
            return self._bulk(n)
        return list(islice(self._candidates, n))

    def _block_matrix(self, items: list[str]):
        """The block's index matrix: an ``(n, k)`` ndarray on the accel
        path, a list of int tuples on the pure path."""
        flat = self.strategy.flat_batch_indexes(items, self.k, self.m)
        np = accel.numpy_or_none()
        if np is not None and isinstance(flat, np.ndarray):
            return flat.reshape(len(items), self.k)
        k = self.k
        return [tuple(flat[i * k : (i + 1) * k]) for i in range(len(items))]

    def _raise_exhausted(self, cap: int) -> CraftResult:
        self._spend(cap)
        if cap < self.max_trials and self.budget is not None:
            # The search was cut short by the shared purse, and the purse
            # is now empty: this is campaign exhaustion, not a per-item
            # failure the caller should shrug off and retry.
            from repro.exceptions import AttackBudgetExhausted

            raise AttackBudgetExhausted(
                f"trial budget drained mid-search ({self.label!r}, "
                f"last {cap} trials spent without success)",
                trials=cap,
            )
        raise CraftingBudgetExceeded(
            f"no satisfying item within {cap} trials", trials=cap
        )

    def craft_many(
        self,
        predicate_factory: Callable[[], Callable[[tuple[int, ...]], bool]],
        count: int,
    ) -> list[CraftResult]:
        """Craft ``count`` items, re-evaluating the predicate each time.

        ``predicate_factory`` is called before each search so predicates
        can close over mutating filter state (pollution needs this: every
        accepted item changes which bits are "fresh").
        """
        if count < 0:
            raise ParameterError("count must be non-negative")
        return [self.craft(predicate_factory()) for _ in range(count)]


class CraftingAttack:
    """One brute-force attack: a predicate bound to a target and an engine.

    Sub-classes name their predicate class, default seed and budget
    label as class constants, and add only what they do with crafted
    items.

    Parameters
    ----------
    target:
        Any filter understood by :func:`~repro.adversary.state.bit_oracle`.
    candidates:
        The engine's candidate source (see :class:`CraftingEngine`);
        defaults to the bulk puller of a seeded :class:`UrlFactory`.
    max_trials:
        Per-item brute-force budget.
    seed:
        Seed of the default candidate factory; ``None`` takes the
        class's ``default_seed``.
    budget:
        Optional campaign-wide :class:`~repro.adversary.budget.
        AttackBudget` every trial is charged against (under ``label``).
    label:
        Budget ledger label; ``None`` takes the class's
        ``default_label``.
    """

    #: The :class:`~repro.adversary.predicates.StatePredicate` sub-class
    #: judging each candidate against ``target``.
    predicate_type: type
    default_seed: int
    default_label = "craft"

    def __init__(
        self,
        target: "TargetFilter",
        candidates: Iterable[str] | Callable[[int], list[str]] | None = None,
        max_trials: int = 5_000_000,
        seed: int | None = None,
        budget: "AttackBudget | None" = None,
        label: str | None = None,
    ) -> None:
        self.target = target
        if candidates is None:
            factory = UrlFactory(seed=self.default_seed if seed is None else seed)
            candidates = factory.candidate_batch
        #: Mask-capable predicate; the engine batches it whenever the
        #: source is bulk and the accel backend is on.
        self.predicate = self.predicate_type(target)
        strategy, k = self._geometry()
        self.engine = CraftingEngine(
            strategy,
            k,
            target.m,
            candidates,
            max_trials,
            budget=budget,
            label=self.default_label if label is None else label,
        )

    def _geometry(self) -> tuple[IndexStrategy, int]:
        """The adversary's view of the index derivation: which strategy
        it hashes candidates with, and how many indexes each yields."""
        return self.target.strategy, self.target.k

    def craft_one(self) -> CraftResult:
        """Craft (but do not use) one item satisfying the predicate in
        the target's current state; ``result.trials`` is its cost."""
        return self.engine.craft(self.predicate)
