"""The rotation-policy contract and the shipped leaf policies.

The paper's strongest deployable countermeasure is filter recycling
(Section 8, Table 2): retire a shard's filter before an adversary can
finish measuring it.  *When* to retire is a policy question, and the
literature answers it several ways -- fill thresholds (a saturation
bound), dablooms-style age/op-count recycling, and adaptive reactions to
the query stream itself (Naor-Yogev's adversarial model is exactly an
attacker probing a filter over time).  A :class:`RotationPolicy`
consumes one per-shard :class:`~repro.service.lifecycle.state.
ShardObservation` and emits a :class:`~repro.service.lifecycle.state.
RotationDecision` with a machine-readable reason, and the gateway
delegates every rotate/keep choice to it.

Leaf policies here are pure; composition (AND/OR/NOT and the stateful
cool-down/hysteresis wrappers) lives in :mod:`~repro.service.lifecycle.
combinators`.  The gateway enters through :meth:`RotationPolicy.decide`,
which threads the per-shard :class:`~repro.service.lifecycle.state.
ShardLifecycleState` down to any stateful wrappers in the tree; plain
policies ignore it and stay pure ``evaluate`` implementations.

Every policy renders its canonical config string via ``spec()`` and
``parse_policy(p.spec()).spec() == p.spec()`` round-trips for the whole
algebra.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.exceptions import ParameterError
from repro.service.lifecycle.state import (
    KEEP,
    RotationDecision,
    ShardLifecycleState,
    ShardObservation,
)

__all__ = [
    "RotationPolicy",
    "NeverRotatePolicy",
    "FillThresholdPolicy",
    "TimeBasedRecyclingPolicy",
    "AdaptivePositiveRatePolicy",
    "RotateOnRestorePolicy",
]


class RotationPolicy(ABC):
    """The rotate/keep rule a gateway consults after every batch.

    Leaf implementations must be stateless across calls (all inputs
    arrive in the observation): that is what keeps decisions
    reproducible and snapshot-restartable.  Wrappers that genuinely
    need memory (cool-down, hysteresis) keep it in the per-shard
    :class:`~repro.service.lifecycle.state.ShardLifecycleState` the
    gateway threads through :meth:`decide` -- never on the policy
    object itself.
    """

    #: Stable identifier recorded in rotation events and reports.
    name: str = "policy"

    #: Whether :meth:`evaluate` reads ``observation.recent``.  The
    #: gateway skips materialising the sliding window for policies that
    #: don't (an O(window) copy per batch on the hot path).  Defaults to
    #: True so custom policies are correct out of the box; the shipped
    #: non-windowed policies opt out.
    needs_recent: bool = True

    @abstractmethod
    def evaluate(self, observation: ShardObservation) -> RotationDecision:
        """Decide for one shard; must not mutate anything."""

    def decide(
        self,
        observation: ShardObservation,
        life: ShardLifecycleState | None = None,
    ) -> RotationDecision:
        """The gateway's entry point: decide, with per-shard memory.

        ``life`` is the shard's lifecycle state; stateful wrappers read
        and write their scratch there (hysteresis streaks, the cool-down
        suppression tally) so it is snapshotted with everything else.
        Plain policies ignore it -- the default simply delegates to
        :meth:`evaluate`.  Combinators override this to thread ``life``
        down to every child, so a stateful wrapper works at any depth of
        a composed tree.
        """
        return self.evaluate(observation)

    def spec(self) -> str:
        """Canonical config string; ``parse_policy(p.spec())`` rebuilds
        an equivalent policy for every shipped policy and combinator."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.spec()!r}>"


class NeverRotatePolicy(RotationPolicy):
    """Explicit no-rotation baseline (distinct from having no policy
    only in that it shows up, named, in reports)."""

    name = "never"
    needs_recent = False

    def evaluate(self, observation: ShardObservation) -> RotationDecision:
        return KEEP


class FillThresholdPolicy(RotationPolicy):
    """Rotate once the shard's fill ratio reaches ``threshold``.

    The paper's recycled-filter countermeasure as a policy: a bound on
    how much damage any insertion stream (honest or crafted) can do
    before the filter is recycled.  ``ServiceConfig``'s default
    ``rotation_policy="fill:0.5"`` parses to ``FillThresholdPolicy(0.5)``.
    """

    name = "fill"
    needs_recent = False

    def __init__(self, threshold: float = 0.5) -> None:
        if not 0 < threshold <= 1:
            raise ParameterError("threshold must be in (0, 1]")
        self.threshold = threshold
        self._reason = f"fill_ratio>={threshold:g}"

    def evaluate(self, observation: ShardObservation) -> RotationDecision:
        if observation.fill_ratio >= self.threshold:
            return RotationDecision(rotate=True, reason=self._reason)
        return KEEP

    def spec(self) -> str:
        return f"fill:{self.threshold:g}"


class TimeBasedRecyclingPolicy(RotationPolicy):
    """Rotate after ``max_age_ops`` operations, whatever the fill.

    Dablooms-style recycling measured in served operations rather than
    wall clock (deterministic under replay): the filter is retired on a
    fixed budget, so an adversary's accumulated knowledge of its bits
    expires on a schedule the adversary cannot influence.
    """

    name = "age"
    needs_recent = False

    def __init__(self, max_age_ops: int = 10_000) -> None:
        if max_age_ops <= 0:
            raise ParameterError("max_age_ops must be positive")
        self.max_age_ops = max_age_ops
        self._reason = f"age_ops>={max_age_ops}"

    def evaluate(self, observation: ShardObservation) -> RotationDecision:
        if observation.age_ops >= self.max_age_ops:
            return RotationDecision(rotate=True, reason=self._reason)
        return KEEP

    def spec(self) -> str:
        return f"age:{self.max_age_ops}"


class AdaptivePositiveRatePolicy(RotationPolicy):
    """Rotate on a positive-rate spike: the FP-blowup tripwire.

    A ghost-forgery stream answers positive on essentially every crafted
    query, pushing a shard's positive rate far above any honest mix of
    known items and fresh probes.  Once at least ``min_queries`` have
    been served and the positive rate reaches ``max_positive_rate``, the
    shard rotates -- which invalidates every crafted ghost at once (they
    were forged against the retired bits).

    Without ``window`` the rate is measured since the shard's last
    rotation.  That leaves a blind spot: on a long-lived shard the
    honest history dilutes a late ghost storm (50 ghosts after 500
    honest queries barely move the lifetime average), which is exactly
    when a budgeted adaptive attacker strikes -- after the shard filled
    and crafting got cheap.  Pass ``window`` to measure the rate over
    the most recent ``window`` queries instead (served by the lifecycle
    state's sliding window, so ``window`` must not exceed
    :attr:`ShardLifecycleState.WINDOW_CAP`); the spike then stands out
    whatever came before it.

    ``min_queries`` keeps a couple of early lucky positives from
    triggering a spurious rotation (for windowed policies it is the
    minimum coverage the window must have accumulated, and must fit
    inside the window).  Note the threshold must sit above the
    deployment's honest positive rate (e.g. ``0.8`` when honest traffic
    re-queries half its own inserts), or the policy will rotate on
    legitimate traffic.
    """

    name = "adaptive"

    def __init__(
        self,
        max_positive_rate: float = 0.8,
        min_queries: int = 64,
        window: int | None = None,
    ) -> None:
        if not 0 < max_positive_rate <= 1:
            raise ParameterError("max_positive_rate must be in (0, 1]")
        if min_queries <= 0:
            raise ParameterError("min_queries must be positive")
        if window is not None:
            if window <= 0:
                raise ParameterError("window must be positive")
            if window > ShardLifecycleState.WINDOW_CAP:
                raise ParameterError(
                    f"window must not exceed the lifecycle retention cap "
                    f"({ShardLifecycleState.WINDOW_CAP})"
                )
            if min_queries > window:
                raise ParameterError("min_queries must fit inside the window")
        self.max_positive_rate = max_positive_rate
        self.min_queries = min_queries
        self.window = window
        self.needs_recent = window is not None
        self._reason = (
            f"window_positive_rate>={max_positive_rate:g}"
            if window is not None
            else f"positive_rate>={max_positive_rate:g}"
        )

    def evaluate(self, observation: ShardObservation) -> RotationDecision:
        if self.window is not None:
            covered, positives = observation.windowed_positive_rate(self.window)
            if (
                covered >= self.min_queries
                and positives / covered >= self.max_positive_rate
            ):
                return RotationDecision(rotate=True, reason=self._reason)
            return KEEP
        if (
            observation.queries >= self.min_queries
            and observation.positive_rate >= self.max_positive_rate
        ):
            return RotationDecision(rotate=True, reason=self._reason)
        return KEEP

    def spec(self) -> str:
        base = f"adaptive:{self.max_positive_rate:g}:{self.min_queries}"
        return f"{base}:{self.window}" if self.window is not None else base


class RotateOnRestorePolicy(RotationPolicy):
    """Expire shards restored mid-life from a snapshot; wrap any inner.

    A restored shard's bits were sitting on disk (and serving, before
    the restart) for longer than its in-process age shows -- the
    adversary may have finished measuring it while the service was down.
    This wrapper retires any restored shard after ``max_restored_age``
    post-restore operations (``0`` means: on its first post-restore
    decision), and otherwise delegates to ``inner`` (keep, when no inner
    is given).
    """

    name = "restore"

    def __init__(
        self, max_restored_age: int = 0, inner: RotationPolicy | None = None
    ) -> None:
        if max_restored_age < 0:
            raise ParameterError("max_restored_age must be non-negative")
        self.max_restored_age = max_restored_age
        self.inner = inner
        self.needs_recent = inner.needs_recent if inner is not None else False
        self._reason = f"restored_age>={max_restored_age}"
        if inner is not None:
            # Deferred import: combinators import this module.  The
            # inner tree may hold stateful wrappers whose streak keys
            # need position-stable disambiguation (see combinators).
            from repro.service.lifecycle.combinators import _assign_streak_keys

            _assign_streak_keys(self)

    def evaluate(self, observation: ShardObservation) -> RotationDecision:
        return self.decide(observation)

    def decide(
        self,
        observation: ShardObservation,
        life: ShardLifecycleState | None = None,
    ) -> RotationDecision:
        if (
            observation.restored
            and observation.ops_since_restore >= self.max_restored_age
        ):
            return RotationDecision(rotate=True, reason=self._reason)
        if self.inner is not None:
            return self.inner.decide(observation, life)
        return KEEP

    def spec(self) -> str:
        own = f"restore:{self.max_restored_age}"
        if self.inner is None:
            return own
        inner = self.inner.spec()
        # Legacy `+` binds a single atom-or-wrapper token; any other
        # inner (combinator, negation) needs parens to survive the
        # round trip through the grammar.
        from repro.service.lifecycle.combinators import AllOf, AnyOf, Not

        if isinstance(self.inner, (AllOf, AnyOf, Not)):
            return f"{own}+({inner})"
        return f"{own}+{inner}"
