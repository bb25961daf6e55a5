"""Shard lifecycle management: rotation policies as a composable algebra.

The paper's strongest deployable countermeasure is filter recycling
(Section 8, Table 2): retire a shard's filter before an adversary can
finish measuring it.  *When* to retire is a policy question, and this
package makes that axis pluggable and *composable*:

* :mod:`~repro.service.lifecycle.state` -- the frozen per-shard
  :class:`ShardObservation` policies consume, the
  :class:`RotationDecision` they emit, and the mutable
  :class:`ShardLifecycleState` the gateway owns (windowed positive-rate
  tracking, restore flags, and the stateful wrappers' per-shard scratch,
  all persisted in gateway snapshots);
* :mod:`~repro.service.lifecycle.policies` -- the
  :class:`RotationPolicy` contract and the leaf policies:
  :class:`FillThresholdPolicy` (the saturation threshold behind the
  default ``ServiceConfig.rotation_policy="fill:0.5"``),
  :class:`TimeBasedRecyclingPolicy` (dablooms-style op-age recycling),
  :class:`AdaptivePositiveRatePolicy` (the FP-spike tripwire, windowed
  or since-rotation), :class:`RotateOnRestorePolicy` (expire shards
  restored mid-life from a snapshot) and :class:`NeverRotatePolicy`;
* :mod:`~repro.service.lifecycle.combinators` -- the defence algebra:
  :class:`AllOf` (``&``), :class:`AnyOf` (``|``), :class:`Not` (``!``),
  and the stateful wrappers :class:`Cooldown` (``cooldown:N(...)``,
  guaranteed minimum filter lifetime, suppressions tallied per shard)
  and :class:`Hysteresis` (``hysteresis:N(...)``, N consecutive votes
  before a rotation passes);
* :mod:`~repro.service.lifecycle.parser` -- the config-string grammar:
  ``(adaptive:0.8:24:32&fill:0.5)|age:4000``,
  ``cooldown:200(hysteresis:2(adaptive:0.85:24:32))``,
  ``restore:2000+fill:0.5``; every policy renders back via ``spec()``
  and ``parse_policy(p.spec()).spec() == p.spec()`` round-trips.

This package replaced the original single-module ``lifecycle.py``; the
import surface is unchanged (``from repro.service.lifecycle import
parse_policy`` keeps working) and grew the combinators.
"""

from repro.service.lifecycle.combinators import AllOf, AnyOf, Cooldown, Hysteresis, Not
from repro.service.lifecycle.parser import parse_policy
from repro.service.lifecycle.policies import (
    AdaptivePositiveRatePolicy,
    FillThresholdPolicy,
    NeverRotatePolicy,
    RotateOnRestorePolicy,
    RotationPolicy,
    TimeBasedRecyclingPolicy,
)
from repro.service.lifecycle.state import (
    KEEP,
    RotationDecision,
    ShardLifecycleState,
    ShardObservation,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Cooldown",
    "Hysteresis",
    "Not",
    "ShardObservation",
    "RotationDecision",
    "KEEP",
    "ShardLifecycleState",
    "RotationPolicy",
    "NeverRotatePolicy",
    "FillThresholdPolicy",
    "TimeBasedRecyclingPolicy",
    "AdaptivePositiveRatePolicy",
    "RotateOnRestorePolicy",
    "parse_policy",
]
