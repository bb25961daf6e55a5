"""The membership-service subsystem: filters as deployed.

Everything else in the package studies a Bloom filter as an object; this
package studies it as a *service* -- the setting in which the paper's
attacks actually bite.  The stack is layered, transport-agnostic, and
restartable:

* :mod:`repro.service.backends` -- where shard filters live: in-process
  (:class:`LocalBackend`) or one worker process per shard
  (:class:`ProcessPoolBackend`), behind one batched contract;
* :mod:`repro.service.gateway` -- the asyncio membership gateway
  fronting N shards with batched query/insert APIs over any backend;
* :mod:`repro.service.config` -- :class:`ServiceConfig`, one frozen
  literal with one spelling per serving setting (geometry, ``router``
  spec, ``rotation_policy`` spec, admission, backend, coalescing);
  :meth:`MembershipGateway.from_config` is the one place it becomes
  objects;
* :mod:`repro.service.cluster` -- the multi-gateway tier: pluggable
  shard routers (:mod:`repro.service.cluster.ring`: public hash vs the
  keyed countermeasure applied to routing), a consistent-hash ring with
  virtual nodes assigning global shard ids to gateway nodes, an
  epoch-versioned :class:`OwnershipMap` makes moves
  explicit, :class:`ClusterClient` routes batches and follows
  ``ST_NOT_OWNER`` redirects, and :class:`ClusterHarness` runs N
  gateways (in-process or tcp-local) behind a gateway-shaped
  :class:`ClusterView` facade; ownership moves by byte-exact snapshot
  handoff of one shard's filter bits + lifecycle + telemetry;
* :mod:`repro.service.admission` -- per-client rate limiting;
* :mod:`repro.service.lifecycle` -- shard lifecycle management: pluggable
  rotation policies (fill threshold, op-age recycling, adaptive
  positive-rate, rotate-on-restore) over per-shard observations,
  composable through a defence algebra (``&``/``|``/``!`` plus the
  stateful ``cooldown:N(...)``/``hysteresis:N(...)`` wrappers), with
  snapshot-persistent policy state;
* :mod:`repro.service.telemetry` -- per-shard counters, latency
  histograms and the coalescer's merge/flush counters;
* :mod:`repro.service.coalesce` -- cross-client micro-batch coalescing:
  concurrent small batches merge into kernel-sized backend calls with
  per-request answer slicing and exception isolation;
* :mod:`repro.service.codec` / :mod:`repro.service.server` /
  :mod:`repro.service.client` -- a length-prefixed binary wire protocol
  (every frame carries a correlation id) with a pipelining asyncio TCP
  server and a client multiplexing one connection;
* :mod:`repro.service.snapshots` -- warm-restart persistence of shard
  bits, the rotation log and telemetry;
* :mod:`repro.service.driver` -- a concurrent traffic driver replaying
  honest + adversarial workloads over any transport and reporting
  attack amplification; its four attack clients can share one
  :class:`~repro.adversary.budget.AttackBudget` (total trials, request
  rate, deadline -- the :class:`AttackBudgetConfig` literal), with the
  adaptive-ghost client feeding answers back into crafting.
"""

from repro.service.admission import (
    ClientRateLimiter,
    RateLimited,
    TokenBucket,
)
from repro.service.backends import (
    BatchReply,
    LocalBackend,
    ProcessPoolBackend,
    ShardBackend,
    ShardState,
)
from repro.service.client import MembershipClient
from repro.service.cluster import (
    ClusterClient,
    ClusterHarness,
    ClusterView,
    HashRing,
    HashShardPicker,
    KeyedShardPicker,
    OwnershipMap,
    ShardPicker,
    parse_picker,
)
from repro.service.coalesce import MicroBatchCoalescer
from repro.service.config import AttackBudgetConfig, ServiceConfig
from repro.service.driver import (
    AdversarialTrafficDriver,
    ServiceTransport,
    TrafficReport,
    replay,
)
from repro.service.gateway import MembershipGateway, RotationEvent
from repro.service.lifecycle import (
    AdaptivePositiveRatePolicy,
    AllOf,
    AnyOf,
    Cooldown,
    FillThresholdPolicy,
    Hysteresis,
    NeverRotatePolicy,
    Not,
    RotateOnRestorePolicy,
    RotationDecision,
    RotationPolicy,
    ShardLifecycleState,
    ShardObservation,
    TimeBasedRecyclingPolicy,
    parse_policy,
)
from repro.service.server import MembershipServer
from repro.service.snapshots import (
    GatewaySnapshot,
    ShardBlock,
    load_snapshot,
    parse_shard_block,
    restore_gateway,
    save_snapshot,
    snapshot_gateway,
    snapshot_shard,
)
from repro.service.telemetry import (
    CoalesceTelemetry,
    LatencyHistogram,
    ShardSnapshot,
    ShardTelemetry,
    render_snapshots,
)

__all__ = [
    "AdaptivePositiveRatePolicy",
    "AdversarialTrafficDriver",
    "AllOf",
    "AnyOf",
    "AttackBudgetConfig",
    "BatchReply",
    "ClientRateLimiter",
    "ClusterClient",
    "ClusterHarness",
    "ClusterView",
    "CoalesceTelemetry",
    "Cooldown",
    "FillThresholdPolicy",
    "Hysteresis",
    "GatewaySnapshot",
    "HashRing",
    "HashShardPicker",
    "KeyedShardPicker",
    "LatencyHistogram",
    "LocalBackend",
    "MembershipClient",
    "MembershipGateway",
    "MembershipServer",
    "MicroBatchCoalescer",
    "NeverRotatePolicy",
    "Not",
    "OwnershipMap",
    "ProcessPoolBackend",
    "RateLimited",
    "RotateOnRestorePolicy",
    "RotationDecision",
    "RotationEvent",
    "RotationPolicy",
    "ServiceConfig",
    "ServiceTransport",
    "ShardBackend",
    "ShardBlock",
    "ShardLifecycleState",
    "ShardObservation",
    "ShardPicker",
    "ShardSnapshot",
    "ShardState",
    "ShardTelemetry",
    "TimeBasedRecyclingPolicy",
    "TokenBucket",
    "TrafficReport",
    "load_snapshot",
    "parse_picker",
    "parse_policy",
    "parse_shard_block",
    "render_snapshots",
    "replay",
    "restore_gateway",
    "save_snapshot",
    "snapshot_gateway",
    "snapshot_shard",
]
