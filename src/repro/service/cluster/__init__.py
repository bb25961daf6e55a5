"""Multi-gateway cluster tier: shard ownership, handoff, routing.

One :class:`~repro.service.gateway.MembershipGateway` used to own every
shard lock; this package scales the serving layer past one event loop by
making shard ownership explicit and movable:

* :mod:`~repro.service.cluster.ring` -- the shard routers (with the
  parsed spec grammar behind ``ServiceConfig.router``) and a
  consistent-hash ring with virtual nodes that assigns global shard ids
  to gateway nodes, in a public (Murmur) or keyed (SipHash) variant;
* :mod:`~repro.service.cluster.ownership` -- the epoch-versioned
  ownership map: every shard move bumps the epoch, which is what lets a
  gateway reject stale handoffs and a client discard stale redirects;
* :mod:`~repro.service.cluster.client` -- :class:`ClusterClient`, which
  routes each batch to the owning gateway under its own (possibly
  stale) view and transparently follows ``NotOwner`` redirects carrying
  the new epoch;
* :mod:`~repro.service.cluster.harness` -- :class:`ClusterHarness`, N
  gateways on one loop (in-process or each behind its own TCP server)
  plus the gateway-shaped :class:`ClusterView` facade so the
  adversarial traffic driver runs unchanged against the whole cluster.

Ownership movement is *snapshot handoff*: the losing gateway exports
the shard's versioned block (filter bits + lifecycle scratch +
telemetry) under its serving lock, the gaining gateway restores it
byte-identically, and the epoch bump invalidates every stale route.
"""

from repro.service.cluster.ownership import OwnershipMap
from repro.service.cluster.ring import (
    HashRing,
    HashShardPicker,
    KeyedShardPicker,
    ShardPicker,
    parse_picker,
)

# The client and harness sit above the gateway (which itself imports the
# ring), so they load lazily -- importing `repro.service.cluster.ring`
# from inside the gateway must not drag the whole tier in a cycle.
_LAZY = {
    "ClusterClient": "repro.service.cluster.client",
    "ClusterHarness": "repro.service.cluster.harness",
    "ClusterView": "repro.service.cluster.harness",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

__all__ = [
    "ClusterClient",
    "ClusterHarness",
    "ClusterView",
    "HashRing",
    "HashShardPicker",
    "KeyedShardPicker",
    "OwnershipMap",
    "ShardPicker",
    "parse_picker",
]
