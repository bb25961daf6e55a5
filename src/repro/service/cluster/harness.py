"""N gateways, one loop: the in-process (or tcp-local) cluster harness.

:class:`ClusterHarness` builds the whole tier from one
:class:`~repro.service.config.ServiceConfig`: a consistent-hash ring
assigns the global shard space to named nodes, every node gets a
:class:`~repro.service.gateway.MembershipGateway` owning exactly its
subset (built by ``MembershipGateway.from_config``, so a node is
configured exactly like a standalone gateway), and :meth:`client` mints
routing :class:`~repro.service.cluster.client.ClusterClient` views.  Two
modes:

* ``"inproc"`` -- transports are the gateway objects themselves; zero
  wire cost, and :meth:`move_shard` is atomic with respect to client
  requests (no awaits between the release completing and the ownership
  map bumping);
* ``"tcp"`` -- each gateway sits behind its own
  :class:`~repro.service.server.MembershipServer` on a loopback port
  and transports are :class:`~repro.service.client.MembershipClient`
  connections, so redirects and handoffs cross a real codec round trip.

:class:`ClusterView` is the other half of the bargain: a gateway-shaped
facade over the whole cluster (total shard space, concatenated
lifecycle/telemetry, white-box shard views routed to the owning node)
so the adversarial traffic driver -- written against one gateway --
drives N of them unchanged.
"""

from __future__ import annotations

import asyncio
from typing import Sequence

from repro.exceptions import ParameterError
from repro.service.cluster.client import ClusterClient
from repro.service.cluster.ownership import OwnershipMap
from repro.service.cluster.ring import HashRing, ShardPicker
from repro.service.config import ServiceConfig
from repro.service.gateway import MembershipGateway
from repro.service.telemetry import render_snapshots

__all__ = ["ClusterHarness", "ClusterView"]


class _ClusterCoalesceTelemetry:
    """Summed coalescer counters across the cluster's gateways (the
    driver reads ``requests``/``flushes`` for its report)."""

    def __init__(self, gateways: dict[str, MembershipGateway]) -> None:
        self._gateways = gateways

    @property
    def requests(self) -> int:
        return sum(g.coalesce_telemetry.requests for g in self._gateways.values())

    @property
    def flushes(self) -> int:
        return sum(g.coalesce_telemetry.flushes for g in self._gateways.values())


class ClusterView:
    """Gateway-shaped facade over a whole cluster.

    Exposes the attribute surface the adversarial traffic driver (and
    the reporting helpers) expect from one gateway -- total shard count,
    the item router, white-box shard views, lifecycle/telemetry/rotation
    aggregates -- with every per-shard access routed to the owning
    gateway through the authoritative ownership map.  Serving calls go
    through a routing client, so redirects behave exactly as they would
    for an external caller.
    """

    def __init__(self, harness: "ClusterHarness") -> None:
        self._harness = harness
        self._client = harness.client()
        self.picker = harness.picker
        self.coalesce_telemetry = _ClusterCoalesceTelemetry(harness.gateways)

    # -- sizing and routing -------------------------------------------

    @property
    def shards(self) -> int:
        """The *global* shard count (what the router picks over)."""
        return self._harness.ownership.total_shards

    @property
    def total_shards(self) -> int:
        return self._harness.ownership.total_shards

    @property
    def max_batch(self) -> int | None:
        """The tightest per-gateway admission burst (``None`` when every
        gateway is unlimited)."""
        limits = [
            g.max_batch
            for g in self._harness.gateways.values()
            if g.max_batch is not None
        ]
        return min(limits) if limits else None

    def shard_of(self, item: str | bytes) -> int:
        return self.picker.pick(item, self.shards)

    def _owning_gateway(self, shard_id: int) -> MembershipGateway:
        return self._harness.gateways[
            self._harness.ownership.owner_of(shard_id)
        ]

    def shard_view(self, shard_id: int):
        """The owning gateway's white-box view of one global shard."""
        return self._owning_gateway(shard_id).shard_view(shard_id)

    def shard_state(self, shard_id: int):
        return self._owning_gateway(shard_id).shard_state(shard_id)

    # -- serving (routed) ---------------------------------------------

    async def insert(self, item, client: str = "anon") -> bool:
        return await self._client.insert(item, client=client)

    async def query(self, item, client: str = "anon") -> bool:
        return await self._client.query(item, client=client)

    async def insert_batch(self, items, client: str = "anon") -> list[bool]:
        return await self._client.insert_batch(items, client=client)

    async def query_batch(self, items, client: str = "anon") -> list[bool]:
        return await self._client.query_batch(items, client=client)

    # -- aggregates ----------------------------------------------------

    @property
    def lifecycle(self) -> list:
        """Every shard's lifecycle state, ordered by global shard id."""
        out = []
        for shard_id in range(self.shards):
            gateway = self._owning_gateway(shard_id)
            out.append(gateway.lifecycle[gateway._slots[shard_id]])
        return out

    @property
    def rotations(self) -> int:
        return sum(g.rotations for g in self._harness.gateways.values())

    @property
    def rotation_log(self) -> list:
        """All gateways' rotation events, ordered by op epoch."""
        events = [
            event
            for gateway in self._harness.gateways.values()
            for event in gateway.rotation_log
        ]
        events.sort(key=lambda event: event.op_epoch)
        return events

    def snapshot(self) -> list:
        """Per-shard snapshots across the cluster, ordered by shard id."""
        rows = [
            snapshot
            for gateway in self._harness.gateways.values()
            for snapshot in gateway.snapshot()
        ]
        rows.sort(key=lambda row: row.shard_id)
        return rows

    def configure_coalescing(self, window_us: int = 0, max_batch: int = 0) -> None:
        for gateway in self._harness.gateways.values():
            gateway.configure_coalescing(window_us, max_batch)

    def render_stats(self) -> str:
        """Cluster-wide stats table plus a per-node ownership line."""
        lines = [render_snapshots(self.snapshot()), ""]
        ownership = self._harness.ownership
        lines.append(f"ownership epoch {ownership.epoch}:")
        for node in ownership.nodes():
            shards = ",".join(str(s) for s in ownership.shards_of(node))
            lines.append(f"  {node}: shards [{shards or '-'}]")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ClusterView nodes={len(self._harness.gateways)} "
            f"shards={self.shards} epoch={self._harness.ownership.epoch}>"
        )


class ClusterHarness:
    """Build and run one multi-gateway cluster on the current loop.

    Parameters
    ----------
    nodes:
        Gateway node names (ring membership).
    total_shards:
        Size of the global shard space split across the nodes.
    config:
        Per-gateway deployment knobs (geometry, rotation policy,
        admission, the item router).  The backend must be ``"local"`` --
        handoff moves backend slots dynamically, which the process pool
        does not support.
    ring_picker:
        Hash behind the *placement* ring (shard id -> node).  Public
        Murmur by default; pass a
        :class:`~repro.service.cluster.ring.KeyedShardPicker` to hide
        placement from the adversary.  Independent of the item router.
    vnodes:
        Virtual points per node on the ring.
    mode:
        ``"inproc"`` (default) or ``"tcp"`` (each gateway behind its own
        loopback server; requires :meth:`start`).
    """

    def __init__(
        self,
        nodes: Sequence[str],
        total_shards: int,
        config: ServiceConfig | None = None,
        ring_picker: ShardPicker | None = None,
        vnodes: int = 64,
        mode: str = "inproc",
    ) -> None:
        if mode not in ("inproc", "tcp"):
            raise ParameterError(f"mode must be 'inproc' or 'tcp', got {mode!r}")
        config = config or ServiceConfig()
        if config.backend != "local":
            raise ParameterError(
                "cluster gateways need the local backend: handoff "
                "attaches/detaches shard slots dynamically"
            )
        self.config = config
        self.mode = mode
        self.ring = HashRing(nodes, picker=ring_picker, vnodes=vnodes)
        self.ownership = OwnershipMap.from_ring(self.ring, total_shards)
        # One shared item router: gateways and clients must agree, and a
        # keyed picker with an unpinned key only exists as one object --
        # the first gateway resolves config.router, the rest share it.
        picker: ShardPicker | None = None
        self.gateways: dict[str, MembershipGateway] = {}
        for node in self.ring.nodes:
            gateway = MembershipGateway.from_config(
                config,
                picker=picker,
                shard_ids=self.ownership.shards_of(node),
                total_shards=self.ownership.total_shards,
                name=node,
                ownership=self.ownership,
            )
            picker = gateway.picker
            self.gateways[node] = gateway
        self.picker: ShardPicker = picker
        self._servers: dict[str, object] = {}
        self._server_addresses: dict[str, tuple[str, int]] = {}
        self._clients: list[object] = []
        self._move_lock = asyncio.Lock()
        self._started = mode == "inproc"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "ClusterHarness":
        """Bind the per-node servers (tcp mode; no-op in-process)."""
        if self.mode == "tcp" and not self._started:
            from repro.service.server import MembershipServer

            for node, gateway in self.gateways.items():
                server = MembershipServer(gateway)
                self._server_addresses[node] = await server.start()
                self._servers[node] = server
            self._started = True
        return self

    def client(self, max_redirects: int = 8) -> ClusterClient:
        """A routing client with its own (initially current) ownership
        view; in tcp mode each call opens fresh per-node connections."""
        if not self._started:
            raise ParameterError("start() the tcp harness before client()")
        if self.mode == "inproc":
            transports: dict[str, object] = dict(self.gateways)
        else:
            from repro.service.client import MembershipClient

            transports = {}
            for node, (host, port) in self._server_addresses.items():
                transport = MembershipClient(host, port)
                transports[node] = transport
                self._clients.append(transport)
        return ClusterClient(
            transports,
            self.ownership.copy(),
            picker=self.picker,
            max_redirects=max_redirects,
        )

    @property
    def view(self) -> ClusterView:
        """A fresh gateway-shaped facade over the whole cluster."""
        return ClusterView(self)

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------

    async def move_shard(self, shard_id: int, to_node: str) -> int:
        """Move one shard to ``to_node`` by snapshot handoff.

        The losing gateway exports and drops the shard under its serving
        lock; the gaining gateway restores it byte-identically (over the
        wire in tcp mode); the authoritative map bumps its epoch last,
        so clients racing the move see ``NotOwner`` redirects, never a
        half-moved shard.  Returns the new ownership epoch.  A no-op
        when ``to_node`` already owns the shard.
        """
        if to_node not in self.gateways:
            raise ParameterError(f"unknown node {to_node!r}")
        async with self._move_lock:
            source = self.ownership.owner_of(shard_id)
            if source == to_node:
                return self.ownership.epoch
            epoch = self.ownership.epoch + 1
            block = await self.gateways[source].release_shard(shard_id, epoch)
            try:
                if self.mode == "tcp":
                    from repro.service.client import MembershipClient

                    host, port = self._server_addresses[to_node]
                    courier = MembershipClient(host, port)
                    try:
                        await courier.handoff(shard_id, epoch, block)
                    finally:
                        await courier.aclose()
                else:
                    self.gateways[to_node].adopt_shard(shard_id, epoch, block)
            except Exception:
                # The move failed after release: re-adopt on the source
                # (epoch + 1 beats its own release record) so the shard
                # is never orphaned.  The map never bumped, so clients
                # kept routing to the source all along.
                self.gateways[source].adopt_shard(shard_id, epoch + 1, block)
                raise
            return self.ownership.move(shard_id, to_node)

    async def aclose(self) -> None:
        """Close clients, servers and every gateway's backend."""
        for transport in self._clients:
            closer = getattr(transport, "aclose", None)
            if closer is not None:
                await closer()
        self._clients.clear()
        for server in self._servers.values():
            await server.aclose()
        self._servers.clear()
        for gateway in self.gateways.values():
            gateway.close()

    async def __aenter__(self) -> "ClusterHarness":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ClusterHarness mode={self.mode} nodes={list(self.ring.nodes)} "
            f"shards={self.ownership.total_shards} "
            f"epoch={self.ownership.epoch}>"
        )
