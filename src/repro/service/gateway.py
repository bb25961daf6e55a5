"""The membership gateway: N filter shards behind one serving API.

This is the serving layer the paper's attacks assume exists: a network
membership service (Squid digest peer, dupefilter RPC, spam-check
endpoint) fronting Bloom filters and fed by untrusted clients.  The
gateway hash-partitions the key space across shards, serialises access
per shard with an ``asyncio.Lock`` (so concurrent batches interleave
across shards but never corrupt one), records per-shard telemetry, and
runs admission control -- rate limiting on the way in, policy-driven
shard rotation (see :mod:`repro.service.lifecycle`) on the way out.

Since the layered refactor the gateway no longer owns its filters: a
:class:`~repro.service.backends.ShardBackend` does.  The default
:class:`~repro.service.backends.LocalBackend` keeps them in-process (the
original arrangement); a :class:`~repro.service.backends.
ProcessPoolBackend` runs each shard in its own worker process so the
CPU-bound hashing parallelises across cores.  Every backend returns the
shard's post-operation state with each batch, so rotation decisions cost
no extra hop.

Batches are first-class: ``query_batch``/``insert_batch`` group items by
shard and hand each group to the backend in one lock acquisition, which
is where the hot-path speedup of :mod:`repro.core.bitvector` (and, for
process backends, the per-core parallelism) actually pays off.

Since the cluster tier the gateway serves an *owned subset* of a global
shard space: ``shard_ids`` names the global ids this gateway holds (one
backend slot each) and ``total_shards`` sizes the space the router picks
over.  The default -- all of a ``total_shards``-sized space, identity
slot mapping -- is byte-identical to the single-gateway arrangement.  A
batch routed to an unowned shard raises
:class:`~repro.exceptions.NotOwner` *before any owned shard is touched*
(the server maps it to the ``ST_NOT_OWNER`` redirect), so a stale route
never half-applies a batch.  Ownership moves by snapshot handoff:
:meth:`release_shard` exports the shard's versioned block (bits +
lifecycle + telemetry) under its serving lock and drops the slot,
:meth:`adopt_shard` restores the block byte-identically on the gaining
gateway, and the ownership epoch carried with the handoff rejects
replays.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.bloom import BloomFilter
from repro.core.interfaces import MembershipFilter
from repro.countermeasures.keyed import KeyedBloomFilter, generate_key
from repro.exceptions import NotOwner, ParameterError
from repro.service.admission import ClientRateLimiter, RateLimited
from repro.service.backends import LocalBackend, ProcessPoolBackend, ShardBackend, ShardState
from repro.service.cluster.ring import HashShardPicker, ShardPicker, parse_picker
from repro.service.coalesce import MicroBatchCoalescer
from repro.service.config import ServiceConfig
from repro.service.lifecycle import (
    NeverRotatePolicy,
    RotationPolicy,
    ShardLifecycleState,
    parse_policy,
)
from repro.service.telemetry import (
    CoalesceTelemetry,
    ShardSnapshot,
    ShardTelemetry,
    render_snapshots,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.cluster.ownership import OwnershipMap

__all__ = ["RotationEvent", "MembershipGateway"]


@dataclass(frozen=True)
class RotationEvent:
    """One lifecycle rotation: which shard retired what, when, and why.

    ``op_epoch`` is the gateway-wide monotonic operation count at the
    moment of rotation (a logical clock that survives snapshots, unlike
    wall time); ``policy``/``reason`` name the triggering policy and its
    machine-readable rule so rotation histories can be grouped.
    """

    shard_id: int
    retired_weight: int
    retired_fill: float
    retired_insertions: int
    op_epoch: int = 0
    policy: str = ""
    reason: str = ""


def _config_filter(m: int, k: int, keyed: bool, key: bytes | None) -> MembershipFilter:
    """Module-level shard factory (picklable, so it crosses to workers)."""
    if keyed:
        return KeyedBloomFilter(m, k, key=key)
    return BloomFilter(m, k)


class MembershipGateway:
    """Sharded membership service over any :class:`MembershipFilter`.

    Parameters
    ----------
    filter_factory:
        Zero-argument callable building one shard's filter; used to
        construct the default :class:`~repro.service.backends.
        LocalBackend` (and by it, again on every rotation).  Optional
        when an explicit ``backend`` is supplied.
    shards:
        Number of shards (ignored when ``backend`` is given -- the
        backend's count wins).
    picker:
        Shard router; defaults to the (attackable) public
        :class:`~repro.service.cluster.ring.HashShardPicker`.
    policy:
        Shard rotation policy (see :mod:`repro.service.lifecycle`), e.g.
        ``FillThresholdPolicy(0.5)`` or ``parse_policy("fill:0.5")``;
        defaults to :class:`~repro.service.lifecycle.NeverRotatePolicy`.
    limiter:
        Per-client admission; defaults to unlimited.
    clock:
        Injectable latency clock (tests pin it).
    backend:
        Explicit shard backend; ``None`` builds a ``LocalBackend`` from
        ``filter_factory``.
    coalesce_window_us / coalesce_max_batch:
        Micro-batch coalescing knobs (see :mod:`repro.service.coalesce`).
        ``coalesce_max_batch`` of 0 (the default) disables coalescing --
        the serving path is then byte-identical to the pre-coalescer
        gateway.  When enabled, concurrent sub-batches aimed at the same
        shard merge into one backend call, flushed at ``max_batch``
        items or after ``window_us`` microseconds.
    shard_ids:
        Global shard ids this gateway owns, one backend slot each (in
        slot order).  ``None`` (the default) means "all of them":
        identity mapping over ``total_shards``.  Requires an explicit
        ``total_shards`` when given.
    total_shards:
        Size of the global shard space the router picks over; defaults
        to the owned count (the single-gateway arrangement).
    name:
        Node name, echoed in redirects and cluster reports.
    ownership:
        Optional shared :class:`~repro.service.cluster.ownership.
        OwnershipMap`; when present, ``NotOwner`` errors carry the
        current owner and epoch so clients can re-route in one hop.
    """

    def __init__(
        self,
        filter_factory: Callable[[], MembershipFilter] | None = None,
        shards: int = 4,
        picker: ShardPicker | None = None,
        limiter: ClientRateLimiter | None = None,
        clock: Callable[[], float] = time.perf_counter,
        backend: ShardBackend | None = None,
        policy: RotationPolicy | None = None,
        coalesce_window_us: int = 0,
        coalesce_max_batch: int = 0,
        shard_ids: Sequence[int] | None = None,
        total_shards: int | None = None,
        name: str = "gateway",
        ownership: "OwnershipMap | None" = None,
    ) -> None:
        if backend is None:
            if filter_factory is None:
                raise ParameterError("provide a filter_factory or a backend")
            if shard_ids is None and shards <= 0:
                raise ParameterError(f"shards must be positive, got {shards}")
            backend = LocalBackend(
                filter_factory,
                shards if shard_ids is None else len(tuple(shard_ids)),
            )
        self.backend = backend
        self.filter_factory = filter_factory
        owned = backend.shards
        if shard_ids is None:
            if total_shards is None:
                total_shards = owned
            self.shard_ids = list(range(owned))
        else:
            if total_shards is None:
                raise ParameterError(
                    "shard_ids needs an explicit total_shards (the size of "
                    "the global space the owned subset comes from)"
                )
            self.shard_ids = [int(gid) for gid in shard_ids]
            if len(self.shard_ids) != owned:
                raise ParameterError(
                    f"{len(self.shard_ids)} shard_ids for a backend with "
                    f"{owned} slots"
                )
        if total_shards <= 0:
            raise ParameterError(
                f"total_shards must be positive, got {total_shards}"
            )
        if len(set(self.shard_ids)) != len(self.shard_ids):
            raise ParameterError(f"duplicate shard_ids: {self.shard_ids}")
        for gid in self.shard_ids:
            if not 0 <= gid < total_shards:
                raise ParameterError(
                    f"shard_id {gid} outside the global space "
                    f"[0, {total_shards})"
                )
        self.total_shards = total_shards
        self._slots = {gid: slot for slot, gid in enumerate(self.shard_ids)}
        # Epoch at which each shard was last released -- the replay
        # guard: a handoff may only bring a shard back with a newer one.
        self._released: dict[int, int] = {}
        self.name = name
        self.ownership = ownership
        self.picker = picker or HashShardPicker()
        self.policy = policy if policy is not None else NeverRotatePolicy()
        self.limiter = limiter or ClientRateLimiter(None)
        self._clock = clock
        # All four lists are slot-indexed and always the same length;
        # handoff pops/appends the same index in each, so a slot's lock,
        # counters and lifecycle scratch travel together.
        self._locks = [asyncio.Lock() for _ in self.shard_ids]
        self._telemetry = [ShardTelemetry(gid) for gid in self.shard_ids]
        self.lifecycle = [ShardLifecycleState(gid) for gid in self.shard_ids]
        self.op_epoch = 0
        self.rotation_log: list[RotationEvent] = []
        # One telemetry object outlives configure_coalescing() toggles so
        # report deltas survive an on/off/on comparison run.
        self.coalesce_telemetry = CoalesceTelemetry()
        self._coalescer: MicroBatchCoalescer | None = None
        self.configure_coalescing(coalesce_window_us, coalesce_max_batch)

    @classmethod
    def from_config(
        cls,
        config: ServiceConfig,
        *,
        picker: ShardPicker | None = None,
        shard_ids: Sequence[int] | None = None,
        total_shards: int | None = None,
        name: str = "gateway",
        ownership: "OwnershipMap | None" = None,
    ) -> "MembershipGateway":
        """Build a gateway (backend, filters, router, rotation policy,
        admission) from one config -- the only place a
        :class:`~repro.service.config.ServiceConfig` becomes objects.

        The keyword arguments are placement, not configuration, and
        pass straight through to the constructor: a cluster node owns
        ``shard_ids`` out of ``total_shards`` under ``name``.  ``picker``
        overrides ``config.router`` so the nodes of one cluster can share
        one router object (a keyed router with an unpinned key exists
        only as that object).  The policy is parsed per call, so
        stateful wrappers never share scratch across gateways.

        With ``backend="process"`` the shard factory must be
        deterministic so the workers, the parent's white-box views and
        any snapshot restore all agree -- an unpinned ``filter_key`` is
        therefore resolved to one fresh key *here* (shared by all
        shards) rather than drawn per shard as the local backend does.
        """
        slots = config.shards if shard_ids is None else len(shard_ids)
        process = config.backend == "process"
        key = config.filter_key
        if process and config.keyed_filters and key is None:
            key = generate_key(16)
        factory = partial(
            _config_filter, config.shard_m, config.shard_k, config.keyed_filters, key
        )
        return cls(
            factory,
            shards=slots,
            picker=picker if picker is not None else parse_picker(config.router),
            limiter=ClientRateLimiter(config.rate_limit, config.burst),
            backend=ProcessPoolBackend(factory, slots) if process else None,
            policy=parse_policy(config.rotation_policy),
            coalesce_window_us=config.coalesce_window_us,
            coalesce_max_batch=config.coalesce_max_batch,
            shard_ids=shard_ids,
            total_shards=total_shards,
            name=name,
            ownership=ownership,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shards(self) -> int:
        """Number of shards this gateway currently owns (= backend slots)."""
        return len(self.shard_ids)

    def _not_owner(self, shard_id: int) -> NotOwner:
        """Build the redirect-bearing error for an unowned shard."""
        if self.ownership is not None:
            return NotOwner(
                shard_id,
                epoch=self.ownership.epoch,
                owner=self.ownership.owner_of(shard_id),
            )
        return NotOwner(shard_id)

    def _slot_of(self, shard_id: int) -> int:
        """Backend slot serving global ``shard_id``, or :class:`NotOwner`."""
        if not 0 <= shard_id < self.total_shards:
            raise ParameterError(
                f"shard_id {shard_id} outside the global space "
                f"[0, {self.total_shards})"
            )
        slot = self._slots.get(shard_id)
        if slot is None:
            raise self._not_owner(shard_id)
        return slot

    @property
    def filters(self) -> tuple[MembershipFilter, ...]:
        """Owned filter views in slot order (live objects for a local
        backend, reconstructed copies for a process backend)."""
        return tuple(self.backend.shard_view(s) for s in range(self.shards))

    def shard_view(self, shard_id: int) -> MembershipFilter:
        """One shard's filter view (the white-box adversary's window)."""
        return self.backend.shard_view(self._slot_of(shard_id))

    def shard_state(self, shard_id: int) -> ShardState:
        """One shard's (weight, fill, insertions) without copying bits."""
        return self.backend.state(self._slot_of(shard_id))

    def shard_of(self, item: str | bytes) -> int:
        """Which global shard ``item`` routes to under the current router."""
        return self.picker.pick(item, self.total_shards)

    @property
    def rotations(self) -> int:
        """Total lifecycle rotations across all shards."""
        return len(self.rotation_log)

    @property
    def telemetry(self) -> tuple[ShardTelemetry, ...]:
        """Live per-shard counters (mutated by the serving path)."""
        return tuple(self._telemetry)

    def snapshot(self) -> list[ShardSnapshot]:
        """Frozen per-shard stats (counters + live filter state).

        Synchronous and lock-free: safe when nothing else is touching
        the gateway (reports after a run, single-threaded scripts).  A
        live server must use :meth:`snapshot_async` instead -- calling
        this from a worker thread races the event loop's mutations.
        """
        out = []
        for slot, telemetry in enumerate(self._telemetry):
            state = self.backend.state(slot)
            out.append(
                telemetry.snapshot(
                    state.hamming_weight,
                    state.fill_ratio,
                    recent_positive_rate=self.lifecycle[slot].window_rate(),
                    rotations_suppressed=self.lifecycle[slot].suppressed,
                )
            )
        return out

    async def snapshot_async(self) -> list[ShardSnapshot]:
        """Race-free :meth:`snapshot` for use on the serving loop.

        Each shard is read under its serving lock, so counters, lifecycle
        window and filter state are mutually consistent -- no shard is
        mid-batch (or mid-rotation) while we look at it.  Only the
        potentially-blocking backend ``state`` probe (a pipe round trip
        on a process backend) is pushed to a thread; the counter reads
        happen on the loop, under the lock, where every writer lives.
        """
        out = []
        for gid in list(self.shard_ids):
            slot = self._slots.get(gid)
            if slot is None:  # released while we iterated
                continue
            lock = self._locks[slot]  # travels with the slot if it shifts
            async with lock:
                slot = self._slots.get(gid)
                if slot is None:
                    continue
                telemetry = self._telemetry[slot]
                state = await asyncio.to_thread(self.backend.state, slot)
                out.append(
                    telemetry.snapshot(
                        state.hamming_weight,
                        state.fill_ratio,
                        recent_positive_rate=self.lifecycle[slot].window_rate(),
                        rotations_suppressed=self.lifecycle[slot].suppressed,
                    )
                )
        return out

    def render_stats(self) -> str:
        """Human-readable per-shard stats table plus the rotation log."""
        table = render_snapshots(self.snapshot())
        if not self.rotation_log:
            return table
        lines = [table, "", f"rotation log ({len(self.rotation_log)} events, last 8):"]
        for event in self.rotation_log[-8:]:
            lines.append(
                f"  epoch {event.op_epoch}: shard {event.shard_id} retired "
                f"weight={event.retired_weight} fill={event.retired_fill:.3f} "
                f"n={event.retired_insertions}"
                + (f" [{event.policy}: {event.reason}]" if event.policy else "")
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def export_snapshot(self) -> bytes:
        """Serialise every shard, the rotation log and telemetry into one
        warm-restart payload (see :mod:`repro.service.snapshots`)."""
        from repro.service.snapshots import snapshot_gateway

        return snapshot_gateway(self)

    def restore_snapshot(self, raw: bytes) -> None:
        """Load an :meth:`export_snapshot` payload into this gateway.

        The gateway must be built from the same config (shard count and
        geometry are checked; routing/filter keys are configuration and
        must be pinned for the restored filters to answer identically).
        """
        from repro.service.snapshots import restore_gateway

        restore_gateway(self, raw)

    # ------------------------------------------------------------------
    # Shard handoff (cluster tier)
    # ------------------------------------------------------------------

    async def export_shard_block(self, shard_id: int) -> bytes:
        """Serialise one owned shard's versioned block under its lock.

        The block carries filter bits, lifecycle scratch and telemetry
        (see :func:`repro.service.snapshots.snapshot_shard`); the shard
        keeps serving afterwards.  This is the non-destructive half of a
        handoff -- use :meth:`release_shard` to also drop ownership.
        """
        from repro.service.snapshots import snapshot_shard

        slot = self._slots.get(shard_id)
        if slot is None:
            raise self._not_owner(shard_id)
        lock = self._locks[slot]
        async with lock:
            if self._slots.get(shard_id) is None:
                raise self._not_owner(shard_id)
            return snapshot_shard(self, shard_id)

    async def release_shard(self, shard_id: int, epoch: int) -> bytes:
        """Export ``shard_id``'s block and drop the slot, atomically.

        Runs under the shard's serving lock: any in-flight batch for the
        shard completes first, every later one sees :class:`NotOwner`.
        ``epoch`` is the ownership epoch of the move; it is recorded so
        a replayed handoff cannot re-adopt the shard here without a
        newer epoch.  Returns the block for :meth:`adopt_shard` on the
        gaining gateway.
        """
        from repro.service.snapshots import snapshot_shard

        if epoch <= 0:
            raise ParameterError(f"epoch must be positive, got {epoch}")
        slot = self._slots.get(shard_id)
        if slot is None:
            raise self._not_owner(shard_id)
        lock = self._locks[slot]
        async with lock:
            slot = self._slots.get(shard_id)
            if slot is None:
                raise self._not_owner(shard_id)
            block = snapshot_shard(self, shard_id)
            self._detach_slot(slot)
            self._released[shard_id] = max(
                epoch, self._released.get(shard_id, 0)
            )
        return block

    def _detach_slot(self, slot: int) -> None:
        """Pop the same index from every slot-indexed structure (no
        awaits between pops -- the lists never disagree)."""
        self.shard_ids.pop(slot)
        self._locks.pop(slot)
        self._telemetry.pop(slot)
        self.lifecycle.pop(slot)
        self.backend.detach_shard(slot)
        self._slots = {gid: s for s, gid in enumerate(self.shard_ids)}

    def adopt_shard(self, shard_id: int, epoch: int, block: bytes) -> None:
        """Restore a released shard's block here and start serving it.

        Validates everything *before* mutating any state: the shard must
        not already be owned, must fall inside the global space, the
        epoch must beat the epoch at which this gateway last released
        the shard (replay guard), and the block must parse.  A backend
        restore failure rolls the fresh slot back out, so a poisoned
        block leaves the gateway exactly as it was.
        """
        from repro.service.snapshots import parse_shard_block

        if shard_id in self._slots:
            raise ParameterError(
                f"shard {shard_id} is already served by {self.name!r}"
            )
        if not 0 <= shard_id < self.total_shards:
            raise ParameterError(
                f"shard_id {shard_id} outside the global space "
                f"[0, {self.total_shards})"
            )
        if epoch <= self._released.get(shard_id, 0):
            raise ParameterError(
                f"stale handoff for shard {shard_id}: epoch {epoch} is not "
                f"newer than the release epoch "
                f"{self._released.get(shard_id, 0)}"
            )
        parsed = parse_shard_block(block)
        if parsed.shard_id != shard_id:
            raise ParameterError(
                f"handoff block is for shard {parsed.shard_id}, "
                f"not {shard_id}"
            )
        slot = self.backend.attach_shard()
        try:
            self.backend.restore_shard(slot, parsed.filter_block)
        except Exception:
            self.backend.detach_shard(slot)
            raise
        self.shard_ids.append(shard_id)
        self._locks.append(asyncio.Lock())
        self._telemetry.append(parsed.telemetry)
        self.lifecycle.append(
            ShardLifecycleState.adopt(shard_id, parsed.lifecycle)
        )
        self._slots[shard_id] = slot
        self._released.pop(shard_id, None)

    # ------------------------------------------------------------------
    # Serving API
    # ------------------------------------------------------------------

    @property
    def max_batch(self) -> int | None:
        """Largest admissible batch (the limiter's burst), or ``None``
        when admission is unlimited."""
        return self.limiter.burst if self.limiter.rate is not None else None

    def _admit(self, client: str, tokens: int) -> None:
        limit = self.max_batch
        if limit is not None and tokens > limit:
            # A bucket can never hold more than its burst, so this batch
            # would be rejected forever -- fail loudly and permanently
            # instead of raising the (retryable) RateLimited.
            raise ParameterError(
                f"batch of {tokens} exceeds the admission burst {limit}; "
                "split the batch"
            )
        if not self.limiter.admit(client, tokens):
            raise RateLimited(client)

    def _group_by_shard(
        self, items: Sequence[str | bytes]
    ) -> dict[int, list[int]]:
        """Map global shard id -> positions in ``items`` routed to it."""
        pick = self.picker.pick
        shards = self.total_shards
        groups: dict[int, list[int]] = {}
        for position, item in enumerate(items):
            groups.setdefault(pick(item, shards), []).append(position)
        return groups

    async def _maybe_rotate(
        self, shard_id: int, slot: int, state: ShardState
    ) -> bool:
        """Swap in a fresh filter when the policy says so (lock held).

        ``state`` is the post-operation shard state the backend returned
        with the batch (including the shard's instance age), so the
        policy decision costs no extra hop.
        """
        life = self.lifecycle[slot]
        decision = self.policy.decide(
            life.observe(
                state,
                self.op_epoch,
                include_recent=getattr(self.policy, "needs_recent", True),
            ),
            life,
        )
        if not decision.rotate:
            return False
        self.rotation_log.append(
            RotationEvent(
                shard_id=shard_id,
                retired_weight=state.hamming_weight,
                retired_fill=state.fill_ratio,
                retired_insertions=state.insertions,
                op_epoch=self.op_epoch,
                policy=self.policy.name,
                reason=decision.reason,
            )
        )
        await self.backend.rotate(slot)
        life.reset()
        self._telemetry[slot].rotations += 1
        return True

    async def _run_shard_batch(
        self, shard_id: int, op: str, items: list
    ) -> list[bool]:
        """Run one shard-bound batch under the shard's lock.

        This is *the* serialised section of the serving path -- backend
        call, telemetry, op-epoch advance, lifecycle accounting and the
        rotation decision, in that order -- shared verbatim by the
        direct (uncoalesced) path and the coalescer's merged flushes, so
        merging cannot change what a batch observes or triggers.

        ``shard_id`` is global; the slot is resolved twice -- once to
        find the lock (which travels with the slot if others shift) and
        again under it, so a shard released mid-flight raises
        :class:`NotOwner` instead of landing on whatever moved in.
        """
        clock = self._clock
        slot = self._slots.get(shard_id)
        if slot is None:
            raise self._not_owner(shard_id)
        lock = self._locks[slot]
        async with lock:
            slot = self._slots.get(shard_id)
            if slot is None:
                raise self._not_owner(shard_id)
            start = clock()
            if op == "insert":
                reply = await self.backend.insert_batch(slot, items)
            else:
                reply = await self.backend.query_batch(slot, items)
            elapsed = clock() - start
            telemetry = self._telemetry[slot]
            self.op_epoch += len(items)
            if op == "insert":
                telemetry.inserts += len(items)
                telemetry.insert_latency.record(elapsed)
                self.lifecycle[slot].note_inserts(len(items))
            else:
                positives = sum(reply.answers)
                telemetry.queries += len(items)
                telemetry.positives += positives
                telemetry.query_latency.record(elapsed)
                self.lifecycle[slot].note_queries(len(items), positives)
            # Unlike a fill-only rule, lifecycle policies react to
            # the query stream too (positive-rate spikes, op age), so
            # the decision runs on both paths.  Answers were computed
            # before any swap, so this batch's reply is unaffected.
            await self._maybe_rotate(shard_id, slot, reply.state)
        return reply.answers

    async def _fan_out(
        self, op: str, items: Sequence[str | bytes]
    ) -> list[bool]:
        """Group ``items`` by shard, run every group, reassemble answers.

        Uncoalesced, groups run sequentially under their shard locks --
        the exact pre-coalescer behaviour.  Coalesced, all groups are
        submitted before any is awaited, so one request's shard groups
        can share merged batches with other requests concurrently.
        """
        results: list[bool] = [False] * len(items)
        groups = self._group_by_shard(items)
        # Reject a stale route before touching any shard: either the
        # whole batch lands on owned shards or nothing is mutated.  (The
        # in-flight re-check in _run_shard_batch still guards the racing
        # case where a shard is released after this gate.)
        for shard_id in groups:
            if shard_id not in self._slots:
                raise self._not_owner(shard_id)
        if self._coalescer is None:
            for shard_id, positions in groups.items():
                answers = await self._run_shard_batch(
                    shard_id, op, [items[p] for p in positions]
                )
                for position, answer in zip(positions, answers):
                    results[position] = answer
            return results
        submitted = [
            (positions, self._coalescer.submit(
                shard_id, op, [items[p] for p in positions]
            ))
            for shard_id, positions in groups.items()
        ]
        # gather() retrieves every future even when one fails, so a
        # multi-shard request that dies on one shard leaves no
        # "exception was never retrieved" orphans behind.
        outcomes = await asyncio.gather(
            *(future for _, future in submitted), return_exceptions=True
        )
        for (positions, _), outcome in zip(submitted, outcomes):
            if isinstance(outcome, BaseException):
                raise outcome
            for position, answer in zip(positions, outcome):
                results[position] = answer
        return results

    async def insert(self, item: str | bytes, client: str = "anon") -> bool:
        """Insert one item; returns the filter's ``add`` result."""
        results = await self.insert_batch([item], client=client)
        return results[0]

    async def query(self, item: str | bytes, client: str = "anon") -> bool:
        """Membership query for one item."""
        results = await self.query_batch([item], client=client)
        return results[0]

    async def insert_batch(
        self, items: Sequence[str | bytes], client: str = "anon"
    ) -> list[bool]:
        """Insert a batch; items are grouped per shard and each group is
        dispatched to the backend under that shard's lock.

        Raises :class:`RateLimited` (before touching any shard) when the
        client's token bucket cannot cover the whole batch.
        """
        if not items:
            return []
        self._admit(client, len(items))
        return await self._fan_out("insert", items)

    async def query_batch(
        self, items: Sequence[str | bytes], client: str = "anon"
    ) -> list[bool]:
        """Query a batch; same shard-grouped, lock-per-shard discipline."""
        if not items:
            return []
        self._admit(client, len(items))
        return await self._fan_out("query", items)

    # ------------------------------------------------------------------
    # Coalescing
    # ------------------------------------------------------------------

    @property
    def coalescing(self) -> bool:
        """Whether cross-client micro-batch coalescing is active."""
        return self._coalescer is not None

    def configure_coalescing(self, window_us: int = 0, max_batch: int = 0) -> None:
        """Install (``max_batch > 0``) or remove (``max_batch == 0``) the
        micro-batch coalescer.

        Safe to call between replays: the accumulated
        :attr:`coalesce_telemetry` counters are kept, so before/after
        deltas spanning a toggle stay meaningful.
        """
        if max_batch < 0 or window_us < 0:
            raise ParameterError("coalesce knobs must be non-negative")
        if max_batch == 0:
            if window_us:
                raise ParameterError(
                    "coalesce_window_us needs coalesce_max_batch > 0"
                )
            if self._coalescer is not None:
                self._coalescer.close()
            self._coalescer = None
            return
        self._coalescer = MicroBatchCoalescer(
            self._run_shard_batch,
            window_us=window_us,
            max_batch=max_batch,
            telemetry=self.coalesce_telemetry,
        )

    def coalesce_stats(self) -> dict:
        """Coalescer counters plus current configuration, as one dict."""
        stats = self.coalesce_telemetry.snapshot()
        stats["enabled"] = self._coalescer is not None
        stats["queue_depth"] = (
            self._coalescer.queue_depth if self._coalescer is not None else 0
        )
        return stats

    def close(self) -> None:
        """Release the backend's resources (worker processes etc.)."""
        if self._coalescer is not None:
            self._coalescer.close()
        self.backend.close()

    def __enter__(self) -> "MembershipGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        coalesce = (
            f"window_us={self._coalescer.window_us},"
            f"max_batch={self._coalescer.max_batch}"
            if self._coalescer is not None
            else "off"
        )
        return (
            f"<MembershipGateway {self.name!r} "
            f"shards={self.shards}/{self.total_shards} "
            f"picker={self.picker.name} "
            f"backend={self.backend.name} policy={self.policy.spec()} "
            f"coalesce={coalesce} "
            f"rotations={self.rotations}>"
        )
