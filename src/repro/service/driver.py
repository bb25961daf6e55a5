"""Adversarial traffic driver: replay paper workloads against the gateway.

Everything before this module attacks a filter object in-process, one
query at a time.  The driver closes the loop to the deployed setting:
several honest clients and an adversary run concurrently as asyncio
tasks against a :class:`~repro.service.gateway.MembershipGateway`, and
the result is reported in service terms -- throughput, rate-limited
calls, rotations, and *attack amplification* (how much better crafted
ghost queries hit than honest false positives).

The adversary model follows the paper: it knows the shard filters' bit
state (white-box) and crafts with :class:`~repro.adversary.pollution.
PollutionAttack` / :class:`~repro.adversary.query.GhostForgery` /
:class:`~repro.adversary.query.LatencyQueryForgery`, but it must route
its items through the same shard router as everyone else.  With the
public :class:`~repro.service.cluster.ring.HashShardPicker` it can aim every
crafted item at one shard; hand the driver a mismatched
``attacker_router`` (the gateway holding a keyed one) and the same
attack sprays shards uselessly.  Crafting re-binds to the *current*
shard filter every chunk, so a rotation silently invalidates the
adversary's accumulated knowledge -- exactly the operational value of
the recycled-filter countermeasure.

Transport is a knob: by default traffic goes straight into the gateway
object (in-process), but any object with the gateway's
``insert_batch``/``query_batch`` signature -- notably
:class:`~repro.service.client.MembershipClient` -- can carry it instead,
so the identical seeded workload replays over TCP against a local or
process-pool backend and the serving overhead becomes measurable.  The
white-box crafting state is always read from the gateway itself: the
paper's adversary knows the filter, however the traffic travels.

The adversary is resource-bounded end to end: hand the driver an
:class:`~repro.adversary.budget.AttackBudget` and all four attack
clients (pollution, ghost, latency, adaptive-ghost) draw from the one
purse -- every brute-force trial is charged by the crafting layer,
every sent item is paced under the request-rate ceiling, and the
wall-clock deadline ends the campaign.  The adaptive-ghost client plays
the Naor-Yogev game: answers from ``query_batch`` feed an
:class:`~repro.adversary.budget.AdaptiveQueryStrategy` whose confirmed
ghosts are re-sent for zero further trials and whose promoted prefixes
concentrate fresh crafting, until a negative answer on a confirmed
ghost betrays a rotation and flushes everything learned.

Rate-limited chunks are *retried* (bounded), never silently skipped:
delivered work, throttled attempts and retry-cap drops are all
accounted separately, so budget arithmetic stays honest.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Protocol

from repro.adversary.budget import AdaptiveQueryStrategy, AttackBudget
from repro.adversary.pollution import PollutionAttack
from repro.adversary.query import GhostForgery, LatencyQueryForgery
from repro.exceptions import (
    AttackBudgetExhausted,
    CraftingBudgetExceeded,
    ParameterError,
)
from repro.service.admission import RateLimited
from repro.service.cluster.ring import ShardPicker
from repro.service.gateway import MembershipGateway
from repro.service.telemetry import ShardSnapshot, render_snapshots
from repro.urlgen.faker import UrlFactory

__all__ = ["ServiceTransport", "TrafficReport", "AdversarialTrafficDriver", "replay"]


class ServiceTransport(Protocol):
    """Anything that can carry the driver's traffic to a gateway."""

    async def insert_batch(
        self, items: list[str | bytes], client: str = "anon"
    ) -> list[bool]: ...

    async def query_batch(
        self, items: list[str | bytes], client: str = "anon"
    ) -> list[bool]: ...


@dataclass
class TrafficReport:
    """Outcome of one mixed honest/adversarial replay."""

    elapsed_s: float = 0.0
    operations: int = 0
    honest_inserts: int = 0
    honest_queries: int = 0
    rate_limited: int = 0
    #: Items abandoned after the bounded retry cap ran out (explicit
    #: drops -- never silently folded into delivered counts).
    send_dropped: int = 0
    pollution_crafted: int = 0
    pollution_trials: int = 0
    crafting_exhausted: int = 0
    #: Attack clients whose campaign hit the shared AttackBudget's wall
    #: (trials drained or deadline passed), at most once per client --
    #: an adaptive client that loses crafting but keeps replaying its
    #: confirmed pool still counts.
    budget_exhausted: int = 0
    ghost_crafted: int = 0
    ghost_queries: int = 0
    ghost_hits: int = 0
    #: The adaptive-ghost client's campaign (the Naor-Yogev player).
    adaptive_crafted: int = 0
    adaptive_queries: int = 0
    adaptive_hits: int = 0
    adaptive_resends: int = 0
    adaptive_flushes: int = 0
    latency_crafted: int = 0
    latency_queries: int = 0
    latency_probes_touched: int = 0
    probe_queries: int = 0
    probe_false_positives: int = 0
    rotations: int = 0
    #: Rotations a composed policy's cool-down wrapper refused during
    #: this replay (summed across shards; 0 without such a policy).
    rotations_suppressed: int = 0
    #: Per-attack-client spend against the shared budget:
    #: label -> {"trials": n, "requests": r}.  Empty without a budget.
    budget_spend: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Machine-readable rotation reasons -> count (from the lifecycle
    #: policy's decisions during this replay).
    rotation_reasons: dict[str, int] = field(default_factory=dict)
    #: Micro-batch coalescing during the replay window (probe excluded):
    #: client sub-batches submitted, merged backend calls issued.  Both
    #: stay 0 when the gateway runs uncoalesced.
    coalesce_requests: int = 0
    coalesce_flushes: int = 0
    snapshots: list[ShardSnapshot] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Gateway operations per wall-clock second of the replay.

        Wall-clock includes the adversary's in-loop crafting time (the
        deployed view of the attack's cost); only the honest-only
        scenario measures pure gateway capacity.
        """
        return self.operations / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def honest_fp_rate(self) -> float:
        """False-positive rate of never-inserted honest probes."""
        if not self.probe_queries:
            return 0.0
        return self.probe_false_positives / self.probe_queries

    @property
    def ghost_hit_rate(self) -> float:
        """Fraction of crafted ghost queries the service answered present."""
        return self.ghost_hits / self.ghost_queries if self.ghost_queries else 0.0

    @property
    def adaptive_hit_rate(self) -> float:
        """Fraction of adaptive-ghost queries answered present."""
        if not self.adaptive_queries:
            return 0.0
        return self.adaptive_hits / self.adaptive_queries

    def hits_per_kilotrial(self, label: str) -> float:
        """Ghost hits per 1000 budgeted trials for one attack client --
        the study's efficiency figure (0.0 without budget accounting)."""
        spend = self.budget_spend.get(label)
        if not spend or not spend.get("trials"):
            return 0.0
        hits = self.adaptive_hits if label == "adaptive" else self.ghost_hits
        return 1000.0 * hits / spend["trials"]

    def trials_per_sec(self, label: str) -> float:
        """Crafting throughput of one attack client: budgeted brute-force
        trials per wall-clock second of the replay (0.0 without budget
        accounting).  Wall-clock is the whole replay's, so this is the
        deployed rate the defender actually faces, not a kernel bench."""
        spend = self.budget_spend.get(label)
        if not spend or not spend.get("trials") or self.elapsed_s <= 0:
            return 0.0
        return spend["trials"] / self.elapsed_s

    @property
    def coalesce_ratio(self) -> float:
        """Client requests absorbed per merged backend call during the
        replay (0.0 when coalescing was off or saw no traffic)."""
        if not self.coalesce_flushes:
            return 0.0
        return self.coalesce_requests / self.coalesce_flushes

    @property
    def latency_mean_probes(self) -> float:
        """Mean bit positions a short-circuit query walks per crafted
        worst-case-latency item (k for a k-index filter, by design)."""
        if not self.latency_crafted:
            return 0.0
        return self.latency_probes_touched / self.latency_crafted

    @property
    def amplification(self) -> float:
        """Ghost hit rate over the honest FP base rate (floored at one
        probe's resolution so an all-negative probe set stays finite).

        With zero probe queries there is no honest baseline at all, so
        the ratio is undefined; 0.0 is returned (and :meth:`render` says
        so) rather than passing the raw hit rate off as "amplification
        x1-denominated"."""
        if not self.ghost_queries or not self.probe_queries:
            return 0.0
        floor = 1.0 / self.probe_queries
        return self.ghost_hit_rate / max(self.honest_fp_rate, floor)

    def render(self) -> str:
        """Human-readable replay summary plus the per-shard table."""
        amplification = (
            "no probe baseline (amplification undefined)"
            if not self.probe_queries
            else f"honest FP rate {self.honest_fp_rate:.4f}, "
            f"amplification x{self.amplification:,.0f}"
        )
        lines = [
            f"elapsed: {self.elapsed_s:.3f}s  "
            f"ops: {self.operations}  throughput: {self.throughput:,.0f} ops/s",
            f"honest: {self.honest_inserts} inserts, {self.honest_queries} queries"
            f"  rate-limited: {self.rate_limited}"
            f"  dropped after retries: {self.send_dropped}",
            f"pollution: {self.pollution_crafted} crafted "
            f"({self.pollution_trials} trials, {self.crafting_exhausted} exhausted)",
            f"ghosts: {self.ghost_hits}/{self.ghost_queries} hit ({amplification})",
            f"latency queries: {self.latency_queries} sent "
            f"({self.latency_mean_probes:.1f} probes walked/crafted item)",
            f"rotations: {self.rotations}"
            + (
                "  ("
                + ", ".join(f"{reason}: {n}" for reason, n in self.rotation_reasons.items())
                + ")"
                if self.rotation_reasons
                else ""
            )
            + (
                f"  suppressed by cooldown: {self.rotations_suppressed}"
                if self.rotations_suppressed
                else ""
            ),
        ]
        if self.adaptive_queries:
            lines.insert(
                5,
                f"adaptive ghosts: {self.adaptive_hits}/{self.adaptive_queries} hit "
                f"({self.adaptive_resends} re-sent from the confirmed pool, "
                f"{self.adaptive_flushes} rotation flush(es))",
            )
        if self.coalesce_flushes:
            lines.append(
                f"coalesced: {self.coalesce_requests} requests -> "
                f"{self.coalesce_flushes} backend calls "
                f"(x{self.coalesce_ratio:.1f} merge)"
            )
        if self.budget_spend:
            spend = ", ".join(
                f"{label}: {counts['trials']} trials / {counts['requests']} requests"
                + (
                    f" ({self.trials_per_sec(label):,.0f} trials/s)"
                    if self.trials_per_sec(label)
                    else ""
                )
                for label, counts in self.budget_spend.items()
            )
            lines.append(
                f"attack budget spend: {spend}"
                + (
                    f"  (stopped {self.budget_exhausted} client(s))"
                    if self.budget_exhausted
                    else ""
                )
            )
        lines += ["", render_snapshots(self.snapshots)]
        return "\n".join(lines)


class AdversarialTrafficDriver:
    """Concurrent replay of honest + adversarial traffic.

    Parameters
    ----------
    gateway:
        The service under test (always the white-box state source).
    seed:
        Base seed; every client derives its own stream from it.
    attacker_router:
        The adversary's view of the shard router.  Defaults to the
        gateway's own picker (public routing = white-box aiming); pass a
        different picker to model a keyed router the adversary can only
        guess at.
    max_trials:
        Per-item crafting budget for pollution/ghost/latency forging.
    craft_chunk:
        Items crafted per re-bind to the live shard filter; small chunks
        track rotations closely, large ones amortise setup.
    backoff:
        Seconds a client sleeps after a :class:`RateLimited` rejection
        before trying again (keeps throttled clients from spinning).
    transport:
        Carrier of the actual traffic; defaults to the gateway itself
        (in-process).  Pass a :class:`~repro.service.client.
        MembershipClient` to replay the same workload over TCP.
    budget:
        Optional shared :class:`~repro.adversary.budget.AttackBudget`
        all attack clients draw from: crafting charges trials, the send
        path paces and counts requests, the deadline ends the campaign.
        Honest clients and the measurement probe are never charged.
    send_retries:
        Bounded retry cap after :class:`RateLimited` rejections; past
        it a chunk is dropped and counted in ``send_dropped`` (so a
        saturated limiter can never hang the replay, and nothing is
        dropped silently).
    craft_patience:
        How many consecutive *empty* craft chunks an attack client
        tolerates (sleeping ``backoff`` between attempts) before giving
        up on its campaign.  The default ``0`` keeps the historical
        behaviour -- one dry chunk ends the client.  A patient attacker
        (the defence-frontier search models one) sets this positive so
        a rotation-emptied shard does not end the campaign outright:
        crafting resumes once concurrent honest traffic refills the
        bits.  Budget exhaustion is unaffected -- a drained purse ends
        the client whatever the patience.
    """

    def __init__(
        self,
        gateway: MembershipGateway,
        seed: int = 0,
        attacker_router: ShardPicker | None = None,
        max_trials: int = 250_000,
        craft_chunk: int = 8,
        backoff: float = 0.01,
        transport: ServiceTransport | None = None,
        budget: AttackBudget | None = None,
        send_retries: int = 25,
        craft_patience: int = 0,
    ) -> None:
        if craft_chunk <= 0:
            raise ParameterError("craft_chunk must be positive")
        if send_retries < 0:
            raise ParameterError("send_retries must be non-negative")
        if craft_patience < 0:
            raise ParameterError("craft_patience must be non-negative")
        self.gateway = gateway
        self.transport: ServiceTransport = transport if transport is not None else gateway
        self.seed = seed
        self.attacker_router = attacker_router or gateway.picker
        self.max_trials = max_trials
        self.craft_chunk = craft_chunk
        self.backoff = backoff
        self.budget = budget
        self.send_retries = send_retries
        self.craft_patience = craft_patience

    # ------------------------------------------------------------------
    # Adversarial crafting
    # ------------------------------------------------------------------

    def _craft(
        self,
        attack_cls,
        tag: int,
        shard_id: int,
        count: int,
        report: TrafficReport,
        stream=None,
        label: str | None = None,
    ):
        """Craft up to ``count`` items with ``attack_cls`` aimed at
        ``shard_id``, judged against the shard's *current* filter state.

        Candidates come from a factory seeded ``self.seed ^ tag``
        (``stream(factory)`` when given, its plain stream otherwise),
        filtered down to the URLs the *attacker's* router maps to
        ``shard_id`` -- picking over the global shard space, as the
        gateway routes, even when it owns a subset.  The routed stream
        is a per-item iterator, so the engine pulls it exactly.

        A per-item cap (``max_trials``) ends the chunk and counts in
        ``report.crafting_exhausted``.  A drained purse also ends it;
        the items crafted before are paid for and returned, and only an
        empty chunk re-raises, so the attack loop can record the stop.
        Returns ``(items, trials, attack)``: ``trials`` includes the
        spend of a search cut short.
        """
        factory = UrlFactory(seed=self.seed ^ tag)
        candidates = factory.candidate_stream() if stream is None else stream(factory)
        pick = self.attacker_router.pick
        shards = self.gateway.total_shards
        attack = attack_cls(
            self.gateway.shard_view(shard_id),
            candidates=(url for url in candidates if pick(url, shards) == shard_id),
            max_trials=self.max_trials,
            budget=self.budget,
            label=label,
        )
        items: list[str] = []
        trials = 0
        for _ in range(count):
            try:
                result = attack.craft_one()
            except CraftingBudgetExceeded as exc:
                report.crafting_exhausted += 1
                trials += exc.trials
                break
            except AttackBudgetExhausted as exc:
                if not items:
                    raise
                trials += exc.trials
                break
            items.append(result.item)
            trials += result.trials
        return items, trials, attack

    def craft_pollution(
        self, shard_id: int, count: int, report: TrafficReport, seed_offset: int = 0
    ) -> list[str]:
        """Craft up to ``count`` polluting items aimed at ``shard_id``,
        judged against the shard's *current* filter state."""
        try:
            items, trials, _ = self._craft(
                PollutionAttack, 0xA77AC3 ^ seed_offset, shard_id, count, report
            )
        except AttackBudgetExhausted as exc:
            # Trials spent by the aborted search were charged to the
            # budget, so the report must see them too -- the two ledgers
            # stay reconcilable.
            report.pollution_trials += exc.trials
            raise
        report.pollution_trials += trials
        report.pollution_crafted += len(items)
        return items

    def craft_ghosts(
        self, shard_id: int, count: int, report: TrafficReport, seed_offset: int = 0
    ) -> list[str]:
        """Craft up to ``count`` ghost (false-positive) queries for
        ``shard_id``'s current filter."""
        items, _, _ = self._craft(
            GhostForgery, 0x6057 ^ seed_offset, shard_id, count, report
        )
        report.ghost_crafted += len(items)
        return items

    def craft_adaptive_ghosts(
        self,
        shard_id: int,
        count: int,
        strategy: AdaptiveQueryStrategy,
        report: TrafficReport,
        seed_offset: int = 0,
    ) -> list[str]:
        """Craft up to ``count`` fresh ghosts with the adaptive
        strategy's candidate stream (concentrated on promoted prefixes)."""
        items, _, _ = self._craft(
            GhostForgery,
            0xADA9 ^ seed_offset,
            shard_id,
            count,
            report,
            stream=strategy.candidates,
            label="adaptive",
        )
        report.adaptive_crafted += len(items)
        return items

    def craft_latency_queries(
        self, shard_id: int, count: int, report: TrafficReport, seed_offset: int = 0
    ) -> list[str]:
        """Craft up to ``count`` worst-case-latency queries (k-1 set bits
        then one unset) for ``shard_id``'s current filter."""
        items, _, forgery = self._craft(
            LatencyQueryForgery, 0x1A7EC1 ^ seed_offset, shard_id, count, report
        )
        for item in items:
            report.latency_probes_touched += forgery.probes_touched(
                forgery.target.indexes(item)
            )
        report.latency_crafted += len(items)
        return items

    # ------------------------------------------------------------------
    # Client coroutines
    # ------------------------------------------------------------------

    async def _deliver(
        self,
        send,
        items: list[str],
        report: TrafficReport,
        label: str | None = None,
    ) -> list[bool] | None:
        """Carry one chunk over the transport, retrying on admission.

        A :class:`RateLimited` rejection backs off and *retries the same
        chunk* -- rate-limited traffic used to be silently dropped while
        still counted as delivered, which made any budget arithmetic
        wrong.  The retry cap (``send_retries``) bounds the loop so a
        saturated limiter cannot hang the replay; past it the chunk is
        dropped explicitly into ``report.send_dropped`` and ``None`` is
        returned.  Attack chunks (``label`` set) are paced and counted
        against the shared budget per attempt -- a rejected request was
        still sent.
        """
        for _ in range(self.send_retries + 1):
            if label is not None and self.budget is not None:
                await self.budget.pace(len(items), label)
            try:
                return await send(items)
            except RateLimited:
                report.rate_limited += len(items)
                await asyncio.sleep(self.backoff)
        report.send_dropped += len(items)
        return None

    async def _honest_client(
        self,
        index: int,
        inserts: int,
        queries: int,
        batch: int,
        report: TrafficReport,
    ) -> None:
        """Insert fresh URLs, then query a mix of known and fresh ones."""
        transport = self.transport
        client = f"honest-{index}"
        factory = UrlFactory(seed=self.seed + 7919 * (index + 1))
        inserted: list[str] = []
        attempted = 0
        while attempted < inserts:
            size = min(batch, inserts - attempted)
            chunk = factory.urls(size)
            answers = await self._deliver(
                lambda items: transport.insert_batch(items, client=client),
                chunk,
                report,
            )
            if answers is not None:
                inserted.extend(chunk)
                report.honest_inserts += size
                report.operations += size
            attempted += size
            await asyncio.sleep(0)
        sent = 0
        while sent < queries:
            size = min(batch, queries - sent)
            half = size // 2
            known = inserted[sent % max(len(inserted), 1) :][:half] if inserted else []
            fresh = factory.urls(size - len(known))
            chunk = known + fresh
            answers = await self._deliver(
                lambda items: transport.query_batch(items, client=client),
                chunk,
                report,
            )
            if answers is not None:
                report.honest_queries += len(chunk)
                report.operations += len(chunk)
            sent += size
            await asyncio.sleep(0)

    async def _attack_loop(
        self,
        count: int,
        report: TrafficReport,
        craft,
        send,
        on_sent=None,
        label: str = "attack",
    ) -> None:
        """Shared craft/send/backoff chunk loop of every attack client.

        ``craft(size, chunk_index)`` re-binds to the live shard filter
        each chunk (so rotations reset the adversary's knowledge),
        ``send(items)`` carries one crafted chunk over the transport
        (retried on admission, paced under the budget's rate ceiling),
        and ``on_sent(items, answers)`` does the per-attack accounting;
        the admitted-operation / rate-limited / budget bookkeeping is
        identical for all of them and lives here once.  A drained
        :class:`~repro.adversary.budget.AttackBudget` (trials or
        deadline) ends the client, is counted once in
        ``report.budget_exhausted``, and is reported back (``True``) so
        a caller that already absorbed an earlier budget wall can avoid
        counting the same client twice.
        """
        chunk = self.craft_chunk
        if self.gateway.max_batch is not None:
            chunk = min(chunk, self.gateway.max_batch)
        sent = 0
        chunk_index = 0
        dry_chunks = 0
        while sent < count:
            size = min(chunk, count - sent)
            try:
                items = craft(size, chunk_index)
            except AttackBudgetExhausted:
                report.budget_exhausted += 1
                return True
            chunk_index += 1
            if not items:
                # A dry chunk usually means the shard just rotated out
                # from under the client (nothing to forge against, pool
                # flushed).  A patient attacker waits for the concurrent
                # traffic to refill the bits and tries again, up to
                # ``craft_patience`` consecutive dry chunks.
                dry_chunks += 1
                if dry_chunks > self.craft_patience:
                    break
                await asyncio.sleep(self.backoff)
                continue
            dry_chunks = 0
            try:
                answers = await self._deliver(send, items, report, label=label)
            except AttackBudgetExhausted:
                report.budget_exhausted += 1
                return True
            if answers is not None:
                if on_sent is not None:
                    on_sent(items, answers)
                report.operations += len(items)
            sent += len(items)
            await asyncio.sleep(0)
        return False

    async def _pollution_client(
        self, target_shard: int, count: int, report: TrafficReport
    ) -> None:
        """Craft-and-insert loop aimed at one shard."""
        await self._attack_loop(
            count,
            report,
            craft=lambda size, index: self.craft_pollution(
                target_shard, size, report, seed_offset=index
            ),
            send=lambda items: self.transport.insert_batch(items, client="attacker"),
            label="pollution",
        )

    async def _wait_for_fill(self, shard_id: int, min_fill: float) -> None:
        """Idle (bounded) until the shard is worth forging against.

        Forging cost per item is ~``fill^-k`` trials, so crafting against
        a near-empty shard would burn the whole trial budget; honest and
        pollution traffic raise the fill first.  The 5 s bound is real
        wall clock (``time.monotonic``): each iteration's off-thread
        state probe can take arbitrarily long on a busy process backend,
        so counting iterations would stretch the bound unboundedly.
        """
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if self.budget is not None and self.budget.expired:
                break  # campaign over: nothing left to wait for
            # Off-thread: a process backend answers over a pipe that may
            # be busy with an in-flight batch, and this poll must not
            # stall the event loop (and with it, that very batch).
            state = await asyncio.to_thread(self.gateway.shard_state, shard_id)
            if state.fill_ratio >= min_fill:
                # The off-thread probe yielded the loop, so a concurrent
                # client may have tipped the shard over its rotation
                # threshold while this coroutine waited to resume -- the
                # reading above can be stale.  Confirm synchronously:
                # between this check and the caller's craft there is no
                # await point, so the fill the caller forges against is
                # the fill confirmed here.
                if self.gateway.shard_state(shard_id).fill_ratio >= min_fill:
                    break
                continue
            await asyncio.sleep(0.005)

    async def _ghost_client(
        self,
        target_shard: int,
        count: int,
        min_fill: float,
        report: TrafficReport,
    ) -> None:
        """Fire crafted false-positive queries once the shard fills."""
        await self._wait_for_fill(target_shard, min_fill)

        def on_sent(items: list[str], answers: list[bool]) -> None:
            report.ghost_queries += len(items)
            report.ghost_hits += sum(answers)

        await self._attack_loop(
            count,
            report,
            craft=lambda size, index: self.craft_ghosts(
                target_shard, size, report, seed_offset=index
            ),
            send=lambda items: self.transport.query_batch(items, client="ghost"),
            on_sent=on_sent,
            label="ghost",
        )

    async def _adaptive_ghost_client(
        self,
        target_shard: int,
        count: int,
        min_fill: float,
        report: TrafficReport,
    ) -> None:
        """The Naor-Yogev player: ghost queries with answer feedback.

        Every answer flows into an :class:`~repro.adversary.budget.
        AdaptiveQueryStrategy`: confirmed ghosts are re-sent (zero
        further trials per hit), their prefixes concentrate fresh
        crafting, and a negative answer on a confirmed ghost (a
        rotation's fingerprint) flushes the learned state.  Under a
        trial-bounded budget this client keeps milking its confirmed
        pool after crafting becomes unaffordable -- exactly the
        adaptive advantage the static ghost client lacks.
        """
        await self._wait_for_fill(target_shard, min_fill)
        strategy = AdaptiveQueryStrategy(seed=self.seed ^ 0xADA7)
        trials_gone = False

        def craft(size: int, index: int) -> list[str]:
            nonlocal trials_gone
            # Keep discovering while trials last (at least a quarter of
            # each chunk fresh), otherwise replay the confirmed pool.
            fresh_want = 0 if trials_gone else max(1, size // 4)
            resend = strategy.replay_items(size - fresh_want)
            fresh: list[str] = []
            want = size - len(resend)
            if want and not trials_gone:
                try:
                    fresh = self.craft_adaptive_ghosts(
                        target_shard, want, strategy, report, seed_offset=index
                    )
                except AttackBudgetExhausted:
                    # Latch and keep replaying; the client is counted as
                    # budget-hit once, after the loop (never double-
                    # counted if the deadline later ends the loop too).
                    trials_gone = True
                if len(fresh) < want:
                    # Crafting came up short: top the chunk up from the
                    # pool rather than shrinking the request stream.
                    resend += strategy.replay_items(want - len(fresh))
            report.adaptive_resends += len(resend)
            return resend + fresh

        def on_sent(items: list[str], answers: list[bool]) -> None:
            report.adaptive_queries += len(items)
            report.adaptive_hits += sum(answers)
            strategy.observe(items, answers)

        stopped = await self._attack_loop(
            count,
            report,
            craft=craft,
            send=lambda items: self.transport.query_batch(items, client="adaptive"),
            on_sent=on_sent,
            label="adaptive",
        )
        if trials_gone and not stopped:
            # Crafting hit the wall even though pool replay carried on.
            report.budget_exhausted += 1
        report.adaptive_flushes += strategy.flushes

    async def _latency_client(
        self,
        target_shard: int,
        count: int,
        min_fill: float,
        report: TrafficReport,
    ) -> None:
        """Fire worst-case-latency negative queries (paper Section 4.2).

        Each crafted item walks a short-circuiting query through k-1 set
        bits before the final miss -- the per-lookup worst case.  The
        effect is read off the target shard's query latency histogram
        (p99) in the per-shard snapshot table.
        """
        await self._wait_for_fill(target_shard, min_fill)

        def on_sent(items: list[str], answers: list[bool]) -> None:
            report.latency_queries += len(items)

        await self._attack_loop(
            count,
            report,
            craft=lambda size, index: self.craft_latency_queries(
                target_shard, size, report, seed_offset=index
            ),
            send=lambda items: self.transport.query_batch(items, client="latency"),
            on_sent=on_sent,
            label="latency",
        )

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    async def run(
        self,
        honest_clients: int = 3,
        honest_inserts: int = 300,
        honest_queries: int = 300,
        batch: int = 16,
        pollution_inserts: int = 120,
        ghost_queries: int = 32,
        ghost_min_fill: float = 0.3,
        adaptive_ghost_queries: int = 0,
        adaptive_min_fill: float = 0.3,
        latency_queries: int = 0,
        latency_min_fill: float = 0.3,
        target_shard: int = 0,
        probe_queries: int = 400,
    ) -> TrafficReport:
        """Replay the full mixed workload concurrently and report.

        Honest clients and the four attack clients -- the pollution
        attacker, the (static) ghost forger, the worst-case-latency
        forger and the adaptive ghost campaign -- all run as parallel
        tasks, sharing one :class:`~repro.adversary.budget.AttackBudget`
        when the driver holds one; afterwards a quiet probe of fresh
        URLs measures the service-wide honest false-positive rate so the
        report can state the attack amplification.
        """
        if (
            honest_clients < 0
            or pollution_inserts < 0
            or ghost_queries < 0
            or adaptive_ghost_queries < 0
            or latency_queries < 0
        ):
            raise ParameterError("workload sizes must be non-negative")
        # Batches beyond the admission burst can never be admitted; the
        # gateway rejects them outright, so well-behaved clients clamp.
        if self.gateway.max_batch is not None:
            batch = min(batch, self.gateway.max_batch)
        report = TrafficReport()
        rotations_before = self.gateway.rotations
        suppressed_before = sum(life.suppressed for life in self.gateway.lifecycle)
        coalesce_stats = self.gateway.coalesce_telemetry
        coalesce_before = (coalesce_stats.requests, coalesce_stats.flushes)
        per_client_inserts = honest_inserts // max(honest_clients, 1)
        per_client_queries = honest_queries // max(honest_clients, 1)
        tasks = [
            self._honest_client(
                i, per_client_inserts, per_client_queries, batch, report
            )
            for i in range(honest_clients)
        ]
        if pollution_inserts:
            tasks.append(
                self._pollution_client(target_shard, pollution_inserts, report)
            )
        if ghost_queries:
            tasks.append(
                self._ghost_client(target_shard, ghost_queries, ghost_min_fill, report)
            )
        if adaptive_ghost_queries:
            tasks.append(
                self._adaptive_ghost_client(
                    target_shard, adaptive_ghost_queries, adaptive_min_fill, report
                )
            )
        if latency_queries:
            tasks.append(
                self._latency_client(
                    target_shard, latency_queries, latency_min_fill, report
                )
            )
        start = time.perf_counter()
        await asyncio.gather(*tasks)
        # Throughput covers the concurrent replay only; the probe below
        # is measurement, not load, so it stays outside the clock.
        report.elapsed_s = time.perf_counter() - start
        # Coalescing deltas close with the clock, so the ratio describes
        # the measured window, not the probe's uncontended tail.
        report.coalesce_requests = coalesce_stats.requests - coalesce_before[0]
        report.coalesce_flushes = coalesce_stats.flushes - coalesce_before[1]
        # Quiet probe: fresh, never-inserted URLs through the whole service.
        # The probe backs off politely when admission pushes back, so the
        # FP measurement completes even under a strict rate limit.
        probe_factory = UrlFactory(seed=self.seed ^ 0xF0F0F0)
        for offset in range(0, probe_queries, batch):
            chunk = probe_factory.urls(min(batch, probe_queries - offset))
            for _ in range(50):
                try:
                    answers = await self.transport.query_batch(chunk, client="probe")
                except RateLimited:
                    await asyncio.sleep(0.02)
                    continue
                report.probe_queries += len(chunk)
                report.probe_false_positives += sum(answers)
                break
        report.rotations = self.gateway.rotations - rotations_before
        report.rotations_suppressed = (
            sum(life.suppressed for life in self.gateway.lifecycle)
            - suppressed_before
        )
        for event in self.gateway.rotation_log[rotations_before:]:
            key = event.reason or event.policy or "unknown"
            report.rotation_reasons[key] = report.rotation_reasons.get(key, 0) + 1
        report.snapshots = self.gateway.snapshot()
        if self.budget is not None:
            report.budget_spend = {
                label: {"trials": spend.trials, "requests": spend.requests}
                for label, spend in self.budget.spend_by_label().items()
            }
        return report


def replay(
    gateway: MembershipGateway,
    transport: ServiceTransport | None = None,
    **workload,
) -> TrafficReport:
    """Synchronous convenience wrapper around
    :meth:`AdversarialTrafficDriver.run` (fresh event loop)."""
    driver = AdversarialTrafficDriver(gateway, transport=transport)
    return asyncio.run(driver.run(**workload))
