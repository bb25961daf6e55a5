"""Shard backends: where a gateway's filters actually live.

The gateway used to own its shard filters directly; this module makes
that a pluggable layer so the same serving API can front

* :class:`LocalBackend` -- filters in the gateway's own process (the
  original in-loop arrangement, zero overhead, no parallelism), and
* :class:`ProcessPoolBackend` -- one dedicated worker process per shard,
  batched dispatch over a pipe, so the CPU-bound work (hashing every
  item of a batch, crafting-heavy adversarial streams) runs on as many
  cores as there are shards.

Both speak the same small contract: batched insert/query that return the
answers *and* the shard's post-operation state in one hop (so the
rotation policy never needs a second round trip), plus rotation,
snapshot export/restore, and a white-box ``shard_view`` for the paper's
adversary model and for tests.

Process workers ship batch answers as a packed bitmap (the codec's
``pack_bools``), not a pickled list of bools -- one byte per eight
answers instead of a pickle opcode per answer, which matters once the
gateway's coalescer starts merging many clients' items into one pipe
hop.
"""

from __future__ import annotations

import asyncio
import mmap
import multiprocessing
import os
import sys
import threading
import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.bloom import BloomFilter
from repro.core.interfaces import MembershipFilter
from repro.exceptions import BackendError, ParameterError
from repro.service.admission import filter_state
from repro.service.codec import pack_bools, unpack_bools

__all__ = [
    "ShardState",
    "BatchReply",
    "ShardBackend",
    "LocalBackend",
    "ProcessPoolBackend",
    "shared_memory_supported",
]


@dataclass(frozen=True)
class ShardState:
    """Point-in-time filter state of one shard.

    Field names deliberately mirror :class:`~repro.core.bloom.
    BloomFilter` properties so :func:`~repro.service.admission.
    filter_state` (and hence a fill-threshold rotation policy) reads a
    state the same way it reads a live filter.  ``age_ops`` is the
    backend-side operation count (inserts + queries) applied to the
    shard's *current* filter instance -- it travels back with every
    batch so lifecycle policies get their age observation in the same
    single hop as the answers, and it restarts at zero whenever the
    instance is rebuilt (rotation) or overwritten (snapshot restore).
    """

    hamming_weight: int
    fill_ratio: float
    insertions: int
    age_ops: int = 0


@dataclass(frozen=True)
class BatchReply:
    """Answers of one batched operation plus the shard's state after it."""

    answers: list[bool]
    state: ShardState


def _state_of(filt: MembershipFilter, age_ops: int = 0) -> ShardState:
    weight, fill = filter_state(filt)
    return ShardState(
        hamming_weight=weight,
        fill_ratio=fill,
        insertions=len(filt),
        age_ops=age_ops,
    )


class ShardBackend(ABC):
    """N filter shards behind a uniform batched interface.

    The batched operations are async (a process backend awaits a worker
    round trip); the state/snapshot accessors are sync -- they are used
    by telemetry, the adversary's white-box probes and persistence, all
    off the latency-critical path.
    """

    #: Number of shards this backend serves.
    shards: int
    #: Display name for reports ("local", "process-pool").
    name: str = "backend"

    @abstractmethod
    async def insert_batch(self, shard_id: int, items: Sequence[str | bytes]) -> BatchReply:
        """Apply ``add_batch`` on one shard; answers + post-op state."""

    @abstractmethod
    async def query_batch(self, shard_id: int, items: Sequence[str | bytes]) -> BatchReply:
        """Apply ``contains_batch`` on one shard; answers + post-op state."""

    @abstractmethod
    async def rotate(self, shard_id: int) -> None:
        """Replace one shard's filter with a fresh factory build."""

    @abstractmethod
    def state(self, shard_id: int) -> ShardState:
        """Current filter state of one shard (cheap, lock-free probe)."""

    @abstractmethod
    def export_shard(self, shard_id: int) -> bytes:
        """Serialise one shard via the stable core snapshot header."""

    @abstractmethod
    def restore_shard(self, shard_id: int, raw: bytes) -> None:
        """Load a snapshot payload into one shard (geometry-checked)."""

    @abstractmethod
    def shard_view(self, shard_id: int) -> MembershipFilter:
        """A filter exposing the shard's current bit state.

        For a local backend this is the live filter itself; for a
        process backend it is a reconstructed copy (the white-box
        adversary's view -- mutating it does not touch the shard).
        """

    def attach_shard(self) -> int:
        """Grow the backend by one fresh shard slot; returns its id.

        The cluster tier's snapshot-handoff target: a gateway adopting a
        shard attaches a slot, then restores the handed-off block into
        it.  Backends without dynamic membership raise
        :class:`~repro.exceptions.BackendError` (the process pool pins
        one worker per slot at build time, so handoff is local-only for
        now).
        """
        raise BackendError(
            f"{self.name} backend does not support attaching shard slots"
        )

    def detach_shard(self, slot: int) -> None:
        """Drop one shard slot; slots above it shift down by one.

        Counterpart of :meth:`attach_shard` for the losing side of a
        handoff.  The caller owns the slot-id translation (the gateway
        re-derives its global-to-slot map after every detach).
        """
        raise BackendError(
            f"{self.name} backend does not support detaching shard slots"
        )

    def close(self) -> None:
        """Release backend resources (idempotent; no-op by default)."""

    def _check_shard(self, shard_id: int) -> None:
        if not 0 <= shard_id < self.shards:
            raise ParameterError(
                f"shard_id {shard_id} out of range [0, {self.shards})"
            )

    def __enter__(self) -> "ShardBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} shards={self.shards}>"


def _snapshot_capable(filt: MembershipFilter):
    """Any shard filter carrying the stable snapshot header protocol
    (``BloomFilter`` and ``CountingBloomFilter`` families both do)."""
    if not (hasattr(filt, "snapshot_bytes") and hasattr(filt, "restore_snapshot")):
        raise BackendError(
            f"shard snapshots need a filter with snapshot_bytes/"
            f"restore_snapshot, got {type(filt).__name__}"
        )
    return filt


def _rebuild_view(template: MembershipFilter, raw: bytes) -> MembershipFilter:
    """Reconstruct a white-box filter view from an exported snapshot,
    matching the template's family and (stateless) strategy."""
    from repro.core.counting import CountingBloomFilter

    if isinstance(template, CountingBloomFilter):
        return CountingBloomFilter.from_snapshot(
            raw, strategy=template.strategy, overflow=template.overflow
        )
    return BloomFilter.from_snapshot(raw, strategy=_snapshot_capable(template).strategy)


class LocalBackend(ShardBackend):
    """The original arrangement: shard filters live in this process.

    Zero serving overhead (method calls), full white-box access, no
    parallelism -- everything runs on the event loop's core.
    """

    name = "local"

    def __init__(
        self, filter_factory: Callable[[], MembershipFilter], shards: int
    ) -> None:
        # Zero shards is legal here (a cluster gateway may own nothing
        # until a handoff lands); the gateway's own constructor still
        # rejects zero for the single-gateway arrangement.
        if shards < 0:
            raise ParameterError(f"shards must be non-negative, got {shards}")
        self.shards = shards
        self._factory = filter_factory
        self._filters = [filter_factory() for _ in range(shards)]
        self._ops = [0] * shards

    async def insert_batch(self, shard_id: int, items: Sequence[str | bytes]) -> BatchReply:
        self._check_shard(shard_id)
        filt = self._filters[shard_id]
        answers = filt.add_batch(items)
        self._ops[shard_id] += len(answers)
        return BatchReply(answers=answers, state=_state_of(filt, self._ops[shard_id]))

    async def query_batch(self, shard_id: int, items: Sequence[str | bytes]) -> BatchReply:
        self._check_shard(shard_id)
        filt = self._filters[shard_id]
        answers = filt.contains_batch(items)
        self._ops[shard_id] += len(answers)
        return BatchReply(answers=answers, state=_state_of(filt, self._ops[shard_id]))

    async def rotate(self, shard_id: int) -> None:
        self._check_shard(shard_id)
        self._filters[shard_id] = self._factory()
        self._ops[shard_id] = 0

    def state(self, shard_id: int) -> ShardState:
        self._check_shard(shard_id)
        return _state_of(self._filters[shard_id], self._ops[shard_id])

    def export_shard(self, shard_id: int) -> bytes:
        self._check_shard(shard_id)
        return _snapshot_capable(self._filters[shard_id]).snapshot_bytes()

    def restore_shard(self, shard_id: int, raw: bytes) -> None:
        self._check_shard(shard_id)
        _snapshot_capable(self._filters[shard_id]).restore_snapshot(raw)
        # The instance's op clock restarts: post-restore age is measured
        # from here, any inherited age lives in the gateway's lifecycle.
        self._ops[shard_id] = 0

    def shard_view(self, shard_id: int) -> MembershipFilter:
        self._check_shard(shard_id)
        return self._filters[shard_id]

    def attach_shard(self) -> int:
        self._filters.append(self._factory())
        self._ops.append(0)
        self.shards += 1
        return self.shards - 1

    def detach_shard(self, slot: int) -> None:
        self._check_shard(slot)
        self._filters.pop(slot)
        self._ops.pop(slot)
        self.shards -= 1


# ----------------------------------------------------------------------
# Process-pool backend
# ----------------------------------------------------------------------

#: Directory POSIX shared-memory segments surface under on Linux.
_SHM_DIR = "/dev/shm"


def shared_memory_supported() -> bool:
    """Can snapshots ride per-shard shared-memory segments here?

    The parent owns :class:`multiprocessing.shared_memory.SharedMemory`
    segments; workers attach by mapping the segment's ``/dev/shm`` file
    directly (plain ``mmap``, no resource-tracker involvement -- on
    Python < 3.13 an attaching ``SharedMemory`` object re-registers the
    segment and a ``spawn`` worker's tracker would unlink it from under
    the parent).  That makes the fast path Linux-shaped; elsewhere the
    pipe fallback carries snapshots, bit-identically.
    """
    return sys.platform.startswith("linux") and os.path.isdir(_SHM_DIR)


class _WorkerShmMaps:
    """Worker-side cache of shared-memory attachments, keyed by name."""

    def __init__(self) -> None:
        self._maps: dict[str, mmap.mmap] = {}

    def get(self, name: str) -> mmap.mmap:
        mapped = self._maps.get(name)
        if mapped is None:
            path = os.path.join(_SHM_DIR, name.lstrip("/"))
            with open(path, "r+b") as handle:
                mapped = mmap.mmap(handle.fileno(), 0)
            self._maps[name] = mapped
        return mapped

    def close(self) -> None:
        for mapped in self._maps.values():
            try:
                mapped.close()
            except (BufferError, ValueError):  # pragma: no cover - defensive
                pass
        self._maps.clear()


def _shard_worker_main(conn, filter_factory: Callable[[], MembershipFilter]) -> None:
    """One shard's worker loop: recv an op, run it on the filter, reply.

    Runs until the pipe closes or a ``close`` op arrives.  Errors are
    shipped back as ``("err", message)`` instead of killing the worker,
    so one bad batch cannot take a shard down.
    """
    filt = filter_factory()
    ops = 0
    shm_maps = _WorkerShmMaps()
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):
            break
        try:
            if op == "insert":
                answers = filt.add_batch(payload)
                ops += len(answers)
                reply = (pack_bools(answers), len(answers), _state_of(filt, ops))
            elif op == "query":
                answers = filt.contains_batch(payload)
                ops += len(answers)
                reply = (pack_bools(answers), len(answers), _state_of(filt, ops))
            elif op == "state":
                reply = _state_of(filt, ops)
            elif op == "rotate":
                filt = filter_factory()
                ops = 0
                reply = None
            elif op == "export":
                reply = _snapshot_capable(filt).snapshot_bytes()
            elif op == "export_shm":
                # Write the snapshot straight into the parent-owned
                # segment; only its length crosses the pipe.  A snapshot
                # the segment cannot hold degrades to the pipe reply.
                name, capacity = payload
                snapshot = _snapshot_capable(filt).snapshot_bytes()
                if len(snapshot) <= capacity:
                    mapped = shm_maps.get(name)
                    mapped[: len(snapshot)] = snapshot
                    reply = ("shm", len(snapshot))
                else:
                    reply = ("raw", snapshot)
            elif op == "restore":
                _snapshot_capable(filt).restore_snapshot(payload)
                ops = 0
                reply = None
            elif op == "restore_shm":
                name, size = payload
                mapped = shm_maps.get(name)
                _snapshot_capable(filt).restore_snapshot(bytes(mapped[:size]))
                ops = 0
                reply = None
            elif op == "close":
                conn.send(("ok", None))
                break
            else:
                raise ValueError(f"unknown shard op {op!r}")
            conn.send(("ok", reply))
        except Exception as exc:  # noqa: BLE001 - forwarded to the parent
            try:
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                break
    shm_maps.close()
    conn.close()


def _terminate_processes(processes) -> None:
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=2.0)


def _release_backend_resources(processes, segments) -> None:
    """Terminate workers, then close and unlink the parent-owned
    shared-memory segments (idempotent; used by close() and the GC
    safety-net finalizer)."""
    _terminate_processes(processes)
    for i, segment in enumerate(segments):
        if segment is None:
            continue
        segments[i] = None
        try:
            segment.close()
        except (BufferError, OSError):  # pragma: no cover - defensive
            pass
        try:
            segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - defensive
            pass


class _Worker:
    """Parent-side handle on one shard worker: process, pipe, pipe lock."""

    __slots__ = ("process", "conn", "lock")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        # The pipe carries strictly alternating request/reply pairs; the
        # lock keeps the asyncio batch path and the sync state/snapshot
        # probes from interleaving frames.
        self.lock = threading.Lock()


class ProcessPoolBackend(ShardBackend):
    """One worker process per shard, batched dispatch over pipes.

    Each shard's hashing and bit work runs in its own process, so a
    multi-shard gateway under concurrent batches uses multiple cores --
    the scaling step the ROADMAP asks for.  Per-shard dispatch stays
    batched: one pipe round trip carries a whole ``add_batch``/
    ``contains_batch`` group, which is what keeps the hop affordable.

    Parameters
    ----------
    filter_factory:
        Zero-argument callable building one shard's filter, executed in
        the worker.  It must be *deterministic* (pin any keys): the
        parent builds one template from the same factory to reconstruct
        white-box views, and rotation rebuilds in the worker.  Workers
        start with ``fork`` where available, so any callable works;
        elsewhere the platform default applies and it must be picklable.
    shards:
        Number of worker processes.

    Snapshot export/restore payloads ride per-shard shared-memory
    segments where :func:`shared_memory_supported` says so (only the
    segment name and byte count cross the pipe), and the pipe otherwise
    -- also whenever a segment cannot be created.  Both transfers carry
    identical bytes.
    """

    name = "process-pool"

    def __init__(
        self,
        filter_factory: Callable[[], MembershipFilter],
        shards: int,
    ) -> None:
        if shards <= 0:
            raise ParameterError(f"shards must be positive, got {shards}")
        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            mp_context = multiprocessing.get_context()
        self.shards = shards
        self._template = filter_factory()
        self._workers: list[_Worker] = []
        self._closed = False
        self._shm_enabled = shared_memory_supported()
        self._segments: list = [None] * shards
        self._snapshot_hint: int | None = -1  # -1 = not probed yet
        try:
            for _ in range(shards):
                parent_conn, child_conn = mp_context.Pipe()
                process = mp_context.Process(
                    target=_shard_worker_main,
                    args=(child_conn, filter_factory),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._workers.append(_Worker(process, parent_conn))
        except Exception:
            _terminate_processes([w.process for w in self._workers])
            raise
        # Safety net: if close() is never called, clean up at GC/exit.
        self._finalizer = weakref.finalize(
            self,
            _release_backend_resources,
            [w.process for w in self._workers],
            self._segments,
        )

    # -- shared-memory segment management ------------------------------

    def _snapshot_size_hint(self) -> int | None:
        """Byte size of one shard snapshot (geometry-fixed, so probed
        once on the template); ``None`` for non-snapshot filters."""
        if self._snapshot_hint == -1:
            try:
                self._snapshot_hint = len(
                    _snapshot_capable(self._template).snapshot_bytes()
                )
            except BackendError:
                self._snapshot_hint = None
        return self._snapshot_hint

    def _segment_for(self, shard_id: int, min_size: int | None = None):
        """The shard's shared segment, created or regrown to hold at
        least ``min_size`` bytes; ``None`` when shm cannot be used."""
        if min_size is None:
            min_size = self._snapshot_size_hint()
            if min_size is None:
                return None
        segment = self._segments[shard_id]
        if segment is not None and segment.size >= min_size:
            return segment
        if segment is not None:
            self._segments[shard_id] = None
            segment.close()
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
        from multiprocessing import shared_memory

        try:
            segment = shared_memory.SharedMemory(create=True, size=max(min_size, 1))
        except (OSError, ValueError):  # pragma: no cover - /dev/shm exhausted
            self._shm_enabled = False
            return None
        self._segments[shard_id] = segment
        return segment

    # -- pipe protocol -------------------------------------------------

    def _send_recv(self, shard_id: int, worker: _Worker, op: str, payload):
        """One request/reply exchange; the caller holds ``worker.lock``."""
        try:
            worker.conn.send((op, payload))
            status, reply = worker.conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise BackendError(
                f"shard {shard_id} worker is gone ({exc!r})"
            ) from exc
        if status == "err":
            raise BackendError(f"shard {shard_id} worker failed: {reply}")
        return reply

    def _roundtrip(self, shard_id: int, op: str, payload=None):
        self._check_shard(shard_id)
        if self._closed:
            raise BackendError("backend is closed")
        worker = self._workers[shard_id]
        with worker.lock:
            return self._send_recv(shard_id, worker, op, payload)

    async def insert_batch(self, shard_id: int, items: Sequence[str | bytes]) -> BatchReply:
        packed, count, state = await asyncio.to_thread(
            self._roundtrip, shard_id, "insert", list(items)
        )
        return BatchReply(unpack_bools(packed, count), state)

    async def query_batch(self, shard_id: int, items: Sequence[str | bytes]) -> BatchReply:
        packed, count, state = await asyncio.to_thread(
            self._roundtrip, shard_id, "query", list(items)
        )
        return BatchReply(unpack_bools(packed, count), state)

    async def rotate(self, shard_id: int) -> None:
        await asyncio.to_thread(self._roundtrip, shard_id, "rotate")

    def state(self, shard_id: int) -> ShardState:
        return self._roundtrip(shard_id, "state")

    def export_shard(self, shard_id: int) -> bytes:
        """Serialise one shard; the payload rides the shard's shared
        segment when available, the pipe otherwise."""
        self._check_shard(shard_id)
        if self._closed:
            raise BackendError("backend is closed")
        segment = self._segment_for(shard_id) if self._shm_enabled else None
        if segment is None:
            return self._roundtrip(shard_id, "export")
        worker = self._workers[shard_id]
        # The segment read happens under the worker lock so a concurrent
        # export/restore on the same shard cannot rewrite it mid-copy.
        with worker.lock:
            kind, value = self._send_recv(
                shard_id, worker, "export_shm", (segment.name, segment.size)
            )
            if kind == "shm":
                return bytes(segment.buf[:value])
        return value  # "raw": the snapshot outgrew the segment

    def restore_shard(self, shard_id: int, raw: bytes) -> None:
        """Load a snapshot; payload transfer mirrors :meth:`export_shard`."""
        self._check_shard(shard_id)
        if self._closed:
            raise BackendError("backend is closed")
        segment = (
            self._segment_for(shard_id, min_size=len(raw))
            if self._shm_enabled and raw
            else None
        )
        if segment is None:
            self._roundtrip(shard_id, "restore", raw)
            return
        worker = self._workers[shard_id]
        with worker.lock:
            segment.buf[: len(raw)] = raw
            self._send_recv(
                shard_id, worker, "restore_shm", (segment.name, len(raw))
            )

    def shard_view(self, shard_id: int) -> MembershipFilter:
        """Reconstruct the shard's filter from an exported snapshot.

        The view shares the parent template's strategy, so it answers
        ``indexes``/``__contains__`` exactly like the worker's filter --
        provided the factory is deterministic (see class docstring).
        """
        raw = self.export_shard(shard_id)
        return _rebuild_view(self._template, raw)

    def close(self) -> None:
        """Shut every worker down (graceful close, then terminate)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            with worker.lock:
                try:
                    worker.conn.send(("close", None))
                    worker.conn.recv()
                except (EOFError, OSError, BrokenPipeError):
                    pass
                worker.conn.close()
        self._finalizer()
