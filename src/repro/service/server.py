"""Asyncio TCP front-end for the membership gateway.

Puts an actual protocol on the serving API: clients connect over a
socket, speak the length-prefixed codec of :mod:`repro.service.codec`,
and hit the same admission control, shard routing and telemetry as
in-process callers -- which is exactly the setting the paper's
adversaries assume (a query interface, not an object reference).

Connections are *pipelined*: every frame carries a correlation id (the
codec envelope), is dispatched as its own task, and its reply -- tagged
with the same id -- goes out whenever it is ready, so one connection can
keep up to ``pipeline_depth`` requests in flight and replies may arrive
out of order.  Replies are write-coalesced (buffered, one ``drain()``
per flush).

Error discipline mirrors the gateway's: retryable admission pushback
becomes a ``ST_RATE_LIMITED`` response, permanent misuse (over-burst
batches) becomes ``ST_INVALID``.  A protocol violation forfeits the
stream, not the server: a frame that cannot be decoded (torn,
envelope-less or malformed) has no id to tag a reply with, so the
connection is dropped without one; reusing a correlation id while it is
still in flight gets a ``ST_PROTOCOL`` reply tagged with that id, then
the drop.  Both count in :attr:`MembershipServer.protocol_errors`.
"""

from __future__ import annotations

import asyncio

from repro.exceptions import NotOwner, ParameterError, ProtocolError
from repro.service.admission import RateLimited
from repro.service.codec import (
    OP_HANDOFF,
    OP_INSERT,
    OP_INSERT_BATCH,
    OP_QUERY,
    OP_QUERY_BATCH,
    OP_STATS,
    ST_ERROR,
    ST_INVALID,
    ST_PROTOCOL,
    ST_RATE_LIMITED,
    BufferedFrameWriter,
    Request,
    decode_request_envelope,
    encode_answers_frame,
    encode_error_frame,
    encode_not_owner_frame,
    encode_stats_frame,
    read_frame,
)
from repro.service.gateway import MembershipGateway

__all__ = ["MembershipServer"]


class MembershipServer:
    """Serve a :class:`~repro.service.gateway.MembershipGateway` over TCP.

    Parameters
    ----------
    gateway:
        The gateway to front; the server adds no policy of its own.
    host, port:
        Bind address; port 0 picks an ephemeral port (read it back from
        :attr:`address` after :meth:`start`).
    pipeline_depth:
        How many requests one connection may have in flight
        concurrently; at least 1, which serves one request at a time.
    """

    def __init__(
        self,
        gateway: MembershipGateway,
        host: str = "127.0.0.1",
        port: int = 0,
        pipeline_depth: int = 32,
    ) -> None:
        if pipeline_depth < 1:
            raise ParameterError(
                f"pipeline_depth must be at least 1, got {pipeline_depth}"
            )
        self.gateway = gateway
        self.pipeline_depth = pipeline_depth
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None
        self._handlers: set[asyncio.Task] = set()
        #: Connections accepted over the server's lifetime.
        self.connections = 0
        #: Protocol violations that caused a connection drop.
        self.protocol_errors = 0

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._server is None:
            raise ProtocolError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        if self._server is not None:
            raise ProtocolError("server is already started")
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        return self.address

    async def aclose(self) -> None:
        """Stop accepting, drop open connections, close the socket."""
        if self._server is None:
            return
        self._server.close()
        for task in tuple(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "MembershipServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        peer = writer.get_extra_info("peername")
        default_client = f"{peer[0]}:{peer[1]}" if peer else "tcp"
        replies = BufferedFrameWriter(writer)
        inflight: dict[int, asyncio.Task] = {}
        depth = asyncio.Semaphore(self.pipeline_depth)
        graceful = False
        try:
            while True:
                try:
                    payload = await read_frame(reader)
                    if payload is None:
                        graceful = True
                        break
                    request_id, request = decode_request_envelope(payload)
                except ProtocolError:
                    self.protocol_errors += 1
                    break
                if request_id in inflight:
                    self.protocol_errors += 1
                    replies.send(
                        encode_error_frame(
                            ST_PROTOCOL,
                            f"correlation id {request_id} is already in flight",
                            request_id=request_id,
                        )
                    )
                    break
                # Backpressure: the read loop stalls (and so, via TCP,
                # does the sender) once pipeline_depth dispatches are in
                # flight, instead of buffering unboundedly.
                await depth.acquire()
                inflight[request_id] = asyncio.get_running_loop().create_task(
                    self._serve_pipelined(
                        request, default_client, request_id, replies, inflight, depth
                    )
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-stream; nothing to clean up
        except asyncio.CancelledError:
            pass  # server shutdown drops open connections cleanly
        finally:
            if inflight:
                if not graceful:
                    for job in tuple(inflight.values()):
                        job.cancel()
                await asyncio.gather(*inflight.values(), return_exceptions=True)
            try:
                await replies.flush()
            except asyncio.CancelledError:
                pass  # shutdown mid-flush: the socket is closing anyway
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # a second cancel can land while the socket drains

    async def _serve_pipelined(
        self,
        request: Request,
        default_client: str,
        request_id: int,
        replies: BufferedFrameWriter,
        inflight: dict[int, asyncio.Task],
        depth: asyncio.Semaphore,
    ) -> None:
        """One in-flight request: dispatch, then queue the tagged reply."""
        try:
            replies.send(await self._dispatch(request, default_client, request_id))
        finally:
            inflight.pop(request_id, None)
            depth.release()

    async def _dispatch(
        self, request: Request, default_client: str, request_id: int
    ) -> bytes:
        """Run one decoded request against the gateway; returns a frame
        tagged with ``request_id``."""
        client = request.client or default_client
        try:
            if request.op in (OP_INSERT, OP_INSERT_BATCH):
                answers = await self.gateway.insert_batch(request.items, client=client)
                return encode_answers_frame(answers, request_id=request_id)
            if request.op in (OP_QUERY, OP_QUERY_BATCH):
                answers = await self.gateway.query_batch(request.items, client=client)
                return encode_answers_frame(answers, request_id=request_id)
            if request.op == OP_STATS:
                # snapshot_async() reads each shard under its serving
                # lock (no torn counters while batches are in flight) and
                # pushes the blocking backend state probe to a thread.
                snapshots = await self.gateway.snapshot_async()
                return encode_stats_frame(
                    snapshots, extra=self._server_stats(), request_id=request_id
                )
            if request.op == OP_HANDOFF:
                # Adoption validates epoch and block before touching any
                # state; an empty OK answer frame acknowledges it.
                self.gateway.adopt_shard(
                    request.shard_id, request.epoch, request.block
                )
                return encode_answers_frame([], request_id=request_id)
            return encode_error_frame(
                ST_PROTOCOL, f"unhandled opcode {request.op}", request_id=request_id
            )
        except NotOwner as exc:
            return encode_not_owner_frame(
                exc.shard_id, exc.epoch, exc.owner, request_id=request_id
            )
        except RateLimited as exc:
            return encode_error_frame(ST_RATE_LIMITED, str(exc), request_id=request_id)
        except ParameterError as exc:
            return encode_error_frame(ST_INVALID, str(exc), request_id=request_id)
        except Exception as exc:  # noqa: BLE001 - the server must not die
            return encode_error_frame(
                ST_ERROR, f"{type(exc).__name__}: {exc}", request_id=request_id
            )

    def _server_stats(self) -> dict:
        """The stats frame's server-side extra entry (no ``shard_id``)."""
        return {
            "server": {
                "connections": self.connections,
                "protocol_errors": self.protocol_errors,
                "pipeline_depth": self.pipeline_depth,
                "coalesce": self.gateway.coalesce_stats(),
            }
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "listening" if self._server else "stopped"
        return (
            f"<MembershipServer {state} pipeline_depth={self.pipeline_depth} "
            f"gateway={self.gateway!r}>"
        )
