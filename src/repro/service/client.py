"""TCP client for the membership service.

Mirrors the gateway's serving API (``insert``/``query``/``insert_batch``/
``query_batch``/``stats``) over the length-prefixed codec, raising the
same exceptions the in-process gateway raises -- so the adversarial
traffic driver can treat a client and a gateway interchangeably (its
``transport`` knob).

The client multiplexes one connection: every request gets a correlation
id, rides the shared socket with up to ``pipeline`` requests in flight,
and is matched to its (possibly out-of-order) reply by id.  Outgoing
frames are write-coalesced -- concurrent callers' requests leave in one
syscall burst -- which is what lets the server's micro-batch coalescer
see them as one backend batch.

A failed connection fails every in-flight request with
:class:`ProtocolError` and is dropped; the next request transparently
opens a fresh one.
"""

from __future__ import annotations

import asyncio

from repro.exceptions import BackendError, NotOwner, ParameterError, ProtocolError
from repro.service.admission import RateLimited
from repro.service.codec import (
    OP_INSERT,
    OP_INSERT_BATCH,
    OP_QUERY,
    OP_QUERY_BATCH,
    OP_STATS,
    ST_INVALID,
    ST_NOT_OWNER,
    ST_OK,
    ST_PROTOCOL,
    ST_RATE_LIMITED,
    BufferedFrameWriter,
    Response,
    # Unused here; perfbench/tracing.py (CODEC_BINDINGS) wraps it by name.
    decode_response,  # noqa: F401
    decode_response_envelope,
    encode_handoff_frame,
    encode_request_frame,
    read_frame,
)

__all__ = ["MembershipClient"]


class _Channel:
    """One multiplexed connection: futures keyed by correlation id."""

    __slots__ = (
        "reader", "writer", "out", "futures", "next_id", "depth",
        "dead", "closing", "reader_task",
    )

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, depth: int
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.out = BufferedFrameWriter(writer)
        self.futures: dict[int, asyncio.Future] = {}
        self.next_id = 0
        self.depth = asyncio.Semaphore(depth)
        self.dead = False
        self.closing = False
        self.reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    def allocate_id(self) -> int:
        """Next correlation id (u32 wraparound; collisions would need
        2^32 requests in flight, depth caps them far earlier)."""
        rid = self.next_id
        self.next_id = (rid + 1) & 0xFFFFFFFF
        return rid

    async def _read_loop(self) -> None:
        """Resolve replies to their futures until the stream ends.

        Any irregularity -- a reply without an envelope, an unknown
        correlation id, a torn frame, EOF with requests in flight -- is a
        protocol failure: everything pending fails and the channel dies.
        The *pairing* is load-bearing here; a misattributed reply would
        silently answer the wrong question.
        """
        try:
            while True:
                raw = await read_frame(self.reader)
                if raw is None:
                    if self.closing and not self.futures:
                        return  # clean shutdown, nothing owed
                    raise ProtocolError(
                        "server closed a pipelined connection"
                        + (" with requests in flight" if self.futures else "")
                    )
                rid, response = decode_response_envelope(raw)
                future = self.futures.get(rid)
                if future is None:
                    raise ProtocolError(f"reply for unknown correlation id {rid}")
                if not future.done():
                    future.set_result(response)
        except (Exception, asyncio.CancelledError) as exc:
            failure = (
                exc
                if isinstance(exc, Exception)
                else ProtocolError("pipelined connection closed")
            )
            self.fail(failure)
            if not isinstance(exc, Exception):
                raise

    def fail(self, exc: Exception) -> None:
        """Mark the channel dead and fail everything in flight."""
        self.dead = True
        for future in self.futures.values():
            if not future.done():
                future.set_exception(exc)
        self.writer.close()

    async def close(self) -> None:
        self.closing = True
        try:
            await self.out.flush()
        except (ConnectionError, OSError):  # pragma: no cover - racing peer
            pass
        self.reader_task.cancel()
        await asyncio.gather(self.reader_task, return_exceptions=True)
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - platform noise
            pass


class MembershipClient:
    """Membership-service client over one multiplexed TCP connection.

    Parameters
    ----------
    host, port:
        The server address (see :meth:`~repro.service.server.
        MembershipServer.start`).
    pipeline:
        Maximum requests in flight on the connection; at least 1.  The
        default matches the server's default ``pipeline_depth``.
    """

    def __init__(self, host: str, port: int, pipeline: int = 32) -> None:
        if pipeline < 1:
            raise ParameterError(f"pipeline must be at least 1, got {pipeline}")
        self.host = host
        self.port = port
        self.pipeline = pipeline
        self._channel: _Channel | None = None
        self._channel_opening: asyncio.Lock | None = None
        self._closed = False

    async def _get_channel(self) -> _Channel:
        if self._closed:
            raise ProtocolError("client is closed")
        # Lazy lock: the client may be constructed outside a loop.
        if self._channel_opening is None:
            self._channel_opening = asyncio.Lock()
        async with self._channel_opening:
            if self._channel is None or self._channel.dead:
                reader, writer = await asyncio.open_connection(self.host, self.port)
                self._channel = _Channel(reader, writer, self.pipeline)
            return self._channel

    async def _send(self, encode, client: str) -> Response:
        """Send one frame built by ``encode(request_id)`` on the channel."""
        while True:
            channel = await self._get_channel()
            await channel.depth.acquire()
            if not channel.dead:
                break
            # Died while we waited for a slot; reopen and retry.
            channel.depth.release()
        rid = channel.allocate_id()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        channel.futures[rid] = future
        try:
            channel.out.send(encode(rid))
            response = await future
        finally:
            channel.futures.pop(rid, None)
            channel.depth.release()
        return self._check(response, client)

    async def _request(self, op: int, items: list, client: str) -> Response:
        return await self._send(
            lambda rid: encode_request_frame(
                op, items, client=client, request_id=rid
            ),
            client,
        )

    @staticmethod
    def _check(response: Response, client: str) -> Response:
        """Map non-OK statuses onto the gateway's exception types."""
        if response.status == ST_OK:
            return response
        if response.status == ST_RATE_LIMITED:
            raise RateLimited(client)
        if response.status == ST_INVALID:
            raise ParameterError(response.message or "invalid request")
        if response.status == ST_PROTOCOL:
            raise ProtocolError(response.message or "protocol violation")
        if response.status == ST_NOT_OWNER:
            redirect = response.redirect
            if redirect is None:  # pragma: no cover - decoder guarantees it
                raise ProtocolError("not-owner response carried no redirect")
            raise NotOwner(
                redirect.shard_id, epoch=redirect.epoch, owner=redirect.owner
            )
        raise BackendError(response.message or "server error")

    # ------------------------------------------------------------------
    # Serving API (gateway-shaped)
    # ------------------------------------------------------------------

    async def insert(self, item: str | bytes, client: str = "anon") -> bool:
        """Insert one item; returns the filter's ``add`` result."""
        response = await self._request(OP_INSERT, [item], client)
        return self._answers(response, 1)[0]

    async def query(self, item: str | bytes, client: str = "anon") -> bool:
        """Membership query for one item."""
        response = await self._request(OP_QUERY, [item], client)
        return self._answers(response, 1)[0]

    async def insert_batch(
        self, items: list[str | bytes], client: str = "anon"
    ) -> list[bool]:
        """Insert a batch; one preallocated frame out, one packed-bit
        frame back."""
        if not items:
            return []
        response = await self._request(OP_INSERT_BATCH, list(items), client)
        return self._answers(response, len(items))

    async def query_batch(
        self, items: list[str | bytes], client: str = "anon"
    ) -> list[bool]:
        """Query a batch; same framing as :meth:`insert_batch`."""
        if not items:
            return []
        response = await self._request(OP_QUERY_BATCH, list(items), client)
        return self._answers(response, len(items))

    async def handoff(
        self, shard_id: int, epoch: int, block: bytes, client: str = "anon"
    ) -> None:
        """Deliver one shard's handoff block to this server's gateway.

        ``block`` comes from the losing gateway's ``release_shard``;
        ``epoch`` is the ownership epoch of the move.  A stale epoch or
        a malformed block raises (:class:`ParameterError` /
        :class:`BackendError`) without the gaining gateway adopting
        anything.
        """
        response = await self._send(
            lambda rid: encode_handoff_frame(
                shard_id, epoch, block, client=client, request_id=rid
            ),
            client,
        )
        self._answers(response, 0)

    async def stats(self, client: str = "anon") -> list[dict]:
        """Per-shard stats snapshots (JSON dicts mirroring
        :class:`~repro.service.telemetry.ShardSnapshot`)."""
        response = await self._request(OP_STATS, [], client)
        if response.stats is None:
            raise ProtocolError("stats response carried no stats")
        return [entry for entry in response.stats if "shard_id" in entry]

    async def server_stats(self, client: str = "anon") -> dict:
        """Server-side counters (connections, protocol errors, pipeline
        depth, coalescer state) from the stats frame's extra entry."""
        response = await self._request(OP_STATS, [], client)
        for entry in response.stats or []:
            if "shard_id" not in entry:
                return entry.get("server", entry)
        return {}

    @staticmethod
    def _answers(response: Response, expected: int) -> list[bool]:
        if response.answers is None or len(response.answers) != expected:
            got = None if response.answers is None else len(response.answers)
            raise ProtocolError(
                f"expected {expected} answers, got {got}"
            )
        return response.answers

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def aclose(self) -> None:
        """Close the connection; later requests raise."""
        self._closed = True
        channel, self._channel = self._channel, None
        if channel is not None:
            await channel.close()

    async def __aenter__(self) -> "MembershipClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MembershipClient {self.host}:{self.port} pipeline={self.pipeline}>"
