"""Length-prefixed binary wire codec for the membership service.

One frame = a 4-byte big-endian payload length followed by the payload.
Every payload opens with a five-byte *envelope*: the :data:`FRAME_V2`
marker byte and a u32 *correlation id*.  The body follows -- requests
start with an opcode byte, responses with a status byte -- and a reply
echoes its request's id, so one connection carries many requests in
flight and replies may return out of order, matched by id.  Batch
answers travel as packed bits (one byte per eight membership answers),
so a 10k-item query batch replies in ~1.25 KiB.

The marker byte collides with no opcode or status, so a peer still
speaking the envelope-less first generation is rejected loudly (its
payload lacks the marker) instead of misparsed, and such a peer rejects
ours as an unknown opcode/status.  :func:`decode_request` and
:func:`decode_response` parse a bare body; the payload encoders
(:func:`encode_request`, :func:`encode_answers`, ...) build one.  The
``*_frame`` encoders assemble envelope and body in one buffer for the
send path.

The codec is deliberately paranoid: every field read checks the
remaining length, frame lengths are bounded, and any violation raises
:class:`~repro.exceptions.ProtocolError` *before* partial state is acted
on -- an adversarial client is the normal client for this service.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import asdict, dataclass

from repro import accel
from repro.exceptions import ProtocolError
from repro.service.telemetry import ShardSnapshot

__all__ = [
    "FRAME_V2",
    "MAX_FRAME",
    "OP_INSERT",
    "OP_QUERY",
    "OP_INSERT_BATCH",
    "OP_QUERY_BATCH",
    "OP_STATS",
    "OP_HANDOFF",
    "ST_OK",
    "ST_RATE_LIMITED",
    "ST_INVALID",
    "ST_ERROR",
    "ST_PROTOCOL",
    "ST_NOT_OWNER",
    "Redirect",
    "Request",
    "Response",
    "encode_frame",
    "read_frame",
    "BufferedFrameWriter",
    "encode_request",
    "encode_request_frame",
    "decode_request",
    "decode_request_envelope",
    "decode_response_envelope",
    "encode_answers",
    "encode_answers_frame",
    "encode_error",
    "encode_error_frame",
    "encode_handoff_frame",
    "encode_not_owner",
    "encode_not_owner_frame",
    "encode_stats",
    "encode_stats_frame",
    "decode_response",
    "pack_bools",
    "unpack_bools",
]

#: Hard ceiling on one frame's payload (keeps a hostile length prefix
#: from allocating gigabytes); generous for the batch sizes admission
#: control allows.
MAX_FRAME = 4 * 1024 * 1024

# Request opcodes.
OP_INSERT = 1
OP_QUERY = 2
OP_INSERT_BATCH = 3
OP_QUERY_BATCH = 4
OP_STATS = 5
#: Cluster shard handoff: the gaining gateway receives one shard's
#: versioned state block (see :mod:`repro.service.snapshots`).
OP_HANDOFF = 6

_OPS = frozenset(
    {OP_INSERT, OP_QUERY, OP_INSERT_BATCH, OP_QUERY_BATCH, OP_STATS, OP_HANDOFF}
)

# Response status bytes.
ST_OK = 0
ST_RATE_LIMITED = 1
ST_INVALID = 2
ST_ERROR = 3
ST_PROTOCOL = 4
#: Cluster redirect: the addressed gateway does not own the shard; the
#: body carries the shard id, the ownership epoch and the current owner
#: (not a diagnostic message like the other non-OK statuses).
ST_NOT_OWNER = 5

_STATUSES = frozenset(
    {ST_OK, ST_RATE_LIMITED, ST_INVALID, ST_ERROR, ST_PROTOCOL, ST_NOT_OWNER}
)

#: First payload byte of every frame (the envelope marker).  Deliberately
#: outside both the opcode and the status ranges, so an envelope-less
#: payload is told apart from an enveloped one by its first byte.
FRAME_V2 = 0xC2

_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")
_U64 = struct.Struct(">Q")


@dataclass(frozen=True)
class Redirect:
    """Routing hint carried by an ``ST_NOT_OWNER`` response."""

    shard_id: int
    epoch: int
    owner: str


@dataclass(frozen=True)
class Request:
    """A decoded client request.

    ``shard_id``/``epoch``/``block`` are set only for ``OP_HANDOFF``
    requests (which carry no items); every other op leaves them ``None``.
    """

    op: int
    client: str
    items: list[str | bytes]
    shard_id: int | None = None
    epoch: int | None = None
    block: bytes | None = None


@dataclass(frozen=True)
class Response:
    """A decoded server response; exactly one payload field is set."""

    status: int
    answers: list[bool] | None = None
    message: str | None = None
    stats: list[dict] | None = None
    redirect: Redirect | None = None


# ----------------------------------------------------------------------
# Bit packing
# ----------------------------------------------------------------------

def pack_bools(values: list[bool]) -> bytes:
    """Pack booleans into bytes, LSB-first within each byte (numpy
    ``packbits`` lanes when the accel mode allows)."""
    if accel.accelerated(len(values)):
        from repro.core import _kernels

        return _kernels.pack_bools(values)
    out = bytearray((len(values) + 7) // 8)
    for i, value in enumerate(values):
        if value:
            out[i >> 3] |= 1 << (i & 7)
    return bytes(out)


def unpack_bools(raw, count: int) -> list[bool]:
    """Inverse of :func:`pack_bools` for ``count`` values (accepts any
    bytes-like, including a memoryview into the frame buffer)."""
    if len(raw) != (count + 7) // 8:
        raise ProtocolError(
            f"answer bitmap is {len(raw)} bytes for {count} answers"
        )
    if accel.accelerated(count):
        from repro.core import _kernels

        return _kernels.unpack_bools(raw, count)
    return [bool(raw[i >> 3] & (1 << (i & 7))) for i in range(count)]


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def encode_frame(payload: bytes) -> bytes:
    """Prefix a payload with its 4-byte length."""
    if not payload:
        raise ProtocolError("refusing to encode an empty frame")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return _U32.pack(len(payload)) + payload


async def read_frame(reader: asyncio.StreamReader) -> bytes | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`ProtocolError` on a torn header, a zero/oversized
    length, or a payload cut short.
    """
    try:
        header = await reader.readexactly(4)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-header ({len(exc.partial)}/4 bytes)"
        ) from exc
    (length,) = _U32.unpack(header)
    if length == 0:
        raise ProtocolError("zero-length frame")
    if length > MAX_FRAME:
        raise ProtocolError(
            f"frame length {length} exceeds MAX_FRAME={MAX_FRAME}"
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"truncated frame ({len(exc.partial)}/{length} bytes)"
        ) from exc


class BufferedFrameWriter:
    """Write-side counterpart of :func:`read_frame`: coalesce frames.

    ``send`` appends a complete frame to a buffer and (if none is
    running) starts one flusher task; everything that accumulates while
    a ``drain()`` is in flight goes out in the *next* single write --
    so a burst of N pipelined replies costs ~2 syscall rounds instead
    of N write+drain pairs.  Frames are never split or reordered.

    Transport failures are swallowed here (the buffer is dropped); the
    owner notices the dead peer through its read side, which is where
    connection teardown already lives.
    """

    __slots__ = ("_writer", "_buffer", "_flusher")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._buffer: list[bytes] = []
        self._flusher: asyncio.Task | None = None

    def send(self, frame: bytes) -> None:
        """Queue one complete frame; returns immediately."""
        self._buffer.append(frame)
        if self._flusher is None:
            self._flusher = asyncio.get_running_loop().create_task(self._drain())

    async def _drain(self) -> None:
        try:
            while self._buffer:
                chunk = (
                    self._buffer[0]
                    if len(self._buffer) == 1
                    else b"".join(self._buffer)
                )
                self._buffer.clear()
                self._writer.write(chunk)
                await self._writer.drain()
        except (ConnectionError, OSError):
            self._buffer.clear()
        finally:
            # No await points between the loop's empty-buffer check and
            # here (single-threaded loop), so a concurrent send() either
            # saw us running or starts a fresh flusher -- never neither.
            self._flusher = None

    async def flush(self) -> None:
        """Wait until everything queued so far has hit the transport."""
        task = self._flusher
        if task is not None:
            await asyncio.shield(task)


# ----------------------------------------------------------------------
# Cursor-based payload reads (every read is bounds-checked)
# ----------------------------------------------------------------------

class _Cursor:
    """Bounds-checked reader over a payload.

    The payload is wrapped in a :class:`memoryview` once; every
    :meth:`take` returns a zero-copy slice of it and the fixed-width
    readers unpack in place, so parsing a frame allocates nothing but
    the values actually kept.  Callers that store item bytes beyond the
    frame's lifetime copy them explicitly (``bytes(view)``).
    """

    __slots__ = ("raw", "size", "pos")

    def __init__(self, raw) -> None:
        self.raw = memoryview(raw)
        self.size = len(self.raw)
        self.pos = 0

    def take(self, count: int, what: str) -> memoryview:
        end = self.pos + count
        if end > self.size:
            raise ProtocolError(
                f"payload ends inside {what} "
                f"(need {count} bytes at offset {self.pos}, have {self.size - self.pos})"
            )
        chunk = self.raw[self.pos : end]
        self.pos = end
        return chunk

    def u8(self, what: str) -> int:
        if self.pos >= self.size:
            raise ProtocolError(
                f"payload ends inside {what} "
                f"(need 1 bytes at offset {self.pos}, have 0)"
            )
        value = self.raw[self.pos]
        self.pos += 1
        return value

    def u16(self, what: str) -> int:
        return _U16.unpack_from(self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return _U32.unpack_from(self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return _U64.unpack_from(self.take(8, what))[0]

    def peek_u8(self) -> int | None:
        """The next byte without consuming it; ``None`` at payload end."""
        if self.pos >= self.size:
            return None
        return self.raw[self.pos]

    def done(self) -> None:
        if self.pos != self.size:
            raise ProtocolError(
                f"{self.size - self.pos} trailing bytes after payload"
            )


def _decode_text(raw, what: str) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"{what} is not valid UTF-8") from exc


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------

def encode_request(
    op: int, items: list[str | bytes] | None = None, client: str = "anon"
) -> bytes:
    """Encode a request payload (frame it with :func:`encode_frame`)."""
    if op not in _OPS:
        raise ProtocolError(f"unknown opcode {op}")
    if op == OP_HANDOFF:
        raise ProtocolError("handoff requests use encode_handoff_frame")
    items = items or []
    if op in (OP_INSERT, OP_QUERY) and len(items) != 1:
        raise ProtocolError("single-item ops carry exactly one item")
    client_raw = client.encode("utf-8")
    if len(client_raw) > 0xFFFF:
        raise ProtocolError("client id too long")
    parts = [bytes([op]), _U16.pack(len(client_raw)), client_raw, _U32.pack(len(items))]
    for item in items:
        if isinstance(item, str):
            raw, is_text = item.encode("utf-8"), 1
        elif isinstance(item, bytes):
            raw, is_text = item, 0
        else:
            raise ProtocolError(f"items must be str or bytes, got {type(item).__name__}")
        parts.append(bytes([is_text]))
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def _take_envelope(cursor: _Cursor, what: str) -> int:
    """Consume the envelope that opens every payload; the correlation id."""
    marker = cursor.u8("envelope marker")
    if marker != FRAME_V2:
        raise ProtocolError(
            f"{what} lacks the correlation envelope "
            f"(first byte {marker:#04x}, expected {FRAME_V2:#04x})"
        )
    return cursor.u32(f"{what} correlation id")


def decode_request(payload) -> Request:
    """Decode and validate a request body (any bytes-like, no envelope)."""
    return _decode_request_body(_Cursor(payload))


def decode_request_envelope(payload) -> tuple[int, Request]:
    """Decode a request payload: ``(correlation_id, request)``.

    The reply must echo the id, and may return out of order.
    """
    cursor = _Cursor(payload)
    return _take_envelope(cursor, "request"), _decode_request_body(cursor)


def _decode_request_body(cursor: _Cursor) -> Request:
    op = cursor.u8("opcode")
    if op not in _OPS:
        raise ProtocolError(f"unknown opcode {op}")
    client = _decode_text(cursor.take(cursor.u16("client length"), "client id"), "client id")
    if op == OP_HANDOFF:
        shard_id = cursor.u32("handoff shard id")
        epoch = cursor.u64("handoff epoch")
        block_len = cursor.u32("handoff block length")
        if block_len == 0:
            raise ProtocolError("handoff carries an empty shard block")
        # Bounds-checked by the cursor: a hostile length that overruns
        # the payload raises before any allocation.
        block = bytes(cursor.take(block_len, "handoff shard block"))
        cursor.done()
        if epoch == 0:
            raise ProtocolError("handoff epoch must be positive")
        return Request(
            op=op, client=client, items=[],
            shard_id=shard_id, epoch=epoch, block=block,
        )
    count = cursor.u32("item count")
    # Each item costs at least 5 bytes on the wire; a hostile count that
    # cannot fit in the remaining payload is rejected before allocation.
    if count * 5 > cursor.size - cursor.pos:
        raise ProtocolError(f"item count {count} exceeds payload size")
    items: list[str | bytes] = []
    for _ in range(count):
        is_text = cursor.u8("item flag")
        if is_text not in (0, 1):
            raise ProtocolError(f"bad item flag {is_text}")
        raw = cursor.take(cursor.u32("item length"), "item bytes")
        # Items outlive the frame buffer, so binary ones are copied out
        # of the view here -- the only per-item copy on the decode path.
        items.append(_decode_text(raw, "text item") if is_text else bytes(raw))
    cursor.done()
    if op in (OP_INSERT, OP_QUERY) and len(items) != 1:
        raise ProtocolError("single-item ops carry exactly one item")
    if op == OP_STATS and items:
        raise ProtocolError("stats requests carry no items")
    return Request(op=op, client=client, items=items)


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------

def encode_answers(answers: list[bool]) -> bytes:
    """OK response carrying packed membership answers."""
    return bytes([ST_OK]) + _U32.pack(len(answers)) + pack_bools(answers)


def encode_error(status: int, message: str) -> bytes:
    """Non-OK response carrying a diagnostic message.

    ``ST_NOT_OWNER`` is rejected here: its body is a structured redirect
    (:func:`encode_not_owner`), not a message.
    """
    if status not in _STATUSES or status in (ST_OK, ST_NOT_OWNER):
        raise ProtocolError(f"bad error status {status}")
    raw = message.encode("utf-8")
    if len(raw) > 0xFFFF:
        # Truncate on a character boundary so the reply stays valid UTF-8.
        raw = raw[:0xFFFF].decode("utf-8", "ignore").encode("utf-8")
    return bytes([status]) + _U16.pack(len(raw)) + raw


def encode_stats(snapshots: list[ShardSnapshot]) -> bytes:
    """OK response carrying per-shard stats as JSON."""
    raw = json.dumps([asdict(s) for s in snapshots]).encode("utf-8")
    return bytes([ST_OK, 0xFF]) + _U32.pack(len(raw)) + raw


def _not_owner_fields(shard_id: int, epoch: int, owner: str) -> bytes:
    if not 0 <= shard_id <= 0xFFFFFFFF:
        raise ProtocolError(f"shard id {shard_id} outside the u32 range")
    if not 0 <= epoch <= 0xFFFFFFFFFFFFFFFF:
        raise ProtocolError(f"epoch {epoch} outside the u64 range")
    owner_raw = owner.encode("utf-8")
    if len(owner_raw) > 0xFFFF:
        raise ProtocolError("owner name too long")
    return (
        _U32.pack(shard_id)
        + _U64.pack(epoch)
        + _U16.pack(len(owner_raw))
        + owner_raw
    )


def encode_not_owner(shard_id: int, epoch: int, owner: str = "") -> bytes:
    """``ST_NOT_OWNER`` redirect response: shard, epoch, current owner.

    ``epoch`` 0 (with an empty owner) means the gateway has no ownership
    view to share -- the client must fall back to its own map.
    """
    return bytes([ST_NOT_OWNER]) + _not_owner_fields(shard_id, epoch, owner)


# ----------------------------------------------------------------------
# Whole-frame encoders (the zero-copy send path)
# ----------------------------------------------------------------------
#
# The payload encoders above build a bare body.  The ``*_frame``
# variants compute the exact frame size up front, allocate one buffer,
# and pack length prefix, envelope (marker + the required ``request_id``)
# and body straight into it; the server and client send paths hand that
# single buffer to the transport.

def _enveloped_buffer(body_len: int, request_id: int) -> tuple[bytearray, int]:
    """One frame buffer with prefix and envelope packed, plus the body's
    start offset."""
    if not 0 <= request_id <= 0xFFFFFFFF:
        raise ProtocolError(f"correlation id {request_id} outside the u32 range")
    payload_len = 5 + body_len
    if payload_len > MAX_FRAME:
        raise ProtocolError(
            f"frame of {payload_len} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    out = bytearray(4 + payload_len)
    _U32.pack_into(out, 0, payload_len)
    out[4] = FRAME_V2
    _U32.pack_into(out, 5, request_id)
    return out, 9


def encode_request_frame(
    op: int,
    items: list[str | bytes] | None = None,
    client: str = "anon",
    *,
    request_id: int,
) -> bytes:
    """One ready-to-send request frame, assembled in a single buffer."""
    if op not in _OPS:
        raise ProtocolError(f"unknown opcode {op}")
    items = items or []
    if op in (OP_INSERT, OP_QUERY) and len(items) != 1:
        raise ProtocolError("single-item ops carry exactly one item")
    client_raw = client.encode("utf-8")
    if len(client_raw) > 0xFFFF:
        raise ProtocolError("client id too long")
    encoded: list[tuple[int, bytes]] = []
    total = 1 + 2 + len(client_raw) + 4
    for item in items:
        if isinstance(item, str):
            raw, is_text = item.encode("utf-8"), 1
        elif isinstance(item, bytes):
            raw, is_text = item, 0
        else:
            raise ProtocolError(f"items must be str or bytes, got {type(item).__name__}")
        encoded.append((is_text, raw))
        total += 5 + len(raw)
    out, pos = _enveloped_buffer(total, request_id)
    out[pos] = op
    pos += 1
    _U16.pack_into(out, pos, len(client_raw))
    pos += 2
    out[pos : pos + len(client_raw)] = client_raw
    pos += len(client_raw)
    _U32.pack_into(out, pos, len(encoded))
    pos += 4
    for is_text, raw in encoded:
        out[pos] = is_text
        pos += 1
        _U32.pack_into(out, pos, len(raw))
        pos += 4
        out[pos : pos + len(raw)] = raw
        pos += len(raw)
    return bytes(out)


def encode_answers_frame(answers: list[bool], *, request_id: int) -> bytes:
    """One ready-to-send OK frame carrying packed membership answers."""
    bitmap = pack_bools(answers)
    out, pos = _enveloped_buffer(5 + len(bitmap), request_id)
    out[pos] = ST_OK
    _U32.pack_into(out, pos + 1, len(answers))
    out[pos + 5 :] = bitmap
    return bytes(out)


def encode_error_frame(status: int, message: str, *, request_id: int) -> bytes:
    """One ready-to-send non-OK frame carrying a diagnostic message
    (``ST_NOT_OWNER`` uses :func:`encode_not_owner_frame` instead)."""
    if status not in _STATUSES or status in (ST_OK, ST_NOT_OWNER):
        raise ProtocolError(f"bad error status {status}")
    raw = message.encode("utf-8")
    if len(raw) > 0xFFFF:
        # Truncate on a character boundary so the reply stays valid UTF-8.
        raw = raw[:0xFFFF].decode("utf-8", "ignore").encode("utf-8")
    out, pos = _enveloped_buffer(3 + len(raw), request_id)
    out[pos] = status
    _U16.pack_into(out, pos + 1, len(raw))
    out[pos + 3 :] = raw
    return bytes(out)


def encode_stats_frame(
    snapshots: list[ShardSnapshot],
    extra: dict | None = None,
    *,
    request_id: int,
) -> bytes:
    """One ready-to-send OK frame carrying per-shard stats as JSON.

    ``extra`` (a JSON-serialisable dict, e.g. server-level counters) is
    appended to the shard list as one more entry; consumers tell it
    apart from shard rows by the absent ``shard_id`` key.
    """
    rows: list[dict] = [asdict(s) for s in snapshots]
    if extra is not None:
        rows.append(extra)
    raw = json.dumps(rows).encode("utf-8")
    out, pos = _enveloped_buffer(6 + len(raw), request_id)
    out[pos] = ST_OK
    out[pos + 1] = 0xFF
    _U32.pack_into(out, pos + 2, len(raw))
    out[pos + 6 :] = raw
    return bytes(out)


def encode_not_owner_frame(
    shard_id: int, epoch: int, owner: str = "", *, request_id: int
) -> bytes:
    """One ready-to-send ``ST_NOT_OWNER`` redirect frame."""
    fields = _not_owner_fields(shard_id, epoch, owner)
    out, pos = _enveloped_buffer(1 + len(fields), request_id)
    out[pos] = ST_NOT_OWNER
    out[pos + 1 :] = fields
    return bytes(out)


def encode_handoff_frame(
    shard_id: int,
    epoch: int,
    block: bytes,
    client: str = "anon",
    *,
    request_id: int,
) -> bytes:
    """One ready-to-send ``OP_HANDOFF`` request frame.

    ``block`` is the shard's state block from :func:`repro.service.
    snapshots.snapshot_shard`; ``epoch`` is the ownership epoch of the
    move (must be positive -- 0 is the "no view" sentinel).
    """
    if not 0 <= shard_id <= 0xFFFFFFFF:
        raise ProtocolError(f"shard id {shard_id} outside the u32 range")
    if not 1 <= epoch <= 0xFFFFFFFFFFFFFFFF:
        raise ProtocolError(f"handoff epoch {epoch} must be a positive u64")
    if not block:
        raise ProtocolError("handoff carries an empty shard block")
    if not isinstance(block, (bytes, bytearray, memoryview)):
        raise ProtocolError(
            f"handoff block must be bytes, got {type(block).__name__}"
        )
    client_raw = client.encode("utf-8")
    if len(client_raw) > 0xFFFF:
        raise ProtocolError("client id too long")
    block = bytes(block)
    total = 1 + 2 + len(client_raw) + 4 + 8 + 4 + len(block)
    out, pos = _enveloped_buffer(total, request_id)
    out[pos] = OP_HANDOFF
    pos += 1
    _U16.pack_into(out, pos, len(client_raw))
    pos += 2
    out[pos : pos + len(client_raw)] = client_raw
    pos += len(client_raw)
    _U32.pack_into(out, pos, shard_id)
    pos += 4
    _U64.pack_into(out, pos, epoch)
    pos += 8
    _U32.pack_into(out, pos, len(block))
    pos += 4
    out[pos:] = block
    return bytes(out)


def decode_response(payload) -> Response:
    """Decode a response body (answers, stats, or an error; no envelope)."""
    return _decode_response_body(_Cursor(payload))


def decode_response_envelope(payload) -> tuple[int, Response]:
    """Decode a response payload: ``(correlation_id, response)``."""
    cursor = _Cursor(payload)
    return _take_envelope(cursor, "response"), _decode_response_body(cursor)


def _decode_response_body(cursor: _Cursor) -> Response:
    status = cursor.u8("status")
    if status not in _STATUSES:
        raise ProtocolError(f"unknown status byte {status}")
    if status == ST_NOT_OWNER:
        shard_id = cursor.u32("redirect shard id")
        epoch = cursor.u64("redirect epoch")
        owner = _decode_text(
            cursor.take(cursor.u16("redirect owner length"), "redirect owner"),
            "redirect owner",
        )
        cursor.done()
        return Response(
            status=status, redirect=Redirect(shard_id, epoch, owner)
        )
    if status != ST_OK:
        message = _decode_text(
            cursor.take(cursor.u16("message length"), "message"), "message"
        )
        cursor.done()
        return Response(status=status, message=message)
    # OK responses: answers (count + bitmap) or stats (0xFF marker + JSON).
    # Unambiguous: an answer count opening with 0xFF would mean >= 2^32-2^24
    # answers, far beyond what MAX_FRAME can carry.
    if cursor.peek_u8() == 0xFF:
        cursor.u8("stats marker")
        raw = cursor.take(cursor.u32("stats length"), "stats JSON")
        cursor.done()
        try:
            stats = json.loads(_decode_text(raw, "stats JSON"))
        except json.JSONDecodeError as exc:
            raise ProtocolError("stats payload is not valid JSON") from exc
        if not isinstance(stats, list):
            raise ProtocolError("stats payload must be a JSON list")
        return Response(status=ST_OK, stats=stats)
    count = cursor.u32("answer count")
    answers = unpack_bools(cursor.take((count + 7) // 8, "answer bitmap"), count)
    cursor.done()
    return Response(status=ST_OK, answers=answers)
