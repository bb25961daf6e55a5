"""Zero-copy codec path: frame-encoder parity and hostile payloads.

The single-buffer ``*_frame`` encoders must emit byte-identical frames
to the envelope plus the payload encoders' body (``encode_*(...)``),
decoding must accept zero-copy memoryview input, and every malformed
shape -- missing envelope, truncated length prefix, oversized declared
lengths, mid-frame EOF, trailing garbage -- must be rejected with
:class:`ProtocolError` before any allocation or partial state.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.exceptions import ProtocolError
from repro.service.codec import (
    FRAME_V2,
    MAX_FRAME,
    OP_HANDOFF,
    OP_INSERT_BATCH,
    OP_QUERY,
    OP_QUERY_BATCH,
    OP_STATS,
    ST_ERROR,
    ST_NOT_OWNER,
    ST_OK,
    ST_RATE_LIMITED,
    Redirect,
    decode_request,
    decode_request_envelope,
    decode_response,
    decode_response_envelope,
    encode_answers,
    encode_answers_frame,
    encode_error,
    encode_error_frame,
    encode_frame,
    encode_handoff_frame,
    encode_not_owner,
    encode_not_owner_frame,
    encode_request,
    encode_request_frame,
    encode_stats,
    encode_stats_frame,
    read_frame,
)
from repro.service.telemetry import ShardSnapshot


def _snapshots() -> list[ShardSnapshot]:
    return [
        ShardSnapshot(
            shard_id=0,
            inserts=900,
            queries=40,
            positives=5,
            rotations=1,
            weight=800,
            fill_ratio=0.25,
            query_p50_us=12.5,
            query_p99_us=80.0,
        )
    ]


def _enveloped(body: bytes, request_id: int) -> bytes:
    """The reference frame: envelope + ``body``, length-prefixed."""
    return encode_frame(bytes([FRAME_V2]) + request_id.to_bytes(4, "big") + body)


# ----------------------------------------------------------------------
# Frame-encoder parity with the two-step encode path
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "items,client",
    [
        (["a", b"b", "ünicode", b"\x00\xff" * 10], "client-1"),
        ([], "anon"),
        ([b"x" * 1000], ""),
    ],
)
def test_request_frame_parity(items, client):
    assert encode_request_frame(
        OP_INSERT_BATCH, items, client, request_id=3
    ) == _enveloped(encode_request(OP_INSERT_BATCH, items, client), 3)


def test_single_op_frame_parity():
    assert encode_request_frame(OP_QUERY, ["only"], "c", request_id=0) == _enveloped(
        encode_request(OP_QUERY, ["only"], "c"), 0
    )


@pytest.mark.parametrize("answers", [[True], [False] * 9, [True, False] * 50, []])
def test_answers_frame_parity(answers):
    # An empty answer list is a legal frame (count 0, no bitmap).
    assert encode_answers_frame(answers, request_id=8) == _enveloped(
        encode_answers(answers), 8
    )


def test_error_frame_parity():
    message = "rate limited — back off"
    assert encode_error_frame(ST_RATE_LIMITED, message, request_id=4) == _enveloped(
        encode_error(ST_RATE_LIMITED, message), 4
    )


def test_error_frame_truncates_long_messages_identically():
    message = "é" * 40_000  # 2 bytes each, over the u16 cap
    assert encode_error_frame(ST_ERROR, message, request_id=4) == _enveloped(
        encode_error(ST_ERROR, message), 4
    )


def test_stats_frame_parity():
    assert encode_stats_frame(_snapshots(), request_id=6) == _enveloped(
        encode_stats(_snapshots()), 6
    )


def test_frame_encoders_reject_bad_status_and_oversized():
    with pytest.raises(ProtocolError):
        encode_error_frame(ST_OK, "not an error status", request_id=1)
    with pytest.raises(ProtocolError):
        encode_request_frame(
            OP_INSERT_BATCH, [b"x" * (MAX_FRAME + 1)], "c", request_id=1
        )


# ----------------------------------------------------------------------
# Zero-copy decode: memoryview input end to end
# ----------------------------------------------------------------------

def test_decode_request_from_memoryview():
    frame = encode_request_frame(
        OP_INSERT_BATCH, ["t", b"\x01\x02"], "mv-client", request_id=12
    )
    rid, request = decode_request_envelope(memoryview(frame)[4:])
    assert rid == 12
    assert request.client == "mv-client"
    assert request.items == ["t", b"\x01\x02"]
    # Binary items must be real bytes (copied out of the view), so they
    # survive the frame buffer being released.
    assert all(type(i) in (str, bytes) for i in request.items)


def test_decode_response_from_memoryview():
    frame = encode_answers_frame([True, False, True], request_id=2)
    rid, response = decode_response_envelope(memoryview(frame)[4:])
    assert rid == 2
    assert response.status == ST_OK
    assert response.answers == [True, False, True]
    stats_frame = encode_stats_frame(_snapshots(), request_id=3)
    _, response = decode_response_envelope(memoryview(stats_frame)[4:])
    assert response.stats[0]["shard_id"] == 0


# ----------------------------------------------------------------------
# Hostile payloads
# ----------------------------------------------------------------------

def test_truncated_item_length_prefix_rejected():
    """Payload ends inside an item's 4-byte length prefix."""
    # A fat first item keeps the remaining payload large enough to pass
    # the up-front item-count plausibility guard; the cut then lands
    # inside the *second* item's length field.
    payload = encode_request(OP_INSERT_BATCH, [b"a" * 64, b"abcd"], "c")
    cut = payload[: -(4 + 2)]  # drop item bytes and half the u32 length
    with pytest.raises(ProtocolError, match="ends inside item length"):
        decode_request(cut)


def test_oversized_declared_item_length_rejected():
    """An item declaring more bytes than the payload holds."""
    payload = bytearray(encode_request(OP_INSERT_BATCH, [b"abcd"], "c"))
    payload[-8:-4] = (2**31).to_bytes(4, "big")  # item length field
    with pytest.raises(ProtocolError, match="ends inside item bytes"):
        decode_request(bytes(payload))


def test_oversized_declared_item_count_rejected_before_allocation():
    payload = bytearray(encode_request(OP_INSERT_BATCH, [b"abcd"], "c"))
    offset = 1 + 2 + 1  # opcode + client len + client "c"
    payload[offset : offset + 4] = (0xFFFFFFFF).to_bytes(4, "big")
    with pytest.raises(ProtocolError, match="item count"):
        decode_request(bytes(payload))


def test_oversized_declared_client_length_rejected():
    payload = bytearray(encode_request(OP_STATS, [], "c"))
    payload[1:3] = (0xFFFF).to_bytes(2, "big")
    with pytest.raises(ProtocolError, match="ends inside client id"):
        decode_request(bytes(payload))


def test_trailing_garbage_after_request_rejected():
    payload = encode_request(OP_INSERT_BATCH, [b"abcd"], "c") + b"\x00"
    with pytest.raises(ProtocolError, match="trailing"):
        decode_request(payload)


def test_trailing_garbage_after_response_rejected():
    for payload in (
        encode_answers([True, False]) + b"junk",
        encode_error(ST_ERROR, "boom") + b"\x00",
        encode_stats(_snapshots()) + b" ",
    ):
        with pytest.raises(ProtocolError, match="trailing"):
            decode_response(payload)


def test_answer_bitmap_short_read_rejected():
    payload = encode_answers([True] * 16)[:-1]
    with pytest.raises(ProtocolError, match="ends inside answer bitmap"):
        decode_response(payload)


def test_stats_declared_length_overrun_rejected():
    payload = bytearray(encode_stats(_snapshots()))
    payload[2:6] = (len(payload) * 2).to_bytes(4, "big")
    with pytest.raises(ProtocolError, match="ends inside stats JSON"):
        decode_response(bytes(payload))


# ----------------------------------------------------------------------
# Mid-frame EOF on the stream reader
# ----------------------------------------------------------------------

def _reader_with(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def test_eof_mid_length_prefix():
    async def run():
        with pytest.raises(ProtocolError, match="mid-header"):
            await read_frame(_reader_with(b"\x00\x00"))

    asyncio.run(run())


def test_eof_mid_payload():
    frame = encode_request_frame(OP_INSERT_BATCH, [b"abcdefgh"], "c", request_id=1)

    async def run():
        with pytest.raises(ProtocolError, match="truncated frame"):
            await read_frame(_reader_with(frame[: len(frame) - 3]))

    asyncio.run(run())


def test_declared_length_beyond_max_frame_rejected_before_read():
    async def run():
        huge = (MAX_FRAME + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="exceeds MAX_FRAME"):
            await read_frame(_reader_with(huge + b"x"))

    asyncio.run(run())


def test_clean_eof_between_frames_is_none():
    async def run():
        assert await read_frame(_reader_with(b"")) is None

    asyncio.run(run())


# ----------------------------------------------------------------------
# Envelopes: correlation ids on the wire
# ----------------------------------------------------------------------

def test_v2_request_round_trip_and_v1_parity():
    v1 = encode_request(OP_QUERY_BATCH, ["a", b"b"], "c")
    v2 = encode_request_frame(OP_QUERY_BATCH, ["a", b"b"], "c", request_id=7)
    # The frame is the envelope-less v1 body plus a five-byte envelope.
    assert v2[9:] == v1
    assert v2[4] == FRAME_V2
    rid, request = decode_request_envelope(memoryview(v2)[4:])
    assert rid == 7
    assert request.items == ["a", b"b"]
    # An envelope-less payload is rejected, not passed through.
    with pytest.raises(ProtocolError, match="lacks the correlation envelope"):
        decode_request_envelope(v1)


def test_v2_response_round_trip_all_shapes():
    for frame, check in [
        (encode_answers_frame([True, False], request_id=0xFFFFFFFF),
         lambda r: r.answers == [True, False]),
        (encode_error_frame(ST_RATE_LIMITED, "slow down", request_id=3),
         lambda r: r.message == "slow down"),
        (encode_stats_frame(_snapshots(), request_id=9),
         lambda r: r.stats[0]["shard_id"] == 0),
    ]:
        rid, response = decode_response_envelope(frame[4:])
        assert rid == int.from_bytes(frame[5:9], "big") and check(response)
    with pytest.raises(ProtocolError, match="lacks the correlation envelope"):
        decode_response_envelope(encode_answers([True]))


def test_stats_frame_extra_entry_rides_without_shard_id():
    frame = encode_stats_frame(
        _snapshots(), extra={"server": {"connections": 2}}, request_id=1
    )
    _, response = decode_response_envelope(frame[4:])
    assert response.stats[-1] == {"server": {"connections": 2}}
    assert "shard_id" not in response.stats[-1]


def test_correlation_id_outside_u32_rejected():
    for bad in (-1, 1 << 32):
        with pytest.raises(ProtocolError, match="u32 range"):
            encode_request_frame(OP_QUERY, ["x"], "c", request_id=bad)


def test_truncated_v2_headers_rejected():
    full = encode_request_frame(OP_QUERY, ["x"], "c", request_id=42)[4:]
    # Cut inside the correlation id (marker + 0..3 id bytes).
    for keep in range(1, 5):
        with pytest.raises(ProtocolError, match="correlation id"):
            decode_request_envelope(full[:keep])
    reply = encode_answers_frame([True], request_id=42)[4:]
    for keep in range(1, 5):
        with pytest.raises(ProtocolError, match="correlation id"):
            decode_response_envelope(reply[:keep])


def test_envelope_with_empty_body_rejected():
    # A well-formed envelope whose body is missing entirely.
    with pytest.raises(ProtocolError, match="opcode"):
        decode_request_envelope(bytes([FRAME_V2]) + (5).to_bytes(4, "big"))
    with pytest.raises(ProtocolError, match="status"):
        decode_response_envelope(bytes([FRAME_V2]) + (5).to_bytes(4, "big"))


def test_v1_decoders_reject_v2_frames_as_unknown():
    v2_request = encode_request_frame(OP_QUERY, ["x"], "c", request_id=1)[4:]
    with pytest.raises(ProtocolError, match="unknown opcode"):
        decode_request(v2_request)
    v2_reply = encode_answers_frame([True], request_id=1)[4:]
    with pytest.raises(ProtocolError, match="unknown status"):
        decode_response(v2_reply)


def test_trailing_garbage_after_v2_payload_rejected():
    frame = encode_request_frame(OP_QUERY, ["x"], "c", request_id=5)
    with pytest.raises(ProtocolError, match="trailing"):
        decode_request_envelope(frame[4:] + b"\x00")


# ----------------------------------------------------------------------
# Cluster frames: handoff requests and not-owner redirects
# ----------------------------------------------------------------------

_BLOCK = b"RGSB-test-shard-block-bytes"
# v2 handoff payload layout with client "anon": envelope(5) + op(1) +
# client_len(2) + "anon"(4) + shard(4) = 16, then epoch(8), block_len(4).
_EPOCH_AT = 16
_BLOCK_LEN_AT = _EPOCH_AT + 8


def test_handoff_frame_round_trip_both_generations():
    frame = encode_handoff_frame(7, 3, _BLOCK, client="mover", request_id=11)
    rid, request = decode_request_envelope(frame[4:])
    assert rid == 11 and request.op == OP_HANDOFF
    assert (request.shard_id, request.epoch) == (7, 3)
    assert request.block == _BLOCK and request.items == []
    assert request.client == "mover"
    # The body after the envelope is a bare handoff body the body
    # decoder accepts; without the envelope the frame decoder refuses it.
    bare = frame[9:]
    assert decode_request(bare).block == _BLOCK
    with pytest.raises(ProtocolError, match="lacks the correlation envelope"):
        decode_request_envelope(bare)
    # Bytes-likes are accepted and normalised.
    assert encode_handoff_frame(
        7, 3, bytearray(_BLOCK), client="mover", request_id=11
    ) == frame


def test_handoff_frame_rejects_bad_fields_at_encode_time():
    with pytest.raises(ProtocolError, match="u32 range"):
        encode_handoff_frame(1 << 32, 1, _BLOCK, request_id=1)
    for epoch in (0, -1, 1 << 64):
        with pytest.raises(ProtocolError, match="positive u64"):
            encode_handoff_frame(0, epoch, _BLOCK, request_id=1)
    with pytest.raises(ProtocolError, match="empty shard block"):
        encode_handoff_frame(0, 1, b"", request_id=1)
    with pytest.raises(ProtocolError, match="must be bytes"):
        encode_handoff_frame(0, 1, "not-bytes", request_id=1)


def test_handoff_truncated_epoch_rejected():
    payload = encode_handoff_frame(2, 9, _BLOCK, request_id=1)[4:]
    for cut in range(_EPOCH_AT, _EPOCH_AT + 8):
        with pytest.raises(ProtocolError, match="handoff epoch"):
            decode_request_envelope(payload[:cut])


def test_handoff_zero_epoch_on_the_wire_rejected():
    # The encoder refuses epoch 0, so a replayed "no view" sentinel can
    # only arrive hand-crafted -- patch the epoch field to zeros.
    payload = bytearray(encode_handoff_frame(2, 9, _BLOCK, request_id=1)[4:])
    payload[_EPOCH_AT : _EPOCH_AT + 8] = bytes(8)
    with pytest.raises(ProtocolError, match="epoch must be positive"):
        decode_request_envelope(bytes(payload))


def test_handoff_block_length_overrun_rejected_before_allocation():
    payload = bytearray(encode_handoff_frame(2, 9, _BLOCK, request_id=1)[4:])
    payload[_BLOCK_LEN_AT : _BLOCK_LEN_AT + 4] = (0xFFFFFF).to_bytes(4, "big")
    with pytest.raises(ProtocolError, match="ends inside handoff shard block"):
        decode_request_envelope(bytes(payload))


def test_handoff_empty_block_on_the_wire_rejected():
    payload = bytearray(encode_handoff_frame(2, 9, _BLOCK, request_id=1)[4:])
    trimmed = payload[: _BLOCK_LEN_AT] + bytes(4)
    with pytest.raises(ProtocolError, match="empty shard block"):
        decode_request_envelope(bytes(trimmed))


def test_handoff_trailing_garbage_rejected():
    payload = encode_handoff_frame(2, 9, _BLOCK, request_id=1)[4:]
    with pytest.raises(ProtocolError, match="trailing"):
        decode_request_envelope(payload + b"\x00")


def test_not_owner_frame_round_trip_and_payload_parity():
    frame = encode_not_owner_frame(3, 5, "beta", request_id=2)
    rid, response = decode_response_envelope(frame[4:])
    assert rid == 2 and response.status == ST_NOT_OWNER
    assert response.redirect == Redirect(shard_id=3, epoch=5, owner="beta")
    assert response.answers is None and response.message is None
    # The frame is the envelope plus the payload encoder's body.
    assert frame == _enveloped(encode_not_owner(3, 5, "beta"), 2)
    # Epoch 0 with no owner is the legal "no ownership view" sentinel.
    _, bare = decode_response_envelope(
        encode_not_owner_frame(3, 0, request_id=2)[4:]
    )
    assert bare.redirect == Redirect(shard_id=3, epoch=0, owner="")


def test_not_owner_truncated_owner_rejected():
    payload = encode_not_owner_frame(3, 5, "beta", request_id=2)[4:]
    with pytest.raises(ProtocolError, match="redirect owner"):
        decode_response_envelope(payload[:-2])
    # envelope(5) + status(1) + shard(4) puts the epoch at offset 10.
    with pytest.raises(ProtocolError, match="redirect epoch"):
        decode_response_envelope(payload[:14])


def test_error_encoders_reject_not_owner_status():
    # ST_NOT_OWNER carries a structured redirect, not a message: the
    # diagnostic encoders must refuse it rather than emit an ambiguous
    # body.
    with pytest.raises(ProtocolError, match="bad error status"):
        encode_error(ST_NOT_OWNER, "wrong shape")
    with pytest.raises(ProtocolError, match="bad error status"):
        encode_error_frame(ST_NOT_OWNER, "wrong shape", request_id=1)
