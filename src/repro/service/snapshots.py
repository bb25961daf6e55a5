"""Warm-restart snapshots: durable gateway state on disk.

The recycled-filter countermeasure only works operationally if its state
survives restarts -- a gateway that forgets its rotation history (and
its shard bits) on every deploy hands the adversary a fresh, empty
filter to measure against.  This module serialises everything a gateway
accumulates at serving time:

* every shard's filter, via the stable per-filter snapshot header
  (:meth:`repro.core.bloom.BloomFilter.snapshot_bytes` for bit shards,
  :meth:`repro.core.counting.CountingBloomFilter.snapshot_bytes` for
  counting shards -- the payload carries its own magic, so one gateway
  snapshot mixes families freely);
* the rotation log (which shard retired what, at which fill, at which
  operation epoch, under which policy and reason);
* per-shard lifecycle state (operation age, insert/query/positive
  counts, restored flag, restore epoch, and -- since version 3 -- the
  recent-query sliding window, so :mod:`repro.service.lifecycle`
  policies, windowed ones included, keep deciding correctly across a
  warm restart; since version 4 also the composed-policy scratch: the
  cool-down suppression tally and the hysteresis streaks, keyed by
  wrapper spec) plus the gateway-wide operation epoch;
* per-shard telemetry (counters and both latency histograms).

What is *not* serialised is configuration: shard geometry, routing and
filter keys, admission limits.  Restore targets a gateway built from
the same :class:`~repro.service.config.ServiceConfig`; geometry is
checked shard by shard, keys must be pinned for restored filters to
answer identically (the config docstring says the same).

The cluster tier reuses the exact per-shard section for *handoff
blocks* (magic ``RGSB``): one shard's lifecycle, telemetry and filter
bits, prefixed with the global shard id, exported under the serving
lock by :meth:`~repro.service.gateway.MembershipGateway.release_shard`
and restored byte-identically by :meth:`~repro.service.gateway.
MembershipGateway.adopt_shard`.  Because the section layout is shared,
a shard that moves between gateways re-exports the same bytes it
arrived as.

The layout is fixed-width big-endian throughout, magic-and-versioned,
and every length is validated before any state is touched -- a corrupt
snapshot fails cleanly, it never half-restores.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.exceptions import SnapshotError
from repro.service.telemetry import _BUCKETS, ShardTelemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.gateway import MembershipGateway, RotationEvent

__all__ = [
    "GATEWAY_MAGIC",
    "GATEWAY_VERSION",
    "SHARD_BLOCK_MAGIC",
    "SHARD_BLOCK_VERSION",
    "GatewaySnapshot",
    "ShardBlock",
    "snapshot_gateway",
    "parse_gateway_snapshot",
    "restore_gateway",
    "snapshot_shard",
    "parse_shard_block",
    "save_snapshot",
    "load_snapshot",
]

#: Magic bytes opening every gateway snapshot file.
GATEWAY_MAGIC = b"RGSN"
#: Version written into new snapshots; bump on any layout change.
#: Version 2 added the gateway op-epoch, the per-shard lifecycle section
#: and the policy/reason fields on rotation events.  Version 3 appends
#: each shard's recent-query sliding window to the lifecycle section, so
#: windowed positive-rate policies keep deciding correctly across a warm
#: restart.  Version 4 appends the composed-policy scratch (the
#: cool-down suppression tally and the hysteresis streaks) so stateful
#: defence wrappers keep their place across a warm restart.  Only the
#: current version parses; older payloads raise :class:`SnapshotError`.
GATEWAY_VERSION = 4

#: Magic bytes opening a single-shard handoff block.
SHARD_BLOCK_MAGIC = b"RGSB"
#: Handoff block version 1 wraps the gateway-snapshot v4 shard section.
SHARD_BLOCK_VERSION = 1

_HEADER = struct.Struct(">4sHIIQ")         # magic, version, shards, rotations, op_epoch
_ROTATION = struct.Struct(">IQQdQ")        # shard_id, weight, insertions, fill, op_epoch
_STR_LEN = struct.Struct(">H")             # length prefix of policy/reason strings
# age_ops, inserts, queries, positives, restored, restore_epoch
_LIFECYCLE = struct.Struct(">QQQQBQ")
_WINDOW_LEN = struct.Struct(">H")          # retained window batches per shard
_WINDOW_ENTRY = struct.Struct(">II")       # one window batch: queries, positives
# v4 policy scratch: cooldown-suppressed tally, hysteresis streak count;
# each streak is a u16-prefixed wrapper-spec key plus a u64 streak value.
_POLICY_STATE = struct.Struct(">QH")
_STREAK_VALUE = struct.Struct(">Q")
_COUNTERS = struct.Struct(">QQQQ")         # inserts, queries, positives, rotations
# count, sum_seconds, one u64 per latency bucket (width shared with
# telemetry so the formats cannot drift apart).
_HISTOGRAM = struct.Struct(f">Qd{_BUCKETS}Q")
_BLOCK_LEN = struct.Struct(">I")           # per-shard filter block length
_SHARD_HEADER = struct.Struct(">4sHI")     # magic, version, global shard id


@dataclass(frozen=True)
class GatewaySnapshot:
    """Parsed form of one gateway snapshot."""

    shards: int
    op_epoch: int
    rotation_log: list["RotationEvent"]
    lifecycle: list[dict]
    telemetry: list[ShardTelemetry]
    filter_blocks: list[bytes]


@dataclass(frozen=True)
class ShardBlock:
    """Parsed form of one handoff block: a single shard's full state."""

    shard_id: int
    lifecycle: dict
    telemetry: ShardTelemetry
    filter_block: bytes


class _SnapshotReader:
    """Bounds-checked cursor over a snapshot payload."""

    __slots__ = ("raw", "pos", "label")

    def __init__(self, raw: bytes, label: str) -> None:
        self.raw = raw
        self.pos = 0
        self.label = label

    def take(self, size: int, what: str) -> bytes:
        end = self.pos + size
        if end > len(self.raw):
            raise SnapshotError(
                f"{self.label} ends inside {what} "
                f"(need {size} bytes at offset {self.pos})"
            )
        chunk = self.raw[self.pos:end]
        self.pos = end
        return chunk

    def take_str(self, what: str) -> str:
        (length,) = _STR_LEN.unpack(self.take(_STR_LEN.size, f"{what} length"))
        try:
            return self.take(length, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotError(f"{what} is not valid UTF-8") from exc

    def expect_end(self) -> None:
        if self.pos != len(self.raw):
            raise SnapshotError(
                f"{len(self.raw) - self.pos} trailing bytes after {self.label}"
            )


def _histogram_state(packed: tuple) -> tuple[int, float, tuple[int, ...]]:
    count, total, *buckets = packed
    return count, total, tuple(buckets)


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise SnapshotError(f"string field of {len(raw)} bytes exceeds the u16 prefix")
    return _STR_LEN.pack(len(raw)) + raw


def _block_geometry(raw: bytes) -> tuple:
    """(family, geometry...) of one per-shard filter block, dispatched on
    the block's own magic so bit and counting shards coexist."""
    from repro.core.bloom import parse_snapshot
    from repro.core.counting import COUNTING_SNAPSHOT_MAGIC, parse_counting_snapshot

    if raw[:4] == COUNTING_SNAPSHOT_MAGIC:
        m, k, bits, _, _, _ = parse_counting_snapshot(raw)
        return ("counting", f"m={m}", f"k={k}", f"counter_bits={bits}")
    m, k, _, _ = parse_snapshot(raw)
    return ("bloom", f"m={m}", f"k={k}")


def _pack_shard_section(life: dict, telemetry_state: dict, block: bytes) -> list[bytes]:
    """Serialise one shard's lifecycle + telemetry + filter block.

    This is *the* per-shard layout (gateway snapshot v4); handoff blocks
    wrap exactly this section, so a shard's bytes are identical whether
    it rides a whole-gateway snapshot or moves between gateways.
    """
    parts = [
        _LIFECYCLE.pack(
            life["age_ops"],
            life["inserts"],
            life["queries"],
            life["positives"],
            int(life["restored"]),
            life["restore_epoch"],
        )
    ]
    window = life["window"]
    if len(window) > 0xFFFF:  # pragma: no cover - cap is far below u16
        raise SnapshotError(
            f"shard window of {len(window)} batches exceeds the u16 prefix"
        )
    parts.append(_WINDOW_LEN.pack(len(window)))
    for queries, positives in window:
        parts.append(_WINDOW_ENTRY.pack(queries, positives))
    streaks = life["streaks"]
    if len(streaks) > 0xFFFF:  # pragma: no cover - trees are tiny
        raise SnapshotError(
            f"shard policy scratch of {len(streaks)} streaks exceeds the u16 prefix"
        )
    parts.append(_POLICY_STATE.pack(life["suppressed"], len(streaks)))
    for key in sorted(streaks):
        parts.append(_pack_str(key))
        parts.append(_STREAK_VALUE.pack(streaks[key]))
    parts.append(
        _COUNTERS.pack(
            telemetry_state["inserts"],
            telemetry_state["queries"],
            telemetry_state["positives"],
            telemetry_state["rotations"],
        )
    )
    for key in ("insert_latency", "query_latency"):
        count, total, buckets = telemetry_state[key]
        parts.append(_HISTOGRAM.pack(count, total, *buckets))
    parts.append(_BLOCK_LEN.pack(len(block)))
    parts.append(block)
    return parts


def _parse_shard_section(
    reader: _SnapshotReader, shard_id: int
) -> tuple[dict, ShardTelemetry, bytes]:
    """Parse one shard's section; inverse of :func:`_pack_shard_section`."""
    age_ops, life_inserts, life_queries, life_positives, restored, restore_epoch = (
        _LIFECYCLE.unpack(reader.take(_LIFECYCLE.size, f"shard {shard_id} lifecycle"))
    )
    (window_len,) = _WINDOW_LEN.unpack(
        reader.take(_WINDOW_LEN.size, f"shard {shard_id} window length")
    )
    window = tuple(
        _WINDOW_ENTRY.unpack(
            reader.take(_WINDOW_ENTRY.size, f"shard {shard_id} window entry")
        )
        for _ in range(window_len)
    )
    suppressed, streak_count = _POLICY_STATE.unpack(
        reader.take(_POLICY_STATE.size, f"shard {shard_id} policy scratch")
    )
    streaks: dict[str, int] = {}
    for _ in range(streak_count):
        key = reader.take_str(f"shard {shard_id} streak key")
        (value,) = _STREAK_VALUE.unpack(
            reader.take(_STREAK_VALUE.size, f"shard {shard_id} streak value")
        )
        streaks[key] = value
    life = {
        "age_ops": age_ops,
        "inserts": life_inserts,
        "queries": life_queries,
        "positives": life_positives,
        "restored": bool(restored),
        "restore_epoch": restore_epoch,
        "window": window,
        "suppressed": suppressed,
        "streaks": streaks,
    }
    inserts, queries, positives, rotations = _COUNTERS.unpack(
        reader.take(_COUNTERS.size, f"shard {shard_id} counters")
    )
    insert_hist = _histogram_state(
        _HISTOGRAM.unpack(
            reader.take(_HISTOGRAM.size, f"shard {shard_id} insert histogram")
        )
    )
    query_hist = _histogram_state(
        _HISTOGRAM.unpack(
            reader.take(_HISTOGRAM.size, f"shard {shard_id} query histogram")
        )
    )
    telemetry = ShardTelemetry.from_state(
        shard_id,
        {
            "inserts": inserts,
            "queries": queries,
            "positives": positives,
            "rotations": rotations,
            "insert_latency": insert_hist,
            "query_latency": query_hist,
        },
    )
    (block_len,) = _BLOCK_LEN.unpack(
        reader.take(_BLOCK_LEN.size, f"shard {shard_id} block length")
    )
    block = reader.take(block_len, f"shard {shard_id} filter block")
    return life, telemetry, block


def snapshot_gateway(gateway: "MembershipGateway") -> bytes:
    """Serialise ``gateway`` into one warm-restart payload."""
    parts = [
        _HEADER.pack(
            GATEWAY_MAGIC,
            GATEWAY_VERSION,
            gateway.shards,
            len(gateway.rotation_log),
            gateway.op_epoch,
        )
    ]
    for event in gateway.rotation_log:
        parts.append(
            _ROTATION.pack(
                event.shard_id,
                event.retired_weight,
                event.retired_insertions,
                event.retired_fill,
                event.op_epoch,
            )
        )
        parts.append(_pack_str(event.policy))
        parts.append(_pack_str(event.reason))
    for slot, telemetry in enumerate(gateway.telemetry):
        # The lifecycle section persists the shard's *total* operation
        # age (gateway base + the backend instance's counter), read in
        # the same sync probe the stats table uses.
        life = gateway.lifecycle[slot].to_state(
            gateway.backend.state(slot).age_ops
        )
        parts.extend(
            _pack_shard_section(
                life, telemetry.to_state(), gateway.backend.export_shard(slot)
            )
        )
    return b"".join(parts)


def parse_gateway_snapshot(raw: bytes) -> GatewaySnapshot:
    """Validate and parse a :func:`snapshot_gateway` payload."""
    from repro.service.gateway import RotationEvent

    reader = _SnapshotReader(raw, "gateway snapshot")
    magic, version, shards, rotation_count, op_epoch = _HEADER.unpack(
        reader.take(_HEADER.size, "header")
    )
    if magic != GATEWAY_MAGIC:
        raise SnapshotError(f"bad gateway snapshot magic {magic!r}")
    if version != GATEWAY_VERSION:
        raise SnapshotError(f"unsupported gateway snapshot version {version}")
    rotation_log = []
    for _ in range(rotation_count):
        shard_id, weight, insertions, fill, event_epoch = _ROTATION.unpack(
            reader.take(_ROTATION.size, "rotation event")
        )
        policy = reader.take_str("rotation policy name")
        reason = reader.take_str("rotation reason")
        rotation_log.append(
            RotationEvent(
                shard_id=shard_id,
                retired_weight=weight,
                retired_fill=fill,
                retired_insertions=insertions,
                op_epoch=event_epoch,
                policy=policy,
                reason=reason,
            )
        )
    lifecycle: list[dict] = []
    telemetry: list[ShardTelemetry] = []
    filter_blocks: list[bytes] = []
    for shard_id in range(shards):
        life, shard_telemetry, block = _parse_shard_section(reader, shard_id)
        lifecycle.append(life)
        telemetry.append(shard_telemetry)
        filter_blocks.append(block)
    reader.expect_end()
    return GatewaySnapshot(
        shards=shards,
        op_epoch=op_epoch,
        rotation_log=rotation_log,
        lifecycle=lifecycle,
        telemetry=telemetry,
        filter_blocks=filter_blocks,
    )


def restore_gateway(gateway: "MembershipGateway", raw: bytes) -> None:
    """Load a snapshot into a gateway built from the same config.

    Shard filters are restored through the backend (so this works for
    local and process-pool deployments alike), then the rotation log,
    lifecycle state and telemetry are replaced.  Geometry mismatches
    abort before the first shard is touched, and a backend failure
    mid-apply rolls the already-restored shards back to their previous
    bits -- restore is all-or-nothing, the gateway stays usable either
    way.

    Shards whose persisted state shows a lived life (non-zero operation
    age) come back flagged *restored* -- the observation
    :class:`~repro.service.lifecycle.RotateOnRestorePolicy` expires --
    with the snapshot's own op-epoch as their restore epoch.
    """
    from repro.service.lifecycle import ShardLifecycleState

    snapshot = parse_gateway_snapshot(raw)
    if gateway.shard_ids != list(range(gateway.shards)):
        raise SnapshotError(
            "whole-gateway restore targets an identity shard mapping; "
            f"this gateway owns the subset {gateway.shard_ids} -- move "
            "shards with handoff blocks instead"
        )
    if snapshot.shards != gateway.shards:
        raise SnapshotError(
            f"snapshot holds {snapshot.shards} shards, gateway has {gateway.shards}"
        )
    # Dry-run the geometry check across every block first: restore must
    # be all-or-nothing, and backends validate only at apply time.
    backups: list[bytes] = []
    for shard_id, block in enumerate(snapshot.filter_blocks):
        # Header-only comparison: export_shard ships the current bits,
        # but the geometry probe reads headers without rebuilding.
        wanted = _block_geometry(block)
        backup = gateway.backend.export_shard(shard_id)
        current = _block_geometry(backup)
        if wanted != current:
            raise SnapshotError(
                f"shard {shard_id} snapshot is {wanted}, gateway shard is {current}"
            )
        backups.append(backup)
    applied: list[int] = []
    try:
        for shard_id, block in enumerate(snapshot.filter_blocks):
            gateway.backend.restore_shard(shard_id, block)
            applied.append(shard_id)
    except Exception:
        # Geometry already matched, so rolling the applied shards back
        # to their own exported bits cannot fail the same way.
        for shard_id in applied:
            gateway.backend.restore_shard(shard_id, backups[shard_id])
        raise
    gateway.rotation_log[:] = snapshot.rotation_log
    gateway._telemetry[:] = snapshot.telemetry
    gateway.op_epoch = snapshot.op_epoch
    gateway.lifecycle[:] = [
        ShardLifecycleState.from_state(shard_id, state, restore_epoch=snapshot.op_epoch)
        for shard_id, state in enumerate(snapshot.lifecycle)
    ]


def snapshot_shard(gateway: "MembershipGateway", shard_id: int) -> bytes:
    """Serialise one owned shard into a handoff block (magic ``RGSB``).

    The caller (the gateway's handoff path) holds the shard's serving
    lock, so lifecycle, telemetry and filter bits are mutually
    consistent.  The payload wraps the gateway-snapshot v4 per-shard
    section, so a moved shard's bytes round-trip exactly.
    """
    slot = gateway._slot_of(shard_id)
    life = gateway.lifecycle[slot].to_state(
        gateway.backend.state(slot).age_ops
    )
    parts = [_SHARD_HEADER.pack(SHARD_BLOCK_MAGIC, SHARD_BLOCK_VERSION, shard_id)]
    parts.extend(
        _pack_shard_section(
            life,
            gateway._telemetry[slot].to_state(),
            gateway.backend.export_shard(slot),
        )
    )
    return b"".join(parts)


def parse_shard_block(raw: bytes) -> ShardBlock:
    """Validate and parse a :func:`snapshot_shard` handoff block.

    Every length is checked before any caller state changes, so a
    hostile or truncated block raises :class:`SnapshotError` without
    side effects.
    """
    reader = _SnapshotReader(raw, "shard handoff block")
    magic, version, shard_id = _SHARD_HEADER.unpack(
        reader.take(_SHARD_HEADER.size, "header")
    )
    if magic != SHARD_BLOCK_MAGIC:
        raise SnapshotError(f"bad shard block magic {magic!r}")
    if version != SHARD_BLOCK_VERSION:
        raise SnapshotError(f"unsupported shard block version {version}")
    life, telemetry, block = _parse_shard_section(reader, shard_id)
    reader.expect_end()
    return ShardBlock(
        shard_id=shard_id,
        lifecycle=life,
        telemetry=telemetry,
        filter_block=block,
    )


def save_snapshot(gateway: "MembershipGateway", path: str | Path) -> Path:
    """Write :func:`snapshot_gateway` output to ``path`` atomically-ish
    (tmp file + rename) and return the final path."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(snapshot_gateway(gateway))
    tmp.replace(path)
    return path


def load_snapshot(gateway: "MembershipGateway", path: str | Path) -> None:
    """Read a snapshot file and restore it into ``gateway``."""
    restore_gateway(gateway, Path(path).read_bytes())
