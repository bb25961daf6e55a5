"""Shard routers and the consistent-hash ring for the cluster tier.

One family of shard pickers serves both layers: the gateway routes an
item to a shard with one, and the cluster tier reuses the exact same
hash choice one layer up (shard id -> owning gateway node).  The
adversarial framing is the same at both: a *public* Murmur ring lets
the adversary compute both the item's shard and the shard's node
offline (aim every crafted item at one shard of one gateway), while a
*keyed* SipHash ring reduces the attacker to spraying -- the same MAC
countermeasure as :mod:`repro.countermeasures.keyed`, applied to
placement.

Pickers have a parsed spec grammar mirroring
:func:`~repro.service.lifecycle.parse_policy`: ``picker.spec()`` emits
``"murmur:0x5a4d"`` / ``"siphash:<32-hex-key>"`` and
:func:`parse_picker` round-trips it, so the item router is the
validated :class:`~repro.service.config.ServiceConfig` string knob
``router`` -- the only way a config picks (or pins the key of) its
router.

:class:`HashRing` is the placement rule: each node projects ``vnodes``
virtual points onto the hash circle, each shard id hashes to a point,
and the shard belongs to the first node point at or after it (wrapping).
Virtual nodes smooth the split; consistent hashing keeps it *stable* --
removing a node moves only that node's shards, everything else stays
put, which is what makes rebalancing a handful of snapshot handoffs
instead of a full reshuffle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import Sequence

from repro.countermeasures.keyed import generate_key
from repro.exceptions import ConfigError, ParameterError
from repro.hashing.murmur import Murmur3_32
from repro.hashing.siphash import SipHash24

__all__ = [
    "ShardPicker",
    "HashShardPicker",
    "KeyedShardPicker",
    "parse_picker",
    "HashRing",
]

#: Default Murmur routing seed (the historical public-router seed).
DEFAULT_MURMUR_SEED = 0x5A4D


class ShardPicker(ABC):
    """A rule assigning items to shards; stateless, like an IndexStrategy."""

    #: Display name for telemetry tables.
    name: str = "picker"

    @abstractmethod
    def pick(self, item: str | bytes, shard_count: int) -> int:
        """Return the owning shard in ``[0, shard_count)``."""

    def hash_item(self, item: str | bytes) -> int:
        """The raw routing hash of ``item`` (before any modulo).

        The ring places nodes and shards with this, so ring placement
        inherits the picker's public/keyed character.
        """
        hash_fn = getattr(self, "_hash", None)
        if hash_fn is None:  # pragma: no cover - custom pickers only
            raise ParameterError(
                f"{type(self).__name__} exposes no routing hash; "
                "override hash_item() to use it on a ring"
            )
        return hash_fn.hash_int(item)

    def spec(self) -> str:
        """Canonical spec string; :func:`parse_picker` round-trips it."""
        raise ConfigError(f"picker {type(self).__name__} has no spec form")

    def _check(self, shard_count: int) -> None:
        if shard_count <= 0:
            raise ParameterError(f"shard_count must be positive, got {shard_count}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class HashShardPicker(ShardPicker):
    """Public MurmurHash3 routing -- fast, uniform, and fully predictable.

    This is how real deployments shard (consistent hashing over a public
    function); it is also the adversary's entry point, since anyone can
    evaluate the route offline and craft items that all land on one
    shard.
    """

    def __init__(self, seed: int = DEFAULT_MURMUR_SEED) -> None:
        self._hash = Murmur3_32(seed)
        self.seed = seed
        self.name = f"murmur3(seed={seed:#x})"

    def pick(self, item: str | bytes, shard_count: int) -> int:
        self._check(shard_count)
        return self._hash.hash_int(item) % shard_count

    def spec(self) -> str:
        return f"murmur:{self.seed:#x}"


class KeyedShardPicker(ShardPicker):
    """Secret-keyed SipHash routing: the keyed countermeasure for the router.

    Without the key an adversary cannot predict which shard an item hits,
    so aimed pollution degrades to uniform spraying -- each shard absorbs
    only ``1/shard_count`` of the crafted stream.
    """

    def __init__(self, key: bytes | None = None) -> None:
        self.key = key if key is not None else generate_key(16)
        if len(self.key) != 16:
            raise ParameterError("SipHash routing requires a 16-byte key")
        self._hash = SipHash24(self.key)
        self.name = "siphash(keyed)"

    def pick(self, item: str | bytes, shard_count: int) -> int:
        self._check(shard_count)
        return self._hash.hash_int(item) % shard_count

    def spec(self) -> str:
        # The spec *is* the secret; treat spec strings for keyed pickers
        # like the key material they carry.
        return f"siphash:{self.key.hex()}"


def parse_picker(spec: str) -> ShardPicker:
    """Build a picker from its spec string (inverse of ``picker.spec()``).

    Grammar::

        "murmur"             -> HashShardPicker()            (default seed)
        "murmur:<int>"       -> HashShardPicker(seed)        (0x-hex or decimal)
        "siphash"            -> KeyedShardPicker()           (fresh random key)
        "siphash:<32 hex>"   -> KeyedShardPicker(bytes.fromhex(key))

    Raises :class:`~repro.exceptions.ConfigError` on unknown kinds,
    malformed or empty arguments (``"siphash:"`` is a typo, not a
    request for a fresh key), wrong key lengths and trailing garbage --
    mirroring :func:`~repro.service.lifecycle.parse_policy` so configs
    fail at build time, not at serve time.
    """
    if not isinstance(spec, str):
        raise ConfigError(f"picker spec must be a string, got {type(spec).__name__}")
    text = spec.strip()
    if not text:
        raise ConfigError("picker spec is empty")
    kind, sep, arg = text.partition(":")
    if kind == "murmur":
        if not sep:
            return HashShardPicker()
        try:
            seed = int(arg, 0)
        except ValueError as exc:
            raise ConfigError(f"bad murmur seed {arg!r} in picker spec") from exc
        if not 0 <= seed <= 0xFFFFFFFF:
            raise ConfigError(f"murmur seed {arg} outside the u32 range")
        return HashShardPicker(seed)
    if kind == "siphash":
        if not sep:
            return KeyedShardPicker()
        try:
            key = bytes.fromhex(arg)
        except ValueError as exc:
            raise ConfigError(f"bad siphash key {arg!r} in picker spec") from exc
        if len(key) != 16:
            raise ConfigError(
                f"siphash key must be 32 hex chars (16 bytes), got {len(key)} bytes"
            )
        return KeyedShardPicker(key)
    raise ConfigError(f"unknown picker kind {kind!r} (expected murmur or siphash)")


class HashRing:
    """Consistent-hash placement of global shard ids onto named nodes.

    Parameters
    ----------
    nodes:
        Gateway node names; order is cosmetic, placement depends only on
        the names' hashes.
    picker:
        The hash behind the ring.  A public
        :class:`HashShardPicker` makes placement offline-computable (the
        adversary's ring); a :class:`KeyedShardPicker` hides it.
        Defaults to the public router.
    vnodes:
        Virtual points per node.  More points = smoother shard split
        and smaller movement on membership change, at O(nodes * vnodes
        * log) build cost.
    """

    def __init__(
        self,
        nodes: Sequence[str],
        picker: ShardPicker | None = None,
        vnodes: int = 64,
    ) -> None:
        if not nodes:
            raise ParameterError("a ring needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ParameterError(f"ring nodes must be unique, got {list(nodes)}")
        if any(not isinstance(node, str) or not node for node in nodes):
            raise ParameterError("ring node names must be non-empty strings")
        if vnodes <= 0:
            raise ParameterError(f"vnodes must be positive, got {vnodes}")
        self.nodes = tuple(nodes)
        self.picker = picker or HashShardPicker()
        self.vnodes = vnodes
        # Ties on a hash point resolve by node name (sort on the pair),
        # so placement is deterministic whatever order nodes were given.
        points = sorted(
            (self.picker.hash_item(f"{node}#{i}"), node)
            for node in nodes
            for i in range(vnodes)
        )
        self._keys = [key for key, _ in points]
        self._owners = [node for _, node in points]

    def node_for(self, key: str | bytes) -> str:
        """The node owning ``key``: first ring point at or after its hash."""
        index = bisect_right(self._keys, self.picker.hash_item(key))
        return self._owners[index % len(self._owners)]

    def owner_of_shard(self, shard_id: int) -> str:
        """The node a global shard id places on."""
        if shard_id < 0:
            raise ParameterError(f"shard_id must be non-negative, got {shard_id}")
        return self.node_for(f"shard:{shard_id}")

    def assign(self, total_shards: int) -> dict[int, str]:
        """Shard id -> owning node for the whole global shard space."""
        if total_shards <= 0:
            raise ParameterError(
                f"total_shards must be positive, got {total_shards}"
            )
        return {
            shard_id: self.owner_of_shard(shard_id)
            for shard_id in range(total_shards)
        }

    def with_nodes(self, nodes: Sequence[str]) -> "HashRing":
        """A new ring over ``nodes`` with the same picker and vnodes.

        Diffing ``assign()`` between the two rings is how a rebalance
        plan is computed: consistent hashing guarantees only shards
        whose owner left (or that a new node's points capture) move.
        """
        return HashRing(nodes, picker=self.picker, vnodes=self.vnodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<HashRing nodes={list(self.nodes)} vnodes={self.vnodes} "
            f"picker={self.picker.name}>"
        )
