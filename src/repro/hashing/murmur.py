"""MurmurHash3 from scratch (x86 32-bit and x64 128-bit variants).

MurmurHash is the non-cryptographic workhorse the paper singles out:
Dablooms derives all its Bloom indexes from it, and -- crucially for the
attacks -- it is *invertible in constant time* (the paper cites SipHash's
authors [7] for this).  The inversion itself lives in
:mod:`repro.hashing.inversion`; this module is the forward direction,
bit-exact with Austin Appleby's reference ``MurmurHash3.cpp``.
"""

from __future__ import annotations

import struct

from repro.hashing.base import CallableHash
from repro.hashing.noncrypto import MASK32, MASK64, rotl64

__all__ = [
    "murmur3_32",
    "murmur3_x64_128",
    "fmix32",
    "fmix64",
    "Murmur3_32",
    "Murmur3_x64_128",
]

_C1_32 = 0xCC9E2D51
_C2_32 = 0x1B873593

_C1_64 = 0x87C37B91114253D5
_C2_64 = 0x4CF5AD432745937F


def fmix32(h: int) -> int:
    """MurmurHash3 32-bit finaliser (a bijection on 32-bit words)."""
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & MASK32
    h ^= h >> 16
    return h


def fmix64(h: int) -> int:
    """MurmurHash3 64-bit finaliser (a bijection on 64-bit words)."""
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & MASK64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & MASK64
    h ^= h >> 33
    return h


#: Longest input (in 4-byte blocks) with a precompiled word unpacker:
#: 256 bytes covers item-sized keys such as URLs; longer inputs go
#: through ``struct``'s own format cache.
_CACHED_BLOCKS = 64
#: ``unpack_from`` of the little-endian ``<nI`` word layout, by block count n.
_WORD_UNPACKERS = tuple(
    struct.Struct(f"<{n}I").unpack_from for n in range(_CACHED_BLOCKS + 1)
)


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """MurmurHash3 x86_32 of ``data`` with ``seed``; returns a 32-bit int.

    Accepts any bytes-like object.  This is the shard router's hash, run
    once per served item and once per attacker candidate, so the body
    unpacks all 32-bit words in one ``struct`` call and inlines the
    rotations and :func:`fmix32`.
    """
    length = len(data)
    h = seed & MASK32
    nblocks = length >> 2
    words = (
        _WORD_UNPACKERS[nblocks](data)
        if nblocks <= _CACHED_BLOCKS
        else struct.unpack_from(f"<{nblocks}I", data)
    )
    for k in words:
        k = (k * _C1_32) & MASK32
        k = ((k << 15) | (k >> 17)) & MASK32
        h ^= (k * _C2_32) & MASK32
        h = ((h << 13) | (h >> 19)) & MASK32
        h = (h * 5 + 0xE6546B64) & MASK32

    tail = length & 3
    if tail:
        i = nblocks << 2
        k = data[i]
        if tail > 1:
            k ^= data[i + 1] << 8
            if tail > 2:
                k ^= data[i + 2] << 16
        k = (k * _C1_32) & MASK32
        k = ((k << 15) | (k >> 17)) & MASK32
        h ^= (k * _C2_32) & MASK32

    h ^= length
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & MASK32
    return h ^ (h >> 16)


def murmur3_x64_128(data: bytes, seed: int = 0) -> tuple[int, int]:
    """MurmurHash3 x64_128 of ``data``; returns the two 64-bit halves.

    Dablooms feeds the two halves to Kirsch-Mitzenmacher double hashing
    (:mod:`repro.hashing.kirsch_mitzenmacher`).
    """
    length = len(data)
    h1 = seed & MASK64
    h2 = seed & MASK64
    nblocks = length // 16

    for i in range(nblocks):
        k1, k2 = struct.unpack_from("<QQ", data, i * 16)

        k1 = (k1 * _C1_64) & MASK64
        k1 = rotl64(k1, 31)
        k1 = (k1 * _C2_64) & MASK64
        h1 ^= k1
        h1 = rotl64(h1, 27)
        h1 = (h1 + h2) & MASK64
        h1 = (h1 * 5 + 0x52DCE729) & MASK64

        k2 = (k2 * _C2_64) & MASK64
        k2 = rotl64(k2, 33)
        k2 = (k2 * _C1_64) & MASK64
        h2 ^= k2
        h2 = rotl64(h2, 31)
        h2 = (h2 + h1) & MASK64
        h2 = (h2 * 5 + 0x38495AB5) & MASK64

    tail_index = nblocks * 16
    k1 = 0
    k2 = 0
    tail = length & 15

    if tail >= 15:
        k2 ^= data[tail_index + 14] << 48
    if tail >= 14:
        k2 ^= data[tail_index + 13] << 40
    if tail >= 13:
        k2 ^= data[tail_index + 12] << 32
    if tail >= 12:
        k2 ^= data[tail_index + 11] << 24
    if tail >= 11:
        k2 ^= data[tail_index + 10] << 16
    if tail >= 10:
        k2 ^= data[tail_index + 9] << 8
    if tail >= 9:
        k2 ^= data[tail_index + 8]
        k2 = (k2 * _C2_64) & MASK64
        k2 = rotl64(k2, 33)
        k2 = (k2 * _C1_64) & MASK64
        h2 ^= k2

    if tail >= 8:
        k1 ^= data[tail_index + 7] << 56
    if tail >= 7:
        k1 ^= data[tail_index + 6] << 48
    if tail >= 6:
        k1 ^= data[tail_index + 5] << 40
    if tail >= 5:
        k1 ^= data[tail_index + 4] << 32
    if tail >= 4:
        k1 ^= data[tail_index + 3] << 24
    if tail >= 3:
        k1 ^= data[tail_index + 2] << 16
    if tail >= 2:
        k1 ^= data[tail_index + 1] << 8
    if tail >= 1:
        k1 ^= data[tail_index]
        k1 = (k1 * _C1_64) & MASK64
        k1 = rotl64(k1, 31)
        k1 = (k1 * _C2_64) & MASK64
        h1 ^= k1

    h1 ^= length
    h2 ^= length
    h1 = (h1 + h2) & MASK64
    h2 = (h2 + h1) & MASK64
    h1 = fmix64(h1)
    h2 = fmix64(h2)
    h1 = (h1 + h2) & MASK64
    h2 = (h2 + h1) & MASK64
    return h1, h2


class Murmur3_32(CallableHash):
    """MurmurHash3 x86_32 as a seedable :class:`HashFunction`."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed & MASK32
        super().__init__(
            lambda data: murmur3_32(data, self.seed), 32, f"murmur3_32[{seed}]"
        )


class Murmur3_x64_128(CallableHash):
    """MurmurHash3 x64_128 as a seedable 128-bit :class:`HashFunction`."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed & MASK64

        def _combined(data: bytes) -> int:
            h1, h2 = murmur3_x64_128(data, self.seed)
            return (h1 << 64) | h2

        super().__init__(_combined, 128, f"murmur3_x64_128[{seed}]")

    def halves(self, data: bytes) -> tuple[int, int]:
        """Return the raw ``(h1, h2)`` pair (used by double hashing)."""
        return murmur3_x64_128(data, self.seed)

    def halves_batch(self, datas: list[bytes]) -> list[tuple[int, int]]:
        """The ``(h1, h2)`` pairs of a whole batch of keys.

        Takes the vectorised uint64-lane implementation
        (:mod:`repro.hashing.batched`) when the accel mode allows, the
        scalar function otherwise; both are bit-identical.
        """
        from repro import accel

        if accel.accelerated(len(datas)) and accel.numpy_or_none() is not None:
            from repro.hashing.batched import murmur3_x64_128_batch

            h1, h2 = murmur3_x64_128_batch(datas, self.seed)
            return list(zip(h1.tolist(), h2.tolist()))
        return [murmur3_x64_128(data, self.seed) for data in datas]
