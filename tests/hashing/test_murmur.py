"""MurmurHash3: published test vectors, properties, and wrappers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.hashing.murmur import (
    _C1_32,
    _C2_32,
    Murmur3_32,
    Murmur3_x64_128,
    fmix32,
    fmix64,
    murmur3_32,
    murmur3_x64_128,
)
from repro.hashing.noncrypto import MASK32, rotl32

# Canonical vectors (Appleby's reference implementation).
VECTORS_32 = [
    (b"", 0, 0x00000000),
    (b"", 1, 0x514E28B7),
    (b"", 0xFFFFFFFF, 0x81F16F39),
    (b"\x00\x00\x00\x00", 0, 0x2362F9DE),
    (b"hello", 0, 0x248BFA47),
    (b"The quick brown fox jumps over the lazy dog", 0, 0x2E4FF723),
]


@pytest.mark.parametrize("data,seed,expected", VECTORS_32)
def test_murmur3_32_vectors(data, seed, expected):
    assert murmur3_32(data, seed) == expected


def test_murmur3_x64_128_vector():
    h1, h2 = murmur3_x64_128(b"The quick brown fox jumps over the lazy dog", 0)
    assert (h1, h2) == (0xE34BBC7BBC071B6C, 0x7A433CA9C49A9347)


@pytest.mark.parametrize("length", range(0, 20))
def test_murmur3_32_all_tail_lengths(length):
    # Exercises every body/tail combination (block size 4).
    data = bytes(range(length))
    value = murmur3_32(data, 7)
    assert 0 <= value < 2**32
    assert murmur3_32(data, 7) == value  # deterministic


@pytest.mark.parametrize("length", range(0, 36))
def test_murmur3_128_all_tail_lengths(length):
    # Exercises every tail branch (block size 16).
    data = bytes(range(length))
    h1, h2 = murmur3_x64_128(data, 3)
    assert 0 <= h1 < 2**64 and 0 <= h2 < 2**64


def test_seed_changes_output():
    assert murmur3_32(b"item", 0) != murmur3_32(b"item", 1)
    assert murmur3_x64_128(b"item", 0) != murmur3_x64_128(b"item", 1)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fmix32_is_bijective_on_samples(x):
    # fmix32 is a bijection; distinct inputs map to distinct outputs
    # (checked via the inverse in test_inversion; here: in-range+stable).
    y = fmix32(x)
    assert 0 <= y < 2**32
    assert fmix32(x) == y


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_fmix64_in_range(x):
    y = fmix64(x)
    assert 0 <= y < 2**64


@given(st.binary(max_size=64), st.integers(min_value=0, max_value=2**32 - 1))
def test_murmur32_range_property(data, seed):
    assert 0 <= murmur3_32(data, seed) < 2**32


def test_wrapper_hash_object():
    fn = Murmur3_32(seed=9)
    assert fn.digest_bits == 32
    assert fn.hash_int(b"abc") == murmur3_32(b"abc", 9)
    assert fn.hash_int("abc") == murmur3_32(b"abc", 9)  # str canonicalised
    assert len(fn.digest(b"abc")) == 4


def test_wrapper_128_halves():
    fn = Murmur3_x64_128(seed=0)
    h1, h2 = fn.halves(b"xyz")
    assert fn.hash_int(b"xyz") == (h1 << 64) | h2
    assert fn.digest_bits == 128


def test_avalanche_rough():
    # Flipping one input bit should flip roughly half the output bits.
    base = murmur3_32(b"avalanche-test", 0)
    flipped = murmur3_32(b"avalanche-tesu", 0)  # last char +1
    differing = (base ^ flipped).bit_count()
    assert 8 <= differing <= 24


# ----------------------------------------------------------------------
# murmur3_32 parity with the byte-at-a-time reference loop
# ----------------------------------------------------------------------


def reference_murmur3_32(data: bytes, seed: int = 0) -> int:
    """The straightforward byte-loop transcription of Appleby's x86_32,
    kept as the oracle for the word-unpacking implementation."""
    length = len(data)
    h = seed & MASK32
    rounded_end = length & ~0x3

    for i in range(0, rounded_end, 4):
        k = data[i] | (data[i + 1] << 8) | (data[i + 2] << 16) | (data[i + 3] << 24)
        k = (k * _C1_32) & MASK32
        k = rotl32(k, 15)
        k = (k * _C2_32) & MASK32
        h ^= k
        h = rotl32(h, 13)
        h = (h * 5 + 0xE6546B64) & MASK32

    k = 0
    tail = length & 3
    if tail == 3:
        k ^= data[rounded_end + 2] << 16
    if tail >= 2:
        k ^= data[rounded_end + 1] << 8
    if tail >= 1:
        k ^= data[rounded_end]
        k = (k * _C1_32) & MASK32
        k = rotl32(k, 15)
        k = (k * _C2_32) & MASK32
        h ^= k

    h ^= length
    return fmix32(h)


@pytest.mark.parametrize("data,seed,expected", VECTORS_32)
def test_reference_reproduces_vectors(data, seed, expected):
    assert reference_murmur3_32(data, seed) == expected


@given(st.binary(max_size=200), st.integers(min_value=0, max_value=2**32 - 1))
def test_murmur3_32_matches_reference(data, seed):
    assert murmur3_32(data, seed) == reference_murmur3_32(data, seed)


@pytest.mark.parametrize("tail", range(4))
@pytest.mark.parametrize("blocks", [0, 1, 2, 13])
@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_murmur3_32_bytes_like_inputs_and_tails(kind, blocks, tail):
    data = bytes((37 * i + 11) & 0xFF for i in range(4 * blocks + tail))
    expected = reference_murmur3_32(data, 0x5A4D)
    assert murmur3_32(kind(data), 0x5A4D) == expected


def test_murmur3_32_long_input_past_the_precompiled_unpackers():
    data = bytes(range(256)) * 9  # 576 blocks
    assert murmur3_32(data, 3) == reference_murmur3_32(data, 3)
    assert murmur3_32(memoryview(data)[1:], 3) == reference_murmur3_32(data[1:], 3)
