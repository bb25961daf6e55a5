"""Admission control: token buckets, per-client limiting, shard-state probe."""

from __future__ import annotations

import pytest

from repro.core.bitvector import BitVector
from repro.core.bloom import BloomFilter
from repro.exceptions import ParameterError
from repro.service.admission import (
    ClientRateLimiter,
    RateLimited,
    TokenBucket,
    filter_state,
)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_token_bucket_burst_then_refill():
    bucket = TokenBucket(rate=10.0, burst=5, now=0.0)
    assert bucket.try_acquire(5, now=0.0) is True  # full burst
    assert bucket.try_acquire(1, now=0.0) is False  # empty
    assert bucket.try_acquire(1, now=0.1) is True  # 0.1s * 10/s = 1 token
    assert bucket.try_acquire(5, now=10.0) is True  # refill caps at burst
    assert bucket.try_acquire(1, now=10.0) is False


def test_token_bucket_validation():
    with pytest.raises(ParameterError):
        TokenBucket(rate=0, burst=5, now=0.0)
    with pytest.raises(ParameterError):
        TokenBucket(rate=1, burst=0, now=0.0)


def test_limiter_is_per_client():
    clock = FakeClock()
    limiter = ClientRateLimiter(rate=10.0, burst=4, clock=clock)
    assert limiter.admit("alice", 4) is True
    assert limiter.admit("alice", 1) is False  # alice exhausted
    assert limiter.admit("bob", 4) is True  # bob unaffected
    assert limiter.denied == 1
    clock.advance(0.5)  # 5 tokens back
    assert limiter.admit("alice", 4) is True


def test_limiter_bucket_table_is_bounded():
    clock = FakeClock()
    limiter = ClientRateLimiter(rate=10.0, burst=4, clock=clock, max_clients=3)
    for i in range(10):  # attacker minting fresh client ids
        assert limiter.admit(f"sybil-{i}", 1) is True
    assert len(limiter._buckets) == 3  # oldest evicted, table capped
    with pytest.raises(ParameterError):
        ClientRateLimiter(rate=1.0, max_clients=0)


def test_limiter_unlimited_mode():
    limiter = ClientRateLimiter(rate=None)
    assert all(limiter.admit("anyone", 10_000) for _ in range(100))
    assert limiter.denied == 0


def test_rate_limited_exception_carries_client():
    err = RateLimited("mallory")
    assert err.client == "mallory"
    assert "mallory" in str(err)


def test_filter_state_reads_properties_methods_and_missing_fill():
    target = BloomFilter(64, 2)  # properties here
    target.bits.set_indexes(range(32))
    target._weight = 32
    assert filter_state(target) == (32, 0.5)
    vec = BitVector(16)  # methods here
    vec.set_indexes(range(4))
    assert filter_state(vec) == (4, 0.25)
    assert filter_state(object()) == (0, 0.0)  # no fill_ratio at all
