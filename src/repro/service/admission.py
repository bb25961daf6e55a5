"""Admission control: per-client rate limiting.

Two of the paper's attack classes are resource attacks -- pollution
pushes a filter toward saturation, query blowup burns server time -- and
both are cheapest when the service admits unlimited traffic.  This
module supplies the deployment-side brake on the way in: a token-bucket
rate limiter keyed by client id.  The brake on the way out -- rotating
a saturated shard to a fresh filter, the recycled-filter countermeasure
-- is a rotation policy (:mod:`repro.service.lifecycle`, e.g.
``rotation_policy="fill:0.5"``).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.exceptions import ParameterError, ReproError

__all__ = [
    "RateLimited",
    "TokenBucket",
    "ClientRateLimiter",
    "filter_state",
]


def filter_state(filt: object) -> tuple[int, float]:
    """(hamming weight, fill ratio) of any filter-like object.

    Accepts either property or method spellings (``BloomFilter`` exposes
    properties, ``BitVector`` methods); objects without the attributes
    report ``(0, 0.0)``.  The backends' shard-state probe reads filters
    through it.
    """
    weight = getattr(filt, "hamming_weight", 0)
    fill = getattr(filt, "fill_ratio", 0.0)
    return (
        weight() if callable(weight) else weight,
        fill() if callable(fill) else fill,
    )


class RateLimited(ReproError):
    """An operation was rejected by admission control.

    Attributes
    ----------
    client:
        The client id whose budget was exhausted.
    """

    def __init__(self, client: str):
        super().__init__(f"client {client!r} exceeded its admission rate")
        self.client = client


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, capacity ``burst``."""

    __slots__ = ("rate", "burst", "_tokens", "_last")

    def __init__(self, rate: float, burst: int, now: float) -> None:
        if rate <= 0:
            raise ParameterError("rate must be positive")
        if burst <= 0:
            raise ParameterError("burst must be positive")
        self.rate = rate
        self.burst = burst
        self._tokens = float(burst)
        self._last = now

    def try_acquire(self, tokens: int, now: float) -> bool:
        """Take ``tokens`` if available; refill happens lazily on call."""
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False


class ClientRateLimiter:
    """Per-client token buckets with a shared rate/burst policy.

    Parameters
    ----------
    rate:
        Admitted operations per second per client; ``None`` disables
        limiting entirely (every ``admit`` succeeds).
    burst:
        Bucket capacity; batch calls of up to this size pass at once.
    clock:
        Injectable monotonic clock (tests pin it to a counter).
    max_clients:
        Cap on tracked buckets.  Client ids come from untrusted callers,
        so without a bound an attacker minting fresh ids per request
        would grow the table forever; past the cap the oldest bucket is
        evicted (that client restarts from a full burst -- a small
        leniency, never a lockout).
    """

    def __init__(
        self,
        rate: float | None,
        burst: int = 64,
        clock: Callable[[], float] = time.monotonic,
        max_clients: int = 10_000,
    ) -> None:
        if rate is not None and rate <= 0:
            raise ParameterError("rate must be positive (or None)")
        if max_clients <= 0:
            raise ParameterError("max_clients must be positive")
        self.rate = rate
        self.burst = burst
        self.max_clients = max_clients
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self.denied = 0

    def admit(self, client: str, tokens: int = 1) -> bool:
        """True if ``client`` may perform ``tokens`` operations now."""
        if self.rate is None:
            return True
        now = self._clock()
        bucket = self._buckets.get(client)
        if bucket is None:
            if len(self._buckets) >= self.max_clients:
                self._buckets.pop(next(iter(self._buckets)))
            bucket = self._buckets[client] = TokenBucket(self.rate, self.burst, now)
        if bucket.try_acquire(tokens, now):
            return True
        self.denied += 1
        return False
