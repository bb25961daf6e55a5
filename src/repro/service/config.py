"""Configuration bundles for the membership gateway and its adversary.

One frozen dataclass holds every deployment knob -- shard geometry,
router spec, admission limits, the rotation policy spec -- each under
exactly one name, so an experiment or demo can describe a whole service
in one literal and rebuild it with ``MembershipGateway.from_config``,
the one place a config becomes objects (identically, provided any keyed
modes pin their keys; unpinned keys are drawn fresh per build).

:class:`AttackBudgetConfig` is the adversary-side counterpart: the
resource bounds of one attack campaign (total trials, request rate,
deadline, query strategy) as a validated literal, so an experiment can
sweep budgets the same way it sweeps service configs and ``build()``
fresh :class:`~repro.adversary.budget.AttackBudget` meters per run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ParameterError

__all__ = ["ServiceConfig", "AttackBudgetConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment parameters of a :class:`~repro.service.gateway.MembershipGateway`.

    Parameters
    ----------
    shards:
        Number of filter shards behind the router.
    shard_m, shard_k:
        Geometry of each shard's Bloom filter.
    rotation_policy:
        Shard lifecycle policy spec (see :func:`~repro.service.
        lifecycle.parse_policy`): leaf rules (``"fill:0.5"``,
        ``"age:4000"``, ``"adaptive:0.8:32"`` or windowed
        ``"adaptive:0.8:32:128"``, ``"restore:2000+fill:0.5"``,
        ``"never"``) or any composition of them --
        ``"(adaptive:0.8:24:32&fill:0.5)|age:4000"``,
        ``"cooldown:200(hysteresis:2(adaptive:0.85:24:32))"``, ``"!"``
        negation.  The default ``"fill:0.5"`` retires a shard once half
        its bits are set (the paper's recycled-filter countermeasure);
        ``"never"`` disables rotation.  Malformed specs (``None``
        included) raise :class:`~repro.exceptions.ConfigError` at config
        build time.
    rate_limit:
        Per-client admitted operations per second; ``None`` means
        unlimited.
    burst:
        Token-bucket burst size used with ``rate_limit``.
    router:
        Shard-router spec string (see :func:`~repro.service.cluster.
        ring.parse_picker`): ``"murmur"`` (the default) /
        ``"murmur:0x5a4d"`` for the public router,
        ``"siphash"`` / ``"siphash:<32 hex chars>"`` for the keyed one,
        which routes items with a secret SipHash key so an adversary
        cannot aim traffic at one shard.  Malformed specs raise
        :class:`~repro.exceptions.ConfigError` at config build time.
        Note ``"siphash"`` without a key draws one fresh per build (pin
        the key in the spec for reproducibility or a snapshot restore),
        and the spec string embeds that key -- treat configs with keyed
        specs as secrets.
    keyed_filters:
        Build each shard as a :class:`~repro.countermeasures.keyed.
        KeyedBloomFilter` (per-shard secret key) instead of the default
        unkeyed recycled-SHA-512 filter.
    filter_key:
        Explicit 16-byte secret for ``keyed_filters``.  ``None`` draws
        fresh random keys at build time -- note that such a gateway
        cannot be rebuilt identically from the config alone; pin the
        key when reproducibility (or a snapshot restore) matters.
    backend:
        Where the shard filters live: ``"local"`` keeps them in the
        gateway's process (the default, zero-overhead arrangement);
        ``"process"`` runs each shard in its own worker process (one
        core per shard for the CPU-bound hashing).  Process backends
        resolve an unpinned ``filter_key`` once at build time so every
        worker, white-box view and snapshot restore agrees.
    coalesce_window_us, coalesce_max_batch:
        Cross-client micro-batch coalescing (see :mod:`repro.service.
        coalesce`): concurrent small batches aimed at the same shard
        merge into one backend call, flushed at ``coalesce_max_batch``
        items or after ``coalesce_window_us`` microseconds.  A
        ``coalesce_max_batch`` of 0 (default) disables coalescing and
        keeps the serving path byte-identical to the legacy gateway;
        a non-zero window requires a non-zero max batch.
    """

    shards: int = 4
    shard_m: int = 4096
    shard_k: int = 4
    rotation_policy: str = "fill:0.5"
    rate_limit: float | None = None
    burst: int = 64
    keyed_filters: bool = False
    router: str = "murmur"
    filter_key: bytes | None = None
    backend: str = "local"
    coalesce_window_us: int = 0
    coalesce_max_batch: int = 0

    def __post_init__(self) -> None:
        if self.backend not in ("local", "process"):
            raise ParameterError(
                f"backend must be 'local' or 'process', got {self.backend!r}"
            )
        if self.filter_key is not None and len(self.filter_key) != 16:
            raise ParameterError("filter_key must be exactly 16 bytes")
        if self.shards <= 0:
            raise ParameterError(f"shards must be positive, got {self.shards}")
        if self.shard_m <= 0 or self.shard_k <= 0:
            raise ParameterError("shard_m and shard_k must be positive")
        # Parse both specs for validation only; the gateway parses again
        # at build time (policies and pickers are cheap, the config stays
        # frozen and hashable with plain-string fields).
        from repro.service.cluster.ring import parse_picker
        from repro.service.lifecycle import parse_policy

        parse_policy(self.rotation_policy)
        parse_picker(self.router)
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ParameterError("rate_limit must be positive (or None)")
        if self.burst <= 0:
            raise ParameterError("burst must be positive")
        for name in ("coalesce_window_us", "coalesce_max_batch"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative")
        if self.coalesce_window_us > 0 and self.coalesce_max_batch == 0:
            raise ParameterError(
                "coalesce_window_us needs coalesce_max_batch > 0"
            )

    @property
    def total_bits(self) -> int:
        """Bits held across all shards."""
        return self.shards * self.shard_m


@dataclass(frozen=True)
class AttackBudgetConfig:
    """Resource bounds of one attack campaign, as a frozen literal.

    Parameters
    ----------
    max_trials:
        Total brute-force hash trials across all attack clients sharing
        the campaign (``None`` = unmetered).
    requests_per_s:
        Transport request-rate ceiling the attacker self-paces under
        (``None`` = unpaced).
    deadline_s:
        Wall-clock seconds from the first charge before every budget
        operation raises (``None`` = open-ended).
    strategy:
        ``"static"`` (craft every query fresh) or ``"adaptive"`` (feed
        answers back: replay confirmed ghosts, promote their prefixes).
        The driver maps it onto the ``ghost_queries`` vs
        ``adaptive_ghost_queries`` workload knobs.

    The config is hashable and comparable (sweep axes in experiments);
    :meth:`build` mints a fresh, independently-metered
    :class:`~repro.adversary.budget.AttackBudget` per call.
    """

    max_trials: int | None = None
    requests_per_s: float | None = None
    deadline_s: float | None = None
    strategy: str = "static"

    def __post_init__(self) -> None:
        if self.strategy not in ("static", "adaptive"):
            raise ParameterError(
                f"strategy must be 'static' or 'adaptive', got {self.strategy!r}"
            )
        if self.max_trials is not None and self.max_trials <= 0:
            raise ParameterError("max_trials must be positive (or None)")
        if self.requests_per_s is not None and self.requests_per_s <= 0:
            raise ParameterError("requests_per_s must be positive (or None)")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ParameterError("deadline_s must be positive (or None)")

    @property
    def adaptive(self) -> bool:
        """True for the answer-feedback strategy."""
        return self.strategy == "adaptive"

    def build(self, **overrides):
        """A fresh :class:`~repro.adversary.budget.AttackBudget` with
        these bounds (``overrides`` reach the constructor, e.g. a pinned
        test clock)."""
        from repro.adversary.budget import AttackBudget

        return AttackBudget(
            max_trials=self.max_trials,
            requests_per_s=self.requests_per_s,
            deadline_s=self.deadline_s,
            **overrides,
        )

    def describe(self) -> str:
        """Short label for experiment tables (e.g. ``"3000t@2000/s"``)."""
        trials = f"{self.max_trials}t" if self.max_trials is not None else "inf"
        parts = [trials]
        if self.requests_per_s is not None:
            parts.append(f"@{self.requests_per_s:g}/s")
        if self.deadline_s is not None:
            parts.append(f"<{self.deadline_s:g}s")
        return "".join(parts)
