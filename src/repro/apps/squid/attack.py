"""The cache-digest pollution attack (paper Section 7).

Setup mirrors the paper: two sibling proxies, a clean cache of 51 URLs
on proxy1, and a malicious client of proxy1 who fetches 100 crafted
URLs through it.  The crafted URLs pollute proxy1's cache digest (each
sets 4 fresh bits).  After the digest exchange, a client of proxy2
issues 100 probe requests for URLs cached nowhere; every probe that
proxy1's digest wrongly claims costs proxy2 a wasted 10 ms round trip.

The attack is compared against an *unpolluted* control where the same
100 insertions are ordinary URLs.  (The paper reports 79 % vs 40 % false
hits; see EXPERIMENTS.md for our measured rates and a discussion of the
baseline discrepancy.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.adversary.pollution import PollutionAttack
from repro.apps.squid.siblings import SiblingPair, make_sibling_pair
from repro.core.cache_digest import CacheDigest
from repro.exceptions import ParameterError
from repro.urlgen.faker import UrlFactory

__all__ = ["CacheDigestAttackReport", "CacheDigestAttack"]


@dataclass(frozen=True)
class CacheDigestAttackReport:
    """Measured outcome of one scenario (attacked or control)."""

    polluted: bool
    clean_urls: int
    added_urls: int
    digest_bits: int
    digest_weight: int
    probes: int
    false_hits: int
    added_latency_ms: float

    @property
    def false_hit_rate(self) -> float:
        """Fraction of probes that wasted a sibling round trip."""
        return self.false_hits / self.probes if self.probes else 0.0


class _DigestShim:
    """Adapts a CacheDigest to the attack engine's TargetFilter protocol."""

    def __init__(self, digest: CacheDigest) -> None:
        self._digest = digest
        self.m = digest.m
        self.k = digest.k
        self.strategy = self  # the digest *is* its own index rule

    # IndexStrategy interface -------------------------------------------------
    name = "squid-md5-split"

    def indexes(self, item: str | bytes, k: int, m: int) -> tuple[int, ...]:
        return self._digest.indexes(item)

    # TargetFilter interface --------------------------------------------------
    def add(self, item: str | bytes) -> bool:
        return self._digest.add(item)

    @property
    def hamming_weight(self) -> int:
        return self._digest.hamming_weight

    def current_fpp(self) -> float:
        return self._digest.current_fpp()

    @property
    def bits(self):  # bit_oracle support
        return self._digest.bits


class CacheDigestAttack:
    """Run the polluted and control scenarios on fresh sibling pairs."""

    def __init__(
        self,
        clean_urls: int = 51,
        added_urls: int = 100,
        probes: int = 100,
        sibling_rtt_ms: float = 10.0,
        seed: int = 0x5C1D,
    ) -> None:
        if min(clean_urls, added_urls, probes) < 0:
            raise ParameterError("counts must be non-negative")
        self.clean_urls = clean_urls
        self.added_urls = added_urls
        self.probes = probes
        self.sibling_rtt_ms = sibling_rtt_ms
        self.seed = seed

    # ------------------------------------------------------------------

    def _seed_clean_cache(self, pair: SiblingPair) -> list[str]:
        factory = UrlFactory(seed=self.seed)
        urls = factory.urls(self.clean_urls)
        for url in urls:
            pair.proxy1.client_fetch(url)
        return urls

    def _craft_pollution_urls(self, pair: SiblingPair) -> list[str]:
        """Craft URLs against a shadow of proxy1's *future* digest.

        The digest is deterministic in the cached URL set, so the
        adversary simulates it: clean URLs first, then her crafted ones,
        each chosen to set 4 fresh bits of the final 5n+7-bit digest.
        The shadow is sized for the final entry count -- the adversary
        knows how many URLs she will add.
        """
        final_count = self.clean_urls + self.added_urls
        shadow = CacheDigest(final_count)
        for url in pair.proxy1.cache:
            shadow.add(url)
        shim = _DigestShim(shadow)
        factory = UrlFactory(seed=self.seed ^ 0xA77)
        prefix = "http://attacker.example"
        attack = PollutionAttack(
            shim,
            candidates=partial(factory.candidate_batch, prefix=prefix),
        )
        report = attack.run(self.added_urls, insert=True)
        return report.items

    def _honest_urls(self) -> list[str]:
        return UrlFactory(seed=self.seed ^ 0xBEEF).urls(self.added_urls)

    # ------------------------------------------------------------------

    def run_scenario(self, polluted: bool) -> CacheDigestAttackReport:
        """One full scenario on a fresh pair; ``polluted`` picks crafted
        versus ordinary added URLs."""
        pair = make_sibling_pair(sibling_rtt_ms=self.sibling_rtt_ms)
        self._seed_clean_cache(pair)

        added = (
            self._craft_pollution_urls(pair) if polluted else self._honest_urls()
        )
        for url in added:
            pair.proxy1.client_fetch(url)

        # But the digest is built at capacity = current entries: the
        # adversary anticipated that in her shadow.
        pair.exchange_digests()
        digest = pair.proxy1.digest
        assert digest is not None

        probe_factory = UrlFactory(seed=self.seed ^ 0xF00D)
        false_hits = 0
        added_latency = 0.0
        for _ in range(self.probes):
            url = probe_factory.url()
            outcome = pair.proxy2.client_fetch(url)
            false_hits += outcome.sibling_false_hits
            added_latency += outcome.sibling_false_hits * self.sibling_rtt_ms

        return CacheDigestAttackReport(
            polluted=polluted,
            clean_urls=self.clean_urls,
            added_urls=self.added_urls,
            digest_bits=digest.m,
            digest_weight=digest.hamming_weight,
            probes=self.probes,
            false_hits=false_hits,
            added_latency_ms=added_latency,
        )

    def run(self) -> tuple[CacheDigestAttackReport, CacheDigestAttackReport]:
        """Both scenarios: (polluted, control)."""
        return self.run_scenario(polluted=True), self.run_scenario(polluted=False)
