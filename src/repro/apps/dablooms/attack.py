"""The three attacks on the Dablooms spam filter (paper Section 6.2).

* **Pollution** -- the adversary's reported URLs are crafted so each
  sets k fresh counters in the active slice; Fig. 8 plots the compound
  false-positive probability F against how many of the lambda slices she
  polluted (she may arrive late and only poison the last i).
* **Deletion** -- MurmurHash inversion forges a second pre-image of any
  victim URL (identical 128-bit hash, hence identical counters);
  retracting the forgery erases the victim.
* **Counter overflow** -- single-counter keys wrap the 4-bit counters so
  a "full" slice holds nothing (delegated to
  :class:`~repro.adversary.overflow.CounterOverflowAttack`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.adversary.overflow import CounterOverflowAttack, OverflowReport, plan_overflow
from repro.adversary.pollution import PollutionAttack
from repro.apps.dablooms.service import ShorteningService
from repro.exceptions import ParameterError
from repro.hashing.inversion import invert_murmur3_x64_128
from repro.hashing.kirsch_mitzenmacher import KirschMitzenmacherStrategy
from repro.urlgen.faker import UrlFactory

__all__ = [
    "SlicePollutionReport",
    "DabloomsPollutionAttack",
    "SecondPreimageDeletion",
    "DabloomsOverflowAttack",
]


@dataclass
class SlicePollutionReport:
    """Fig. 8 raw data: compound F after each slice is filled."""

    polluted_slices: list[int] = field(default_factory=list)
    compound_fpp_after: list[float] = field(default_factory=list)
    crafting_trials: int = 0

    @property
    def final_fpp(self) -> float:
        """Compound F once all slices are filled."""
        return self.compound_fpp_after[-1] if self.compound_fpp_after else 0.0


class DabloomsPollutionAttack:
    """Fill a service's Dablooms slices, polluting a chosen subset.

    Parameters
    ----------
    service:
        The shortening service under attack.
    seed:
        Seed for both honest filler URLs and crafted candidates.
    """

    def __init__(self, service: ShorteningService, seed: int = 0xDAB) -> None:
        self.service = service
        self.seed = seed

    def run(self, total_slices: int, polluted_last: int) -> SlicePollutionReport:
        """Fill ``total_slices`` slices; pollute only the last
        ``polluted_last`` of them (``polluted_last = total_slices`` is
        the paper's "full attack").

        Honest slices receive realistic malicious-looking URLs; polluted
        slices receive crafted ones.  The compound F is sampled after
        each slice fills -- the x axis of Fig. 8.
        """
        if polluted_last < 0 or polluted_last > total_slices:
            raise ParameterError("polluted_last must be in [0, total_slices]")
        blocklist = self.service.blocklist
        capacity = blocklist.slice_capacity
        honest = UrlFactory(seed=self.seed)
        report = SlicePollutionReport()

        for slice_index in range(total_slices):
            # Dablooms scales lazily on the next insertion; force the new
            # slice now so crafting targets the slice the reports will
            # actually land in.
            if blocklist.slice_fill(blocklist.slice_count - 1) >= capacity:
                blocklist.force_scale()
            pollute = slice_index >= total_slices - polluted_last
            if pollute:
                factory = UrlFactory(seed=self.seed ^ (slice_index + 1))
                prefix = "http://phish.example"
                attack = PollutionAttack(
                    blocklist.active_slice,
                    candidates=partial(factory.candidate_batch, prefix=prefix),
                )
                for _ in range(capacity):
                    crafted = attack.craft_one()
                    self.service.report_malicious(crafted.item)
                report.crafting_trials += attack.engine.total_trials
                report.polluted_slices.append(slice_index)
            else:
                for _ in range(capacity):
                    self.service.report_malicious(honest.url())
            report.compound_fpp_after.append(blocklist.compound_fpp(current=True))
        return report


class SecondPreimageDeletion:
    """Erase a victim URL via a constant-time MurmurHash second pre-image.

    Because Dablooms derives *all* counters from one murmur128 value,
    any input with the same 128-bit hash shares the victim's entire
    index set; retracting the forgery decrements exactly the victim's
    counters.
    """

    def __init__(self, service: ShorteningService, seed: int = 0) -> None:
        strategy = service.blocklist.strategy
        if not isinstance(strategy, KirschMitzenmacherStrategy):
            raise ParameterError(
                "second pre-image forgery needs the Kirsch-Mitzenmacher/Murmur "
                "strategy Dablooms uses"
            )
        self.service = service
        self.strategy = strategy
        self.murmur_seed = seed

    def forge_doppelganger(self, victim: str | bytes) -> bytes:
        """A distinct key with the same murmur128 pair as ``victim``."""
        h1, h2 = self.strategy.pair(victim)
        forged = invert_murmur3_x64_128(h1, h2, seed=self.murmur_seed)
        victim_bytes = victim.encode("utf-8") if isinstance(victim, str) else victim
        if forged == victim_bytes:  # pragma: no cover - needs a 16-byte victim
            raise ParameterError("forgery collided with the victim itself")
        return forged

    def erase(self, victim: str | bytes) -> bool:
        """Remove ``victim`` from the blocklist without ever knowing how
        it was inserted; True if the victim now passes the filter."""
        forged = self.forge_doppelganger(victim)
        self.service.retract_malicious(forged)
        return not self.service.is_blocked(victim)


class DabloomsOverflowAttack:
    """Drive the counter-overflow wipe against a service's active slice."""

    def __init__(self, service: ShorteningService, seed: int = 0) -> None:
        self.service = service
        self.seed = seed

    def run(self, n: int | None = None) -> OverflowReport:
        """Insert ``n`` forged reports (default: one slice capacity).

        Afterwards the slice's insertion counter says "full" while its
        counters are (almost) all zero: Dablooms scales to a new slice
        and the memory is wasted -- the paper's "empty filters make
        Dablooms bigger and useless".
        """
        blocklist = self.service.blocklist
        count = blocklist.slice_capacity if n is None else n
        target_slice = blocklist.active_slice
        forger = CounterOverflowAttack(target_slice, seed=self.seed)
        plan = plan_overflow(
            count, target_slice.k, target_slice.counters.counter_bits, target_slice.m
        )
        overflow_before = target_slice.counters.overflow_events
        report = OverflowReport()
        # Route insertions through the service so slice bookkeeping
        # (insert counters, scaling) sees them, exactly like real reports.
        for counter, item_count in plan.assignments.items():
            for variant in range(item_count):
                key = forger.forge_key(counter, variant)
                self.service.report_malicious(key)
                report.forged_keys.append(key)
                report.items_inserted += 1
        report.nonzero_counters_after = target_slice.counters.nonzero_count()
        report.overflow_events = (
            target_slice.counters.overflow_events - overflow_before
        )
        report.lost_keys = sum(
            1 for key in report.forged_keys if not self.service.is_blocked(key)
        )
        return report
