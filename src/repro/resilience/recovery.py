"""Integrity-violation recovery: retry, classify, apply policy.

A real memory controller cannot treat every MAC mismatch as fatal: a bus
glitch or a marginal DRAM cell produces a *transient* corruption that a
re-read would not reproduce, while actual tampering is *persistent* — the
stored image itself is wrong, so re-reading returns the same bad bytes
forever.  The :class:`RecoveryController` encodes that distinction:

1. **detect** — a verify path raises :class:`IntegrityViolation`;
2. **retry** — re-fetch the block up to ``max_retries`` times with bounded
   exponential backoff plus seeded jitter, re-verifying each image;
3. **classify** — a verify success inside the budget is *transient* (the
   recovered image is returned and the access proceeds); exhausting the
   budget is *persistent*;
4. **policy** — persistent faults are handled per
   :class:`~repro.core.config.RecoveryPolicy`: ``halt`` raises
   :class:`RecoveryHalted`, ``quarantine_page`` fences the affected pages
   and raises :class:`QuarantinedPageError` (later accesses to a fenced
   page fail fast at the public API), ``degrade`` serves the unverified
   image and counts the exposure.

Functional time does not advance, so the backoff here contributes cycle
*accounting* (``stats.backoff_cycles``) rather than wall-clock delay.  The
timing model charges no recovery: a simulated run never retries, and its
cycles do not include this schedule.

``RecoveryHalted`` and ``QuarantinedPageError`` subclass
:class:`IntegrityViolation` so every existing ``except IntegrityViolation``
site — the attack suite, the fuzz oracle — classifies a persistent-tamper
termination as a detection without rewrites.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.auth.errors import IntegrityViolation
from repro.core.config import RecoveryConfig, RecoveryPolicy
from repro.obs.metrics import reset_fields
from repro.obs.tracer import Tracer

__all__ = [
    "IntegrityViolation",
    "QuarantinedPageError",
    "RecoveryConfig",
    "RecoveryController",
    "RecoveryEvent",
    "RecoveryHalted",
    "RecoveryPolicy",
    "RecoveryStats",
    "backoff_delay",
]


class RecoveryHalted(IntegrityViolation):
    """Persistent integrity failure under the ``halt`` policy."""

    def __init__(self, message: str, *, address: int | None = None,
                 attempts: int = 0) -> None:
        super().__init__(message, kind="halt", address=address)
        self.attempts = attempts


class QuarantinedPageError(IntegrityViolation):
    """Access touched a page fenced by the ``quarantine_page`` policy."""

    def __init__(self, message: str, *, address: int | None = None,
                 page: int | None = None) -> None:
        super().__init__(message, kind="quarantine", address=address)
        self.page = page


def backoff_delay(config: RecoveryConfig, attempt: int,
                  rng: random.Random) -> float:
    """Cycles to wait before retry ``attempt`` (1-based), with jitter."""
    base = config.backoff_base_cycles * config.backoff_factor ** (attempt - 1)
    jitter = base * config.jitter_fraction
    return max(0.0, base + rng.uniform(-jitter, jitter))


@dataclass
class RecoveryStats:
    """Recovery activity, registered under ``recovery.*`` in the metrics."""

    violations: int = 0
    retries: int = 0
    transient_recoveries: int = 0
    persistent_faults: int = 0
    quarantined_pages: int = 0
    degraded_accesses: int = 0
    halts: int = 0
    backoff_cycles: float = 0.0

    def reset(self) -> None:
        reset_fields(self)


@dataclass
class RecoveryEvent:
    """One recovery episode, kept for post-mortem triage."""

    address: int
    label: str
    verdict: str            # "transient" | "persistent"
    attempts: int
    backoff_cycles: float
    detail: str

    def to_dict(self) -> dict:
        return {
            "address": self.address,
            "label": self.label,
            "verdict": self.verdict,
            "attempts": self.attempts,
            "backoff_cycles": self.backoff_cycles,
            "detail": self.detail,
        }


class RecoveryController:
    """Retry/classify/policy engine shared by the functional layer."""

    def __init__(self, config: RecoveryConfig, *, page_bytes: int = 4096,
                 tracer: Tracer | None = None):
        self.config = config
        self.page_bytes = page_bytes
        self.tracer = tracer
        self.stats = RecoveryStats()
        self.events: list[RecoveryEvent] = []
        self.quarantined: set[int] = set()
        self.degraded: set[int] = set()
        self._rng = random.Random(config.seed)

    # -- fencing -----------------------------------------------------------

    def page_of(self, address: int) -> int:
        return address // self.page_bytes

    def check_fence(self, address: int) -> None:
        """Fail fast when an access touches a quarantined page."""
        page = self.page_of(address)
        if page in self.quarantined:
            raise QuarantinedPageError(
                f"address {address:#x} is on quarantined page {page}",
                address=address, page=page,
            )

    # -- the recovery loop -------------------------------------------------

    def recover(self, *, address: int, label: str,
                violation: IntegrityViolation, reread, verify,
                quarantine_addresses=None) -> bytes:
        """Run detect → retry → classify → policy for one failed fetch.

        ``reread()`` re-fetches the raw block image, ``verify(image)``
        re-runs the integrity check (raising on mismatch).  Returns the
        verified image on transient recovery; otherwise applies the policy.
        """
        cfg = self.config
        self.stats.violations += 1
        tracer = self.tracer
        backoff = 0.0
        image = None
        last = violation
        for attempt in range(1, cfg.max_retries + 1):
            backoff += backoff_delay(cfg, attempt, self._rng)
            self.stats.retries += 1
            image = reread()
            try:
                verify(image)
            except IntegrityViolation as exc:
                last = exc
                continue
            self.stats.transient_recoveries += 1
            self.stats.backoff_cycles += backoff
            self._record(address, label, "transient", attempt, backoff,
                         str(violation), tracer)
            return image
        self.stats.persistent_faults += 1
        self.stats.backoff_cycles += backoff
        self._record(address, label, "persistent", cfg.max_retries, backoff,
                     str(last), tracer)
        if cfg.policy is RecoveryPolicy.DEGRADE:
            if image is None:
                image = reread()
            self.stats.degraded_accesses += 1
            self.degraded.add(address)
            return image
        if cfg.policy is RecoveryPolicy.QUARANTINE_PAGE:
            pages = {self.page_of(a)
                     for a in (quarantine_addresses or [address])}
            self.stats.quarantined_pages += len(pages - self.quarantined)
            self.quarantined |= pages
            raise QuarantinedPageError(
                f"persistent fault at {address:#x} ({label}); quarantined "
                f"page(s) {sorted(pages)}",
                address=address, page=self.page_of(address),
            ) from last
        self.stats.halts += 1
        raise RecoveryHalted(
            f"persistent fault at {address:#x} ({label}) after "
            f"{cfg.max_retries} retries: {last}",
            address=address, attempts=cfg.max_retries,
        ) from last

    def _record(self, address: int, label: str, verdict: str, attempts: int,
                backoff: float, detail: str, tracer: Tracer | None) -> None:
        self.events.append(RecoveryEvent(address, label, verdict, attempts,
                                         backoff, detail))
        if tracer is not None and tracer.enabled:
            tracer.instant("recovery", verdict, float(len(self.events)),
                           address=address, label=label, attempts=attempts,
                           backoff_cycles=backoff)

    # -- checkpoint support ------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "quarantined": set(self.quarantined),
            "degraded": set(self.degraded),
            "rng": self._rng.getstate(),
            "events": [e.to_dict() for e in self.events],
            "stats": {
                "violations": self.stats.violations,
                "retries": self.stats.retries,
                "transient_recoveries": self.stats.transient_recoveries,
                "persistent_faults": self.stats.persistent_faults,
                "quarantined_pages": self.stats.quarantined_pages,
                "degraded_accesses": self.stats.degraded_accesses,
                "halts": self.stats.halts,
                "backoff_cycles": self.stats.backoff_cycles,
            },
        }

    def load_state(self, state: dict) -> None:
        self.quarantined = set(state["quarantined"])
        self.degraded = set(state["degraded"])
        rng_state = state["rng"]
        self._rng.setstate((rng_state[0], tuple(rng_state[1]), rng_state[2]))
        self.events = [RecoveryEvent(**e) for e in state["events"]]
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)
