"""Bounded, deterministic retry policies.

A :class:`RetryPolicy` answers two questions the serving tier asks after a
failure: *may this error be retried* (the taxonomy's ``retriable`` flag
plus a per-error-class attempt budget) and *how long to back off first*
(capped exponential growth plus **deterministic jitter** — a CRC-derived
fraction of ``(seed, key, attempt)``, so two replays of the same fault
schedule back off identically and chaos tests are bit-reproducible, while
distinct requests still decorrelate instead of thundering back in step).

Deadlines always win: :meth:`RetryPolicy.delay_within` refuses any backoff
that would overrun the request's absolute deadline, so a retried request
can never outlive the latency budget its caller declared.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.reliability.errors import is_retriable


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``max_attempts`` counts *retries*, not tries: a request is executed at
    most ``max_attempts + 1`` times.  ``class_budgets`` overrides the
    budget per error class name (e.g. ``{"ExecutionError": 1}``), so a
    policy can retry cheap transient faults generously while giving
    expensive failure modes one shot.
    """

    #: default number of retries allowed after the first failure
    max_attempts: int = 3
    #: backoff before the first retry (seconds)
    base_delay: float = 0.002
    #: hard cap on any single backoff delay (seconds)
    max_delay: float = 0.25
    #: growth factor between consecutive delays
    multiplier: float = 2.0
    #: fraction of each delay replaced by deterministic jitter (0 = none)
    jitter: float = 0.5
    #: seed mixed into the jitter hash; replays with one seed are identical
    seed: int = 0
    #: per-error-class retry budgets by ``type(error).__name__``
    class_budgets: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise ValueError("max_attempts must be >= 0")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    # -- the two questions -----------------------------------------------------
    def budget_for(self, error: BaseException) -> int:
        """Retry budget for this error: its class override or the default."""
        return self.class_budgets.get(type(error).__name__, self.max_attempts)

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """May ``error`` be retried, given ``attempt`` retries already made?

        Requires both halves: the error must be retriable by taxonomy
        (:func:`~repro.reliability.errors.is_retriable`, ``False`` for
        foreign exceptions) and the class's attempt budget must not be
        spent.
        """
        return is_retriable(error) and attempt < self.budget_for(error)

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff (seconds) before retry number ``attempt`` (0-based).

        Exponential in ``attempt`` and capped at ``max_delay``; the jitter
        fraction of the delay is scaled by a CRC32 hash of
        ``(seed, key, attempt)`` — pure arithmetic, no RNG state — so the
        schedule is a deterministic function of the policy and the
        request key.
        """
        raw = min(self.base_delay * (self.multiplier ** attempt), self.max_delay)
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        fraction = zlib.crc32(f"{self.seed}:{key}:{attempt}".encode()) / 0xFFFFFFFF
        return raw * (1.0 - self.jitter) + raw * self.jitter * fraction

    def delay_within(
        self, attempt: int, key: str = "", *, now: float, deadline: Optional[float]
    ) -> Optional[float]:
        """The backoff for ``attempt`` iff it fits the absolute deadline.

        Returns ``None`` when waiting (let alone re-executing) would
        overrun ``deadline`` — the caller must shed the request with
        :class:`~repro.reliability.errors.DeadlineExceededError` instead of
        retrying past its budget.  With no deadline the delay always fits.
        """
        wait = self.delay(attempt, key)
        if deadline is not None and now + wait >= deadline:
            return None
        return wait


#: a policy that never retries — the explicit "fail fast" configuration
NO_RETRY = RetryPolicy(max_attempts=0, base_delay=0.0, jitter=0.0)

__all__ = ["RetryPolicy", "NO_RETRY"]
