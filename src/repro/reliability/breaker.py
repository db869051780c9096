"""Per-shard circuit breakers.

A :class:`CircuitBreaker` protects the rest of the pool from a shard that
keeps failing: after ``failure_threshold`` *consecutive* failures the
breaker **opens** and the engine routes that shard's traffic to sibling
shards (correctness is unaffected — every shard serves from the engine's
one session; only the template co-location optimization is temporarily
lost).
After ``reset_timeout`` seconds the breaker goes **half-open** and admits
up to ``half_open_probes`` probe requests: one success closes it, one
failure re-opens it for another full timeout.

The breaker is deliberately time-based on recovery, not count-based: a
shard that keeps failing is usually sick for a while (a bad input source,
a wedged dependency), so probes are worth sending only after some
wall-clock time.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable, Dict

from repro import obs

#: breaker states, in the conventional nomenclature
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

logger = logging.getLogger(__name__)

_TRANSITIONS = {
    transition: obs.registry().counter(
        "breaker_transitions_total",
        "Circuit-breaker state transitions",
        transition=transition,
    )
    for transition in ("opened", "closed")
}


class CircuitBreaker:
    """Consecutive-failure breaker with timed half-open recovery probes.

    Thread-safe; shared between the engine's submit path (``allow``) and
    the shard worker's serve path (``record_success``/``record_failure``).
    The injectable ``clock`` keeps tests deterministic.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 1.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        #: monotonic counters for health snapshots
        self.trips = 0
        self.successes = 0
        self.failures = 0

    # -- the gate --------------------------------------------------------------
    def allow(self) -> bool:
        """May a request be routed through the guarded shard right now?

        Closed: always.  Open: no — until ``reset_timeout`` has elapsed,
        at which point the breaker transitions to half-open and admits up
        to ``half_open_probes`` concurrent probes.  Half-open: only while
        a probe slot is free.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at < self.reset_timeout:
                    return False
                self._state = HALF_OPEN
                self._probes_in_flight = 0
            if self._probes_in_flight < self.half_open_probes:
                self._probes_in_flight += 1
                return True
            return False

    # -- outcome reports -------------------------------------------------------
    def record_success(self) -> None:
        """A request through this shard completed; heal the breaker."""
        healed = False
        with self._lock:
            self.successes += 1
            self._consecutive_failures = 0
            if self._state != CLOSED:
                self._state = CLOSED
                self._probes_in_flight = 0
                healed = True
        if healed:
            _TRANSITIONS["closed"].inc()
            logger.info("circuit breaker closed (probe succeeded)")

    def record_failure(self) -> None:
        """A request through this shard failed; trip on the threshold.

        A failure in half-open state re-opens immediately — the probe
        proved the shard is still sick — and restarts the recovery timer.
        """
        tripped = False
        with self._lock:
            self.failures += 1
            self._consecutive_failures += 1
            if self._state == HALF_OPEN or (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = self._clock()
                self._probes_in_flight = 0
                self.trips += 1
                tripped = True
                failures = self._consecutive_failures
        if tripped:
            _TRANSITIONS["opened"].inc()
            logger.warning(
                "circuit breaker opened after %d consecutive failure(s)", failures
            )

    # -- introspection ---------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, surfacing the timed open -> half-open transition."""
        with self._lock:
            if (
                self._state == OPEN
                and self._clock() - self._opened_at >= self.reset_timeout
            ):
                return HALF_OPEN
            return self._state

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable view for :meth:`ServingEngine.health`."""
        state = self.state
        with self._lock:
            return {
                "state": state,
                "consecutive_failures": self._consecutive_failures,
                "trips": self.trips,
                "successes": self.successes,
                "failures": self.failures,
            }


__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]
