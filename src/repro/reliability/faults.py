"""Deterministic fault injection for chaos tests and resilience benchmarks.

A :class:`FaultInjector` is a seeded, replayable fault-schedule engine.
The real code paths carry **named injection sites** — one ``check`` call
each, behind the no-op :data:`NO_FAULTS` default, so production traffic
pays a single attribute load:

========================  ====================================================
site                      where it fires, and its fault contract
========================  ====================================================
``store.read``            inside :meth:`PlanStore._load_payload`'s IO block;
                          an injected :class:`PlanStoreError` is handled as a
                          real disk fault — counted, demoted to a cache miss
``store.write``           inside :meth:`PlanStore._write_atomic`'s IO block;
                          handled as a failed persist — counted, skipped,
                          the in-memory plan stays authoritative
``optimizer.saturate``    in the pipeline, before each region's saturation
                          run; :class:`OptimizerBudgetExceeded` triggers the
                          session's degraded-mode baseline fallback
========================  ====================================================

Schedules are **deterministic**: each site keeps an invocation counter
(atomic under a lock), and a :class:`FaultRule` fires either on counter
arithmetic (``start``/``every``/``count``) or on a seeded pseudo-random
``rate`` — a CRC32 of ``(seed, site, n)``, pure arithmetic, identical on
every replay.  Every fired fault is appended to :attr:`FaultInjector.fired`
so tests can assert the exact failure sequence they injected.
"""

from __future__ import annotations

import logging
import threading
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro import obs

logger = logging.getLogger(__name__)

#: the injection-site names the real code paths carry
SITES = ("store.read", "store.write", "optimizer.saturate")

#: what a rule raises: an exception type (instantiated with a descriptive
#: message) or a factory called with that message
ErrorSpec = Union[Type[BaseException], Callable[[str], BaseException]]

#: injected faults by site (no-ops until obs is enabled); one series per
#: site so a chaos run's fault mix is visible in the exposition
_INJECTED = {
    site: obs.registry().counter(
        "faults_injected_total", "Faults fired by the injection schedule", site=site
    )
    for site in SITES
}


@dataclass(frozen=True)
class FaultRule:
    """One line of a fault schedule: when ``site`` fires, and with what.

    Exactly one trigger applies: with ``rate`` set, the rule fires on a
    seeded pseudo-random ``rate`` fraction of invocations; otherwise it
    fires on invocation indices ``start, start+every, start+2*every, ...``
    for at most ``count`` firings (``None`` = forever).  ``key`` restricts
    the rule to invocations whose site key matches exactly (e.g. one
    workload's digest), empty matches everything.
    """

    site: str
    error: ErrorSpec
    #: first 0-based invocation index of the site that can fire
    start: int = 0
    #: fire every Nth matching invocation from ``start``
    every: int = 1
    #: total firings allowed (``None`` = unbounded)
    count: Optional[int] = None
    #: seeded pseudo-random firing fraction in (0, 1]; overrides the
    #: counter arithmetic when set
    rate: Optional[float] = None
    #: restrict to invocations carrying exactly this key ("" = any)
    key: str = ""

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown injection site {self.site!r}; known: {SITES}")
        if self.every < 1:
            raise ValueError("every must be >= 1")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1 (or None)")
        if self.rate is not None and not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")


class FaultInjector:
    """A seeded, deterministic schedule of faults over named sites.

    Thread-safe: pool threads, inline callers and submitting threads
    may all hit sites concurrently; counters and the fired log are guarded
    by one lock.  Determinism is per *site counter* — under concurrency
    the interleaving of sites can vary, but each site's Nth invocation
    always sees the same verdict, which is what schedule replays assert.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        #: chronological log of fired faults: (site, invocation, key, error class)
        self.fired: List[Tuple[str, int, str, str]] = []
        self._counters: Dict[str, int] = {}
        self._fired_per_rule: Dict[int, int] = {}
        self._lock = threading.Lock()
        #: set False to silence the whole schedule without unthreading it
        self.enabled = True

    # -- the one call sites make -----------------------------------------------
    def check(self, site: str, key: str = "") -> None:
        """Advance ``site``'s counter; raise if the schedule says so.

        Called by the real code paths on every invocation of the site.
        Raises the scheduled error (recording it in :attr:`fired`) or
        returns normally.  Sites pass a stable ``key`` (a store file name,
        a region index) so schedules can target specific work.
        """
        if not self.enabled:
            return
        error: Optional[BaseException] = None
        with self._lock:
            n = self._counters.get(site, 0)
            self._counters[site] = n + 1
            for index, rule in enumerate(self.rules):
                if rule.site != site or (rule.key and rule.key != key):
                    continue
                if not self._triggers(rule, index, n):
                    continue
                self._fired_per_rule[index] = self._fired_per_rule.get(index, 0) + 1
                error = self._make_error(rule, site, n, key)
                self.fired.append((site, n, key, type(error).__name__))
                break
        if error is not None:
            _INJECTED[site].inc()
            logger.info("injected fault at %s: %s", site, error)
            raise error

    def _triggers(self, rule: FaultRule, index: int, n: int) -> bool:
        if rule.count is not None and self._fired_per_rule.get(index, 0) >= rule.count:
            return False
        if rule.rate is not None:
            draw = zlib.crc32(f"{self.seed}:{rule.site}:{index}:{n}".encode()) / 0xFFFFFFFF
            return draw < rule.rate
        return n >= rule.start and (n - rule.start) % rule.every == 0

    @staticmethod
    def _make_error(rule: FaultRule, site: str, n: int, key: str) -> BaseException:
        message = f"injected {site} fault (invocation {n}" + (f", key {key!r})" if key else ")")
        return rule.error(message)

    # -- introspection ---------------------------------------------------------
    def counter(self, site: str) -> int:
        """How many times ``site`` has been checked so far."""
        with self._lock:
            return self._counters.get(site, 0)

    def fired_at(self, site: str) -> List[Tuple[str, int, str, str]]:
        """The fired log filtered to one site (chronological)."""
        with self._lock:
            return [entry for entry in self.fired if entry[0] == site]

    def describe(self) -> Dict[str, object]:
        """JSON-serializable schedule summary for benchmark records."""
        with self._lock:
            return {
                "seed": self.seed,
                "rules": len(self.rules),
                "checked": dict(self._counters),
                "fired": len(self.fired),
                "fired_by_site": {
                    site: sum(1 for entry in self.fired if entry[0] == site)
                    for site in sorted({entry[0] for entry in self.fired})
                },
            }


class _NoFaults(FaultInjector):
    """The always-quiet injector threaded through production paths.

    ``check`` is a constant no-op — no counters, no lock — so leaving the
    sites compiled into the hot paths costs one method call.
    """

    def __init__(self) -> None:
        super().__init__(())
        self.enabled = False

    def check(self, site: str, key: str = "") -> None:  # noqa: ARG002
        return None


#: the shared no-op default every site falls back to
NO_FAULTS = _NoFaults()

__all__ = ["FaultInjector", "FaultRule", "NO_FAULTS", "SITES"]
