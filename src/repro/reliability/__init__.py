"""The reliability layer: error taxonomy and fault injection.

SPORES' soundness property (every optimized plan is semantically equal to
its input) gives an optimizer failure a *correct* fallback: execute the
unoptimized baseline plan.  The same property makes an execution error
deterministic — a pure plan fails the same way on every attempt and every
serving thread — so nothing retries or requeues it; the request's future
carries the error.  This package supplies the two pieces the serving
stack builds that story from:

* :mod:`repro.reliability.errors` — the typed taxonomy of the failures
  the pipeline survives (store IO, optimizer budget, deadlines, close).
* :class:`FaultInjector` — a seeded, deterministic fault-schedule engine
  with named injection sites (``store.read``, ``store.write``,
  ``optimizer.saturate``) threaded through the real code paths behind the
  no-op :data:`NO_FAULTS` default, so chaos tests and the resilience
  benchmark replay exact failure sequences.
"""

from repro.reliability.errors import (
    DeadlineExceededError,
    EngineClosedError,
    OptimizerBudgetExceeded,
    PlanStoreError,
    ReliabilityError,
)
from repro.reliability.faults import NO_FAULTS, SITES, FaultInjector, FaultRule

__all__ = [
    "ReliabilityError",
    "PlanStoreError",
    "OptimizerBudgetExceeded",
    "DeadlineExceededError",
    "EngineClosedError",
    "FaultInjector",
    "FaultRule",
    "NO_FAULTS",
    "SITES",
]
