"""The reliability layer: error taxonomy, retries, fault injection.

SPORES' soundness property (every optimized plan is semantically equal to
its input) makes aggressive fault tolerance cheap: any failure between
"request arrived" and "result computed" has a *correct* fallback — retry
the pure computation, or execute the unoptimized baseline plan.  Sending it
to a sibling shard is no fallback: every shard serves from one session and
one result cache, so a sibling fails the same way.  This package supplies
the three mechanisms the serving stack builds that story from:

* :mod:`repro.reliability.errors` — the typed taxonomy; every class
  carries a ``retriable`` flag, the single bit retry and supervision key
  on.
* :class:`RetryPolicy` — bounded exponential backoff with deterministic
  jitter and per-error-class budgets; deadline-aware, so a retried
  request never outlives its latency budget.
* :class:`FaultInjector` — a seeded, deterministic fault-schedule engine
  with named injection sites (``store.read``, ``store.write``,
  ``shard.execute``, ``optimizer.saturate``, ``tape.step``) threaded
  through the real code paths behind the no-op :data:`NO_FAULTS`
  default, so chaos tests and the resilience benchmark replay exact
  failure sequences.
"""

from repro.reliability.errors import (
    DeadlineExceededError,
    EngineClosedError,
    ExecutionError,
    OptimizerBudgetExceeded,
    PlanStoreError,
    ReliabilityError,
    ShardCrashError,
    is_retriable,
)
from repro.reliability.faults import NO_FAULTS, SITES, FaultInjector, FaultRule
from repro.reliability.retry import NO_RETRY, RetryPolicy

__all__ = [
    "ReliabilityError",
    "PlanStoreError",
    "ShardCrashError",
    "ExecutionError",
    "OptimizerBudgetExceeded",
    "DeadlineExceededError",
    "EngineClosedError",
    "is_retriable",
    "RetryPolicy",
    "NO_RETRY",
    "FaultInjector",
    "FaultRule",
    "NO_FAULTS",
    "SITES",
]
