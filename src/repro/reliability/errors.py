"""The typed error taxonomy of the reliability layer.

Every failure the serving pipeline can survive is classified here.  The
taxonomy leans on SPORES' core soundness property: an optimized plan is
*semantically equal* to its input (R_EQ), so an optimizer failure has a
correct fallback — execute the unoptimized baseline plan.  The same
property makes every plan a pure function of its inputs, so an execution
error is deterministic: it fails the same way on every attempt and every
thread, and the request's future carries it.  Nothing in the
compile/cache/store/serve pipeline is allowed to turn into a wrong
answer; the only terminal outcomes are a correct result or a typed,
attributable error.

=======================  ===============================================
error                    meaning
=======================  ===============================================
PlanStoreError           store tier IO fault (read or write); demoted to
                         cache-miss / skip-persist
OptimizerBudgetExceeded  saturation overran its budget; fall back to the
                         baseline plan
DeadlineExceededError    the request's own latency budget is spent; shed
EngineClosedError        the engine is shutting down; pending futures
                         fail fast instead of blocking
=======================  ===============================================
"""

from __future__ import annotations


class ReliabilityError(Exception):
    """Base of the serving-pipeline error taxonomy."""


class PlanStoreError(ReliabilityError, OSError):
    """A persistent-store read or write failed.

    Subclasses :class:`OSError` deliberately: the store's own corruption-
    tolerance paths treat every IO failure as a miss (reads) or a skipped
    persist (writes), so an injected ``store.read``/``store.write`` fault
    flows through exactly the handling a real disk fault would — the store
    degrades, the request never fails.
    """


class OptimizerBudgetExceeded(ReliabilityError):
    """Equality saturation overran its wall-clock/iteration budget.

    The same expression would overrun again.  The session answers it by
    *degrading*: the unoptimized baseline plan is executed instead (sound
    by construction, R_EQ keeps every rewrite semantically equal to the
    input) and the request is marked ``degraded`` in stats.
    """


class DeadlineExceededError(ReliabilityError, TimeoutError):
    """A request's latency budget is spent; it is shed unserved.

    Raised (via the request future) by the worker shedding path — the
    deadline is an absolute bound.
    """


class EngineClosedError(ReliabilityError, RuntimeError):
    """The serving engine is closed; the request cannot be served.

    Resolved onto every future still pending when :meth:`ServingEngine.close`
    drains the queues, and raised synchronously by submissions that arrive
    after close — submitters fail fast instead of blocking on back-pressure
    against workers that will never drain them.  Subclasses
    :class:`RuntimeError` so callers of the pre-taxonomy API (which raised
    a bare ``RuntimeError`` here) keep working unchanged.
    """


__all__ = [
    "ReliabilityError",
    "PlanStoreError",
    "OptimizerBudgetExceeded",
    "DeadlineExceededError",
    "EngineClosedError",
]
