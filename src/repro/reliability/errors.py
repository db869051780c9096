"""The typed error taxonomy of the reliability layer.

Every failure the serving pipeline can survive is classified here, and
every class carries a ``retriable`` flag — the single bit the retry and
requeue machinery keys on.  The taxonomy leans on SPORES' core
soundness property: an optimized plan is *semantically equal* to its
input (R_EQ), so any failure between "request arrived" and "result
computed" has a correct fallback — retry the same work, requeue it for
another serving thread, or execute the unoptimized baseline plan.  Nothing in the
compile/cache/store/serve pipeline is allowed to turn into a wrong
answer; the only terminal outcomes are a correct result or a typed,
attributable error.

Class defaults encode the *usual* story per failure mode; a constructor
override (``retriable=...``) refines it per instance — e.g. a store read
that failed on a checksum mismatch is not worth retrying even though IO
errors generally are.

=====================  =========  ==========================================
error                  retriable  meaning
=====================  =========  ==========================================
PlanStoreError         yes        store tier IO fault (read or write);
                                  demoted to cache-miss / skip-persist
ShardCrashError        yes        a serving thread died mid-batch; the
                                  engine requeues the unresolved requests
ExecutionError         yes        a transient executor fault (an injected
                                  ``tape.step`` fault, a kernel hiccup);
                                  re-running the pure plan is always sound
OptimizerBudgetExceeded no        saturation overran its budget; do not
                                  retry — fall back to the baseline plan
DeadlineExceededError  no         the request's own latency budget is
                                  spent; shed, never retried
EngineClosedError      no         the engine is shutting down; pending
                                  futures fail fast instead of blocking
=====================  =========  ==========================================
"""

from __future__ import annotations

from typing import Optional


class ReliabilityError(Exception):
    """Base of the serving-pipeline error taxonomy.

    ``retriable`` is a class default, overridable per instance: retry
    policies consult ``error.retriable`` (falling back to ``False`` for
    foreign exceptions), never the concrete type.
    """

    #: whether re-attempting the failed operation can plausibly succeed
    retriable: bool = False

    def __init__(self, *args: object, retriable: Optional[bool] = None) -> None:
        super().__init__(*args)
        if retriable is not None:
            self.retriable = retriable


class PlanStoreError(ReliabilityError, OSError):
    """A persistent-store read or write failed.

    Subclasses :class:`OSError` deliberately: the store's own corruption-
    tolerance paths treat every IO failure as a miss (reads) or a skipped
    persist (writes), so an injected ``store.read``/``store.write`` fault
    flows through exactly the handling a real disk fault would — the store
    degrades, the request never fails.
    """

    retriable = True


class ShardCrashError(ReliabilityError):
    """A serving thread crashed with work in flight.

    Raised *through* the thread serving a batch to simulate — or report —
    its death; the engine puts the batch's unresolved requests back on its
    queue, where a pool thread serves them on the engine's one session
    (every plan stays cached).
    """

    retriable = True


class ExecutionError(ReliabilityError):
    """A transient executor fault while running a compiled plan.

    Distinct from :class:`repro.runtime.engine.ExecutionError` (a
    deterministic plan/binding defect, which retrying cannot fix): this
    class models faults that are *expected to pass* — an injected
    ``tape.step`` fault, a temporarily exhausted resource.  Plans are
    pure, so re-executing is always sound.
    """

    retriable = True


class OptimizerBudgetExceeded(ReliabilityError):
    """Equality saturation overran its wall-clock/iteration budget.

    Not retriable — the same expression would overrun again.  The session
    answers it by *degrading*: the unoptimized baseline plan is executed
    instead (sound by construction, R_EQ keeps every rewrite semantically
    equal to the input) and the request is marked ``degraded`` in stats.
    """

    retriable = False


class DeadlineExceededError(ReliabilityError, TimeoutError):
    """A request's latency budget is spent; it is shed, never retried.

    Raised (via the request future) by the worker shedding path and by the
    retry loop when the next backoff delay would overrun the deadline —
    the deadline is an absolute bound, retries never extend past it.
    """

    retriable = False


class EngineClosedError(ReliabilityError, RuntimeError):
    """The serving engine is closed; the request cannot be served.

    Resolved onto every future still pending when :meth:`ServingEngine.close`
    drains the queues, and raised synchronously by submissions that arrive
    after close — submitters fail fast instead of blocking on back-pressure
    against workers that will never drain them.  Subclasses
    :class:`RuntimeError` so callers of the pre-taxonomy API (which raised
    a bare ``RuntimeError`` here) keep working unchanged.
    """

    retriable = False


def is_retriable(error: BaseException) -> bool:
    """Whether the retry machinery may re-attempt after ``error``.

    Foreign exceptions (anything outside the taxonomy) default to
    non-retriable: an unknown failure is assumed deterministic, and the
    typed fallback paths (degradation, crash requeue) are the safety net.
    """
    return bool(getattr(error, "retriable", False))


__all__ = [
    "ReliabilityError",
    "PlanStoreError",
    "ShardCrashError",
    "ExecutionError",
    "OptimizerBudgetExceeded",
    "DeadlineExceededError",
    "EngineClosedError",
    "is_retriable",
]
