"""The shard worker: one thread, one cache segment, one request queue.

A :class:`ShardWorker` owns everything a serving shard needs:

* a :class:`repro.api.Session` — the shard's plan-cache *segment*.  The
  engine routes every request for a given canonical fingerprint to exactly
  one shard, so segments never duplicate a plan and never contend on a
  lock: aggregate cache capacity scales linearly with the shard count.
* a bounded request queue (:class:`queue.Queue`) — back-pressure for free:
  ``submit`` blocks once the shard is ``queue_depth`` requests behind
  instead of ballooning memory.
* per-fingerprint serving state: the compiled plan, its executable (the
  plan's own :meth:`~repro.api.plan.CompiledPlan.executable`), and a
  :class:`~repro.runtime.tape.StepReuseCache` for pinned-parameter reuse.
* a bounded **result cache**: a request whose fingerprint *and* input value
  objects were served before returns the memoized result without touching
  the executor — the serving tier's answer to repeated hot queries.

**Micro-batching.**  The worker drains up to ``max_batch`` queued requests
per wake-up and groups them by *template* digest (instance sub-groups
inside): a size ladder of one workload forms a single group whose first
member resolves — or compiles — the shared template, every other size
specializes off it through the session's template tier, and each exact
instance then serves its requests back-to-back on its own re-pinned tape
with warm step-reuse state.  On a loaded shard this amortizes queue
wakeups and plan resolution across the whole group; on an idle shard a
batch is just one request and nothing is delayed.

**Executables and columnwise stacking.**  Each resolved plan executes on
the one executable the plan itself owns — a tape whose steps are fusion
regions under real arithmetic, the plain operator tape otherwise; both are
bitwise identical to the interpreter.  When a plan is structurally
columnwise in one ``(m, 1)`` slot, an instance group's k matvec requests are
additionally *stacked* into one matmat execution and the result columns
split back out, verified per plan against individual execution (see
``_serve_stacked``).

**Deadlines.**  A request may carry an absolute deadline; the worker sheds
expired requests at the head of the loop (typed
:class:`DeadlineExceededError` on the future, counted per shard) instead
of spending executor time on answers nobody is waiting for.

**Failure semantics.**  Every request carries a
:class:`concurrent.futures.Future`.  An execution error first enters the
worker's **retry loop** (the engine's
:class:`~repro.reliability.RetryPolicy`: retriable errors back off and
re-execute, bounded per error class, never past the request deadline);
only an exhausted or non-retriable error resolves the future
exceptionally.  The one exception that *does* kill the worker thread is
:class:`~repro.reliability.ShardCrashError` — deliberately: it models the
worker process dying, and the engine's supervisor answers it by
restarting the shard, re-hydrating a fresh session from the plan store,
and requeueing every unresolved request (idempotent: the replacement
inherits the result cache, so work that already completed is never
re-executed).  Each served/failed request is also reported to the shard's
:class:`~repro.reliability.CircuitBreaker` so the engine can route around
a persistently sick shard.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.api.plan import CompiledPlan, InputValue, bind_signature
from repro.api.session import Session
from repro.canonical.fingerprint import ExprSignature
from repro.lang import expr as la
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.errors import DeadlineExceededError, ShardCrashError
from repro.reliability.faults import NO_FAULTS, FaultInjector
from repro.reliability.retry import RetryPolicy
from repro.runtime.codegen import stackable_slot
from repro.runtime.data import MatrixValue
from repro.runtime.engine import ExecutionResult, ExecutionStats
from repro.runtime.tape import StepReuseCache, TapePlan

#: sentinel closing a shard's queue
_STOP = object()

#: entries in a shard's (fingerprint, input identities) -> result memo
RESULT_CACHE_SIZE = 256

_TRACER = obs.tracer()


def _mark_running(future: "Future[object]") -> bool:
    """Transition a request future to running, tolerating crash requeues.

    A request requeued after a shard crash was already marked running by
    the dead worker; ``set_running_or_notify_cancel`` raises for it (a
    plain ``RuntimeError`` — *not* ``InvalidStateError`` — on current
    CPython), but the request is still live and must be served: the
    supervisor only requeues futures that are not done.  Returns ``False``
    only for requests nobody is waiting on (cancelled, or somehow resolved
    since requeue).
    """
    if future.running():
        return True
    try:
        return future.set_running_or_notify_cancel()
    except (InvalidStateError, RuntimeError):
        return not future.done()


def _resolve(future: "Future[object]", result: object) -> None:
    """Set a result, ignoring futures that were cancelled while served."""
    try:
        future.set_result(result)
    except InvalidStateError:  # pragma: no cover - cancel race
        pass


def _fail(future: "Future[object]", error: BaseException) -> None:
    """Set an exception, ignoring futures that were cancelled while served."""
    try:
        future.set_exception(error)
    except InvalidStateError:  # pragma: no cover - cancel race
        pass


@dataclass
class ShardRequest:
    """One unit of work routed to a shard."""

    signature: ExprSignature
    expr: la.LAExpr
    inputs: Optional[Mapping[str, InputValue]]
    future: "Future[object]"
    #: engine-side enqueue timestamp (perf_counter) for latency accounting
    enqueued: float
    #: compile (and warm the serving state) without executing
    compile_only: bool = False
    #: absolute perf_counter time after which the request is shed unserved
    deadline: Optional[float] = None
    #: trace context captured at submit time; the serve-path span parents to
    #: it, so parentage survives micro-batching, sibling rerouting, and
    #: supervisor requeues — the context rides on the request object
    trace_context: Optional[obs.SpanContext] = None


@dataclass
class _BatchState:
    """Columnwise-stacking state of one plan (see ``_serve_stacked``).

    ``slot`` is the structurally-stackable column slot (``None`` disables
    stacking outright); ``status`` walks ``untested`` (verify every member
    of the first stacked batch) -> ``on`` (verify one rotating member per
    batch) -> ``off`` (any mismatch permanently disables stacking)."""

    slot: Optional[int]
    status: str = "untested"
    batches: int = 0
    mismatches: int = 0


@dataclass
class _PlanState:
    """Per-fingerprint serving state owned by exactly one shard.

    Everything here is **name-free** or belongs to whoever compiled first:
    the executor and reuse cache operate purely in slot space, so every
    renamed/permuted twin of the fingerprint shares them safely.  Binding,
    by contrast, is name-sensitive and always goes through the *request's*
    signature, never this cached plan's.  ``tape`` is the plan's own
    executable (``plan.executable()``), held here so the request path does
    not re-resolve it."""

    plan: CompiledPlan
    tape: TapePlan
    reuse: StepReuseCache
    batch: _BatchState = field(default_factory=lambda: _BatchState(slot=None))


@dataclass
class ServingCounters:
    """The serving counters, declared once.

    A shard counts them (:class:`ShardCounters`), its ``snapshot()`` copies
    them and the engine's ``EngineStats`` sums them across shards — each by
    :func:`dataclasses.fields`, so a new counter is one line here.
    """

    served: int = 0
    errors: int = 0
    #: requests rejected unserved because their deadline had already passed
    #: (the engine adds deadline-bearing submissions that found a full queue)
    sheds: int = 0
    #: transient execution failures retried in place (never past a deadline)
    retries: int = 0
    #: requests answered by a degraded (unoptimized baseline) plan
    degraded: int = 0
    batches: int = 0
    #: requests that shared their batch-group with at least one other
    batched_requests: int = 0
    #: stacked matmat executions (k same-plan matvecs served as one matmat)
    stacked_batches: int = 0
    #: requests whose answer came out of a stacked execution
    stacked_requests: int = 0
    result_cache_hits: int = 0
    step_reuse_hits: int = 0


@dataclass
class ShardCounters(ServingCounters):
    """What one shard maintains (read under the shard lock)."""

    step_reuse_misses: int = 0
    #: perf_counter timestamp of the most recent completion
    last_completion: float = 0.0
    #: fingerprints this shard has ever served (plans may since be evicted)
    seen_fingerprints: set = field(default_factory=set)
    #: size-free template digests this shard has ever served
    seen_templates: set = field(default_factory=set)


class ShardWorker:
    """One serving shard: a thread consuming a bounded queue of requests."""

    def __init__(
        self,
        index: int,
        session: Session,
        queue_depth: int = 256,
        max_batch: int = 16,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        faults: FaultInjector = NO_FAULTS,
        latency_histogram: Optional[obs.Histogram] = None,
    ) -> None:
        self.index = index
        self.session = session
        self.max_batch = max(1, max_batch)
        self.retry_policy = retry_policy
        self.breaker = breaker
        self.faults = faults
        #: engine-owned always-enabled latency histogram shared by the pool
        #: (living in the engine, it survives shard restarts)
        self.latency_histogram = latency_histogram
        #: pass-through for TapePlan.execute: None keeps its fast path when
        #: injection is off (the default singleton never fires)
        self._tape_faults: Optional[FaultInjector] = (
            faults if faults.enabled else None
        )
        self.queue: "queue.Queue[object]" = queue.Queue(maxsize=queue_depth)
        self.counters = ShardCounters()
        self._lock = threading.Lock()
        #: requests of the in-flight batch; left in place by a crash so the
        #: supervisor can requeue exactly the unresolved ones
        self._active: List[ShardRequest] = []
        #: perf_counter timestamp the worker loop last proved liveness
        self._heartbeat = time.perf_counter()
        #: True only after a *clean* loop exit; a crashed worker never sets it
        self.stopped = False
        #: fingerprint -> serving state; bounded in step with the session's
        #: cache segment so the two tiers age together
        self._plans: "OrderedDict[str, _PlanState]" = OrderedDict()
        #: (fingerprint, value ids) -> (value objects, result); identity of
        #: the stored objects is re-checked on every hit, so id recycling
        #: after garbage collection can never alias two requests
        self._results: "OrderedDict[Tuple[str, Tuple[int, ...]], Tuple[Tuple[MatrixValue, ...], ExecutionResult]]" = OrderedDict()
        #: id(request) -> result precomputed by a stacked execution; filled
        #: by _serve_stacked, consumed by _execute, cleared per instance
        #: group (only this worker thread touches it)
        self._prestacked: Dict[int, ExecutionResult] = {}
        self.thread = threading.Thread(
            target=self._run, name=f"spores-serve-shard-{index}", daemon=True
        )

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        self.thread.start()

    def stop(self, timeout: Optional[float] = None) -> None:
        """Ask the worker to finish queued work and exit, then join it.

        Only a live worker drains its queue: behind a crashed one a blocking
        put on a full queue would never return, so the sentinel is offered
        only while the thread lives and only until ``timeout`` runs out
        (``close`` offers it again once it has emptied the queue).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.thread.is_alive():
            try:
                self.queue.put(_STOP, timeout=0.05)
                break
            except queue.Full:
                if deadline is not None and time.monotonic() >= deadline:
                    return
        self.thread.join(None if deadline is None else max(0.0, deadline - time.monotonic()))

    # -- the worker loop -------------------------------------------------------
    def _run(self) -> None:
        try:
            self._loop()
        except ShardCrashError:
            # The worker "process" died.  Exit without the interpreter's
            # unhandled-thread traceback; ``stopped`` stays False, which is
            # exactly what tells the supervisor to restart this shard and
            # requeue whatever _active still holds.
            return

    def _loop(self) -> None:
        stopping = False
        while not stopping:
            # A bounded get keeps the heartbeat fresh on an idle shard: the
            # supervisor distinguishes "no work" from "wedged mid-request"
            # purely by this timestamp's age.
            try:
                item = self.queue.get(timeout=0.05)
            except queue.Empty:
                with self._lock:
                    self._heartbeat = time.perf_counter()
                continue
            with self._lock:
                self._heartbeat = time.perf_counter()
            batch: List[ShardRequest] = []
            if item is _STOP:
                stopping = True
            else:
                batch.append(item)
                extras, saw_stop = self._drain(self.max_batch - 1)
                batch.extend(extras)
                stopping = saw_stop
            if batch:
                self._serve_batch(batch)
        # Serve whatever raced in around the sentinel — the engine
        # guarantees no submissions once close() begins, so this converges.
        tail, _ = self._drain(None)
        if tail:
            self._serve_batch(tail)
        with self._lock:
            self.stopped = True

    def _drain(self, limit: Optional[int]) -> Tuple[List[ShardRequest], bool]:
        drained: List[ShardRequest] = []
        saw_stop = False
        while limit is None or len(drained) < limit:
            try:
                item = self.queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                saw_stop = True
                continue
            drained.append(item)
        return drained, saw_stop

    def _serve_batch(self, batch: List[ShardRequest]) -> None:
        # Publish the in-flight batch first: if this worker crashes anywhere
        # below, the supervisor collects whatever futures are still
        # unresolved from _active and requeues them on the replacement.
        # Cleared only on the normal exit path — a crash must leave it set.
        with self._lock:
            self._active = list(batch)
        # Shed already-expired requests first, *before* any plan is
        # resolved: a batch of dead requests must not pay a compile for
        # answers nobody is waiting for (the per-request check in
        # _serve_one still catches deadlines that expire mid-batch).
        now = time.perf_counter()
        live: List[ShardRequest] = []
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                self._shed(request)
            else:
                live.append(request)
        batch = live
        if not batch:
            with self._lock:
                self._active = []
            return
        # Primary grouping is by *template* digest: a size ladder of one
        # workload forms a single batch-group whose first member resolves
        # (or compiles) the template and whose other sizes specialize off
        # it through the session's template tier — warm by construction.
        # Within the group, requests of one exact instance share a resolve.
        groups: "OrderedDict[str, OrderedDict[str, List[ShardRequest]]]" = OrderedDict()
        for request in batch:
            group = groups.setdefault(request.signature.template_digest, OrderedDict())
            group.setdefault(request.signature.digest, []).append(request)
        group_sizes = [
            sum(len(requests) for requests in group.values())
            for group in groups.values()
        ]
        with self._lock:
            self.counters.batches += 1
            self.counters.batched_requests += sum(
                size for size in group_sizes if size > 1
            )
        # The batch span is a root: its member requests carry their own
        # submit-side parent contexts, so per-request spans parent to the
        # submitter, not to the batch that happened to drain them.
        with _TRACER.span(
            "serve.batch", parent=None, shard=self.index,
            size=len(batch), groups=len(groups),
        ):
            for group in groups.values():
                for members in group.values():
                    # Re-check expiry at the group head: an earlier group's
                    # compile may have outlived these members' budgets, and a
                    # group of dead requests must not pay its own resolve.
                    now = time.perf_counter()
                    live = []
                    for request in members:
                        if request.deadline is not None and now > request.deadline:
                            self._shed(request)
                        else:
                            live.append(request)
                    members = live
                    if not members:
                        continue
                    try:
                        state = self._resolve(members[0])
                    except ShardCrashError:
                        # A crash is a crash wherever it lands: let it kill the
                        # worker thread; the supervisor requeues from _active.
                        raise
                    except Exception as error:  # compile failure poisons the instance only
                        with self._lock:
                            self.counters.errors += len(members)
                        if self.breaker is not None:
                            self.breaker.record_failure()
                        for request in members:
                            if _mark_running(request.future):
                                _fail(request.future, error)
                        continue
                    try:
                        self._serve_stacked(state, members)
                        for request in members:
                            self._serve_one(state, request)
                    finally:
                        self._prestacked.clear()
        with self._lock:
            self._active = []

    def _resolve(self, request: ShardRequest) -> _PlanState:
        digest = request.signature.digest
        state = self._plans.get(digest)
        if state is None:
            plan = self.session.compile(request.expr, request.signature)
            state = _PlanState(
                plan=plan,
                tape=plan.executable(),
                reuse=StepReuseCache(),
                batch=_BatchState(
                    slot=stackable_slot(
                        plan._entry.slot_plan, len(request.signature.slots)
                    )
                ),
            )
            evicted: List[_PlanState] = []
            # The shard lock guards _plans against snapshot() iterating from
            # a monitoring thread; only this worker thread ever writes.
            with self._lock:
                self._plans[digest] = state
                while len(self._plans) > self.session.cache.capacity:
                    evicted.append(self._plans.popitem(last=False)[1])
            for old in evicted:
                self._retire(old)
        else:
            with self._lock:
                self._plans.move_to_end(digest)
        with self._lock:
            self.counters.seen_fingerprints.add(digest)
            self.counters.seen_templates.add(request.signature.template_digest)
        return state

    def _retire(self, state: _PlanState) -> None:
        """Fold a retiring plan's reuse counters into the shard totals."""
        with self._lock:
            self.counters.step_reuse_hits += state.reuse.hits
            self.counters.step_reuse_misses += state.reuse.misses
        state.reuse.hits = state.reuse.misses = 0

    def _shed(self, request: ShardRequest, reason: str = "in queue") -> None:
        """Drop an expired request with the typed shed error (counted)."""
        if not _mark_running(request.future):
            return
        with self._lock:
            self.counters.sheds += 1
        _fail(
            request.future,
            DeadlineExceededError(
                f"request deadline exceeded after "
                f"{time.perf_counter() - request.enqueued:.3f}s {reason}"
            ),
        )

    def _serve_one(self, state: _PlanState, request: ShardRequest) -> None:
        if request.deadline is not None and time.perf_counter() > request.deadline:
            # The budget expired while earlier groups of this batch ran.
            self._shed(request)
            return
        if not _mark_running(request.future):
            return
        with _TRACER.span(
            "serve.request",
            parent=request.trace_context,
            shard=self.index,
            digest=request.signature.digest[:12],
        ) as span:
            attempt = 0
            while True:
                try:
                    if request.compile_only:
                        result: object = self._plan_view(state, request)
                    else:
                        result = self._execute(state, request)
                    break
                except ShardCrashError:
                    # Models the worker process dying mid-request: leave the
                    # future unresolved (the supervisor requeues it from
                    # _active) and let the thread die.
                    raise
                except Exception as error:
                    policy = self.retry_policy
                    if policy is not None and policy.should_retry(error, attempt):
                        wait = policy.delay_within(
                            attempt,
                            key=request.signature.digest,
                            now=time.perf_counter(),
                            deadline=request.deadline,
                        )
                        if wait is None:
                            # The backoff would land past the deadline: shed
                            # now rather than promise an answer we cannot give
                            # in time.  Counted with the other sheds.
                            self._shed(request, reason="retrying")
                            if self.breaker is not None:
                                self.breaker.record_failure()
                            span.set_attribute("result", "shed")
                            return
                        with self._lock:
                            self.counters.retries += 1
                        if wait > 0.0:
                            time.sleep(wait)
                        attempt += 1
                        continue
                    with self._lock:
                        self.counters.errors += 1
                    if self.breaker is not None:
                        self.breaker.record_failure()
                    span.set_attribute("result", "error")
                    _fail(request.future, error)
                    return
            now = time.perf_counter()
            latency = now - request.enqueued
            with self._lock:
                self.counters.served += 1
                if state.plan.degraded:
                    self.counters.degraded += 1
                self.counters.last_completion = now
            if self.latency_histogram is not None:
                self.latency_histogram.observe(latency)
            if attempt:
                span.set_attribute("retries", attempt)
            span.set_attribute("result", "ok")
            if self.breaker is not None:
                self.breaker.record_success()
            _resolve(request.future, result)

    def _plan_view(self, state: _PlanState, request: ShardRequest) -> CompiledPlan:
        """A plan bound to *this request's* names (twins must not share views)."""
        if state.plan.signature is request.signature:
            return state.plan
        return CompiledPlan(
            state.plan._entry,
            request.signature,
            request.expr,
            session=self.session,
            cache_hit=True,
        )

    def _serve_stacked(self, state: _PlanState, members: List[ShardRequest]) -> None:
        """Serve one instance group as a single column-stacked execution.

        Columnwise numeric batching: when the plan is structurally
        columnwise in one ``(m, 1)`` slot (``stackable_slot``), k queued
        requests that pin every other slot to the *same* value objects are
        executed as one matmat over the column-stacked inputs, and the
        result columns are handed back per request through ``_prestacked``.

        Structure is necessary but not sufficient for bitwise equality
        (stacked gemm may accumulate differently from k gemvs), so results
        are *verified* against individual execution — every member of the
        plan's first stacked batch, then one rotating member per batch —
        and any mismatch permanently disables stacking for the plan.
        Every bail-out path simply leaves ``_prestacked`` empty and the
        per-request loop serves individually.
        """
        batch = state.batch
        if (
            batch.slot is None
            or batch.status == "off"
            or len(members) < 2
            or self._tape_faults is not None
            or any(request.compile_only for request in members)
        ):
            return
        try:
            bound = [
                tuple(bind_signature(request.signature, request.inputs))
                for request in members
            ]
        except Exception:
            return  # binding errors surface per-request with full context
        slot = batch.slot
        first = bound[0]
        rows = first[slot].shape[0]
        for values in bound:
            column = values[slot]
            if column.is_sparse or column.shape != (rows, 1):
                return
            if any(
                values[i] is not first[i] for i in range(len(values)) if i != slot
            ):
                return  # pinned slots differ; not one logical matvec family
        stacked_column = MatrixValue(
            np.concatenate([values[slot].to_dense() for values in bound], axis=1)
        )
        stacked_values = list(first)
        stacked_values[slot] = stacked_column
        stacked = state.tape.execute(stacked_values, state.reuse, None)
        dense_out = stacked.value.to_dense()
        if dense_out.ndim != 2 or dense_out.shape[1] != len(members):
            batch.status = "off"
            return
        results = [
            MatrixValue(np.ascontiguousarray(dense_out[:, j : j + 1])).compacted()
            for j in range(len(members))
        ]
        verify = (
            range(len(members))
            if batch.status == "untested"
            else (batch.batches % len(members),)
        )
        for j in verify:
            individual = state.tape.execute(bound[j], state.reuse, None)
            if (
                individual.value.is_sparse != results[j].is_sparse
                or individual.value.shape != results[j].shape
                or not np.array_equal(individual.value.to_dense(), results[j].to_dense())
            ):
                batch.mismatches += 1
                batch.status = "off"
                return
        batch.status = "on"
        batch.batches += 1
        with self._lock:
            self.counters.stacked_batches += 1
            self.counters.stacked_requests += len(members)
        elapsed = stacked.stats.elapsed / len(members)
        for request, value in zip(members, results):
            self._prestacked[id(request)] = ExecutionResult(
                value=value,
                stats=ExecutionStats(
                    elapsed=elapsed,
                    operators_executed=stacked.stats.operators_executed,
                    fused_operators=stacked.stats.fused_operators,
                ),
            )

    def _execute(self, state: _PlanState, request: ShardRequest) -> ExecutionResult:
        # Bind through the request's own signature: a renamed or
        # role-permuted twin of the cached shape carries the same digest
        # but its own name -> slot order.
        values = tuple(bind_signature(request.signature, request.inputs))
        digest = request.signature.digest
        key = (digest, tuple(map(id, values)))
        cached = self._results.get(key)
        if cached is not None:
            stored_values, stored_result = cached
            if all(a is b for a, b in zip(stored_values, values)):
                self._results.move_to_end(key)
                with self._lock:
                    self.counters.result_cache_hits += 1
                return stored_result
            del self._results[key]  # ids were recycled; drop the stale entry
        # Injection site ``shard.execute``: fires *before* the tape runs and
        # before anything is cached, so a retriable fault re-executes from a
        # clean slate and a ShardCrashError leaves no partial state behind.
        self.faults.check("shard.execute", digest)
        prestacked = self._prestacked.pop(id(request), None)
        if prestacked is not None:
            result = prestacked
        else:
            with _TRACER.span("serve.execute", steps=len(state.tape)):
                result = state.tape.execute(values, state.reuse, self._tape_faults)
        self._results[key] = (values, result)
        while len(self._results) > RESULT_CACHE_SIZE:
            self._results.popitem(last=False)
        return result

    # -- supervision -----------------------------------------------------------
    def heartbeat_age(self, now: Optional[float] = None) -> float:
        """Seconds since the worker loop last proved liveness."""
        if now is None:
            now = time.perf_counter()
        with self._lock:
            return max(0.0, now - self._heartbeat)

    def take_unresolved(self) -> List[ShardRequest]:
        """Collect every request this (dead) worker still owes an answer.

        Called by the engine's supervisor *after* the worker thread has
        died: the in-flight batch members whose futures are unresolved come
        first (they were ahead in line), then whatever is still queued.
        Resolved futures — including the crash-triggering request if a
        previous attempt already answered it — are filtered out, which is
        what makes crash requeue idempotent.
        """
        drained, _ = self._drain(None)
        with self._lock:
            active = [r for r in self._active if not r.future.done()]
            self._active = []
        return active + [r for r in drained if not r.future.done()]

    # -- monitoring ------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable, internally consistent view of this shard."""
        cache_stats = self.session.stats
        with self._lock:
            counters = self.counters
            record: Dict[str, object] = {"shard": self.index}
            record.update(
                (f.name, getattr(counters, f.name)) for f in fields(ServingCounters)
            )
            # Live plans' reuse counts are folded in on retirement only.
            record["step_reuse_hits"] += sum(s.reuse.hits for s in self._plans.values())
            record["step_reuse_misses"] = counters.step_reuse_misses + sum(
                s.reuse.misses for s in self._plans.values()
            )
            record["unique_fingerprints"] = len(counters.seen_fingerprints)
            record["unique_templates"] = len(counters.seen_templates)
        if self.breaker is not None:
            record["breaker"] = self.breaker.state
        compilations = self.session.compilations
        served = int(record["served"])
        record.update(
            {
                "compilations": compilations,
                # Fraction of this shard's requests served without compiling,
                # clamped: a compile whose requests then all failed binding
                # counts in compilations but not in served.
                "plan_hit_rate": max(0.0, served - compilations) / served if served else 0.0,
                "cache_hits": cache_stats.hits,
                "cache_misses": cache_stats.misses,
                "cache_hit_rate": cache_stats.hit_rate,
                "template_hits": cache_stats.template_hits,
                "cached_plans": len(self.session.cache),
            }
        )
        return record

    def last_completion(self) -> float:
        with self._lock:
            return self.counters.last_completion
