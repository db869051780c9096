"""The shard worker: one thread, one request queue, the engine's one session.

Every shard resolves its plans through the engine's one
:class:`repro.api.Session` (``session.compile(expr, signature)``; a cache
hit is a dictionary probe), so a plan compiled, loaded or specialized by
any shard — or by the shard a crashed one was replaced with — is there for
all of them; answers to exact repeats live in the engine's one
:class:`ResultCache`, which a shard consults again when it executes.  A
:class:`ShardWorker` keeps only what threads must not share; past its
thread-safe queue, that state is touched only by the holder of the shard's
``_serving`` lock — the worker loop around each batch, or a
:meth:`~repro.serve.ServingEngine.run` caller that found the shard idle and
serves its one request through the same ``_serve_batch`` on its own thread:

* a bounded request queue (:class:`queue.Queue`) — back-pressure for free:
  ``submit`` blocks once the shard is ``queue_depth`` requests behind
  instead of ballooning memory.
* per-executable serving state: a
  :class:`~repro.runtime.tape.StepReuseCache` for pinned-parameter reuse and
  the columnwise-stacking verdict, in a :class:`weakref.WeakKeyDictionary`
  keyed by the plan entry's executable, so an entry the session evicts
  takes its state with it.

**Micro-batching.**  The worker drains up to ``max_batch`` queued requests
per wake-up and groups them by instance digest, in arrival order: each
group resolves its plan once and serves its requests back-to-back with warm
step-reuse state.  Other sizes of one template specialize off the cached
template through the session's template tier whatever order they arrive
in.  On an idle shard a batch is just one request and nothing is delayed.

**Executables and columnwise stacking.**  Each resolved plan executes on
its entry's one executable (:meth:`~repro.api.plan.PlanEntry.executable`) —
a tape whose steps are fusion regions under real arithmetic, the plain
operator tape otherwise; both are bitwise identical to the interpreter.
When a plan is structurally
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
restarting the shard on the same session and requeueing every unresolved
request (idempotent: a requeued request meets the engine's result cache
again, so completed work is never re-executed).  A worker keeps no failure
history: a request that fails here would fail identically on any sibling.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro import obs
from repro.api.plan import CompiledPlan, InputValue, bind_signature
from repro.api.session import Session
from repro.canonical.fingerprint import ExprSignature
from repro.lang import expr as la
from repro.reliability.errors import DeadlineExceededError, ShardCrashError
from repro.reliability.faults import NO_FAULTS, FaultInjector
from repro.reliability.retry import RetryPolicy
from repro.runtime.codegen import stackable_slot
from repro.runtime.data import MatrixValue
from repro.runtime.engine import ExecutionResult, ExecutionStats
from repro.runtime.tape import StepReuseCache, TapePlan

#: sentinel closing a shard's queue
_STOP = object()

#: entries in the engine's (fingerprint, input identities) -> result memo
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


class ResultCache:
    """The engine's one bounded LRU memo of answers to exact repeats, keyed
    by fingerprint and the ``id`` of every bound input.  An entry holds its
    input objects, so their ids cannot be recycled while it lives: an id
    match is an identity match, and an equal copy misses."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, Tuple[int, ...]], Tuple[Tuple[MatrixValue, ...], ExecutionResult]]" = OrderedDict()

    def get(self, digest: str, values: Sequence[MatrixValue]) -> Optional[ExecutionResult]:
        key = (digest, tuple(map(id, values)))
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key][1]
        return None

    def put(self, digest: str, values: Sequence[MatrixValue], result: ExecutionResult) -> None:
        with self._lock:
            self._entries[(digest, tuple(map(id, values)))] = (tuple(values), result)
            while len(self._entries) > RESULT_CACHE_SIZE:
                self._entries.popitem(last=False)


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
    #: it, so parentage survives micro-batching and supervisor requeues —
    #: the context rides on the request object
    trace_context: Optional[obs.SpanContext] = None
    #: inputs in slot order, bound at the door (None: compile-only, or unbound)
    values: Optional[Tuple[MatrixValue, ...]] = None


@dataclass
class _LocalState:
    """One shard's state for one executable: what threads must not share.

    Everything here is name-free — slot space only — so every renamed or
    permuted twin of a shape shares it; binding always goes through the
    *request's* signature.  ``reuse`` memoizes pinned-parameter steps.
    ``slot`` is the structurally-stackable column slot (``None`` disables
    stacking outright); ``status`` walks ``untested`` (verify every member
    of the first stacked batch) -> ``on`` (verify one rotating member per
    batch) -> ``off`` (any mismatch permanently disables stacking).  See
    ``_serve_stacked``."""

    slot: Optional[int]
    reuse: StepReuseCache = field(default_factory=StepReuseCache)
    status: str = "untested"
    batches: int = 0


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
    #: this shard's ``session.compile`` results: served from cached state,
    #: or a run of the optimizer pipeline
    cache_hits: int = 0
    compilations: int = 0
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
        results: ResultCache,
        queue_depth: int = 256,
        max_batch: int = 16,
        retry_policy: Optional[RetryPolicy] = None,
        faults: FaultInjector = NO_FAULTS,
        latency_histogram: Optional[obs.Histogram] = None,
    ) -> None:
        self.index = index
        #: the engine's one session, shared by every shard and every restart
        self.session = session
        self.results = results  # the engine's one result cache
        self.max_batch = max_batch
        self.retry_policy = retry_policy
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
        #: held around every _serve_batch: by the worker loop, or by a
        #: ServingEngine.run caller serving an idle shard on its own thread
        self._serving = threading.Lock()
        #: requests of the in-flight batch; left in place by a crash so the
        #: supervisor can requeue exactly the unresolved ones
        self._active: List[ShardRequest] = []
        #: True only after a *clean* loop exit; a crashed worker never sets it
        self.stopped = False
        #: executable -> this shard's state for it; weak, so an entry the
        #: session evicts takes the state with it (only the holder of
        #: _serving touches it)
        self._local: "WeakKeyDictionary[TapePlan, _LocalState]" = WeakKeyDictionary()
        #: id(request) -> result precomputed by a stacked execution; filled
        #: by _serve_stacked, consumed by _execute, cleared per instance
        #: group (only the holder of _serving touches it)
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
            item = self.queue.get()
            batch: List[ShardRequest] = []
            if item is _STOP:
                stopping = True
            else:
                batch.append(item)
                extras, saw_stop = self._drain(self.max_batch - 1)
                batch.extend(extras)
                stopping = saw_stop
            if batch:
                with self._serving:
                    self._serve_batch(batch)
        # Serve whatever raced in around the sentinel — the engine
        # guarantees no submissions once close() begins, so this converges.
        tail, _ = self._drain(None)
        if tail:
            with self._serving:
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
        # Requests of one exact instance share a resolve, in arrival order;
        # other sizes of a template specialize off it in the session
        # whatever order they arrive in.
        groups: Dict[str, List[ShardRequest]] = {}
        for request in batch:
            groups.setdefault(request.signature.digest, []).append(request)
        with self._lock:
            self.counters.batches += 1
            self.counters.batched_requests += sum(
                len(members) for members in groups.values() if len(members) > 1
            )
        # The batch span is a root: its member requests carry their own
        # submit-side parent contexts, so per-request spans parent to the
        # submitter, not to the batch that happened to drain them.
        with _TRACER.span(
            "serve.batch", parent=None, shard=self.index,
            size=len(batch), groups=len(groups),
        ):
            for members in groups.values():
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
                    plan = self._compile(members[0])
                    tape = plan.executable()
                    local = self._local.get(tape)
                    if local is None:
                        local = _LocalState(
                            slot=stackable_slot(plan._entry.slot_plan, tape.n_slots)
                        )
                        self._local[tape] = local
                except ShardCrashError:
                    # A crash is a crash wherever it lands: let it kill the
                    # worker thread; the supervisor requeues from _active.
                    raise
                except Exception as error:  # compile failure poisons the instance only
                    with self._lock:
                        self.counters.errors += len(members)
                    for request in members:
                        if _mark_running(request.future):
                            _fail(request.future, error)
                    continue
                try:
                    self._serve_stacked(tape, local, members)
                    for request in members:
                        self._serve_one(plan, tape, local, request)
                finally:
                    self._prestacked.clear()
        with self._lock:
            self._active = []

    def _compile(self, request: ShardRequest) -> CompiledPlan:
        """The session's plan under this request's names, counted per shard."""
        plan = self.session.compile(request.expr, request.signature)
        with self._lock:
            if plan.cache_hit:
                self.counters.cache_hits += 1
            else:
                self.counters.compilations += 1
            self.counters.seen_fingerprints.add(request.signature.digest)
            self.counters.seen_templates.add(request.signature.template_digest)
        return plan

    def _run_tape(
        self,
        tape: TapePlan,
        local: _LocalState,
        values: Sequence[MatrixValue],
        faults: Optional[FaultInjector] = None,
    ) -> ExecutionResult:
        """Execute on this shard's reuse state, counting its hits and misses."""
        reuse = local.reuse
        try:
            return tape.execute(values, reuse, faults)
        finally:
            with self._lock:
                self.counters.step_reuse_hits += reuse.hits
                self.counters.step_reuse_misses += reuse.misses
            reuse.hits = reuse.misses = 0

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

    def _serve_one(
        self,
        plan: CompiledPlan,
        tape: TapePlan,
        local: _LocalState,
        request: ShardRequest,
    ) -> None:
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
                    if not request.compile_only:
                        result: object = self._execute(tape, local, request)
                    elif plan.signature is request.signature:
                        result = plan
                    else:  # a renamed twin's plan must speak its own names
                        result = self._compile(request)
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
                    span.set_attribute("result", "error")
                    _fail(request.future, error)
                    return
            self.count_served(request, degraded=plan.degraded)
            if attempt:
                span.set_attribute("retries", attempt)
            span.set_attribute("result", "ok")
            _resolve(request.future, result)

    def count_served(
        self, request: ShardRequest, degraded: bool = False, cache_hit: bool = False
    ) -> None:
        """Count a request this shard served, or a door hit routed to it."""
        now = time.perf_counter()
        with self._lock:
            self.counters.served += 1
            self.counters.degraded += degraded
            self.counters.result_cache_hits += cache_hit
            self.counters.last_completion = now
        if self.latency_histogram is not None:
            self.latency_histogram.observe(now - request.enqueued)

    def _serve_stacked(
        self, tape: TapePlan, local: _LocalState, members: List[ShardRequest]
    ) -> None:
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
        if (
            local.slot is None
            or local.status == "off"
            or len(members) < 2
            or self._tape_faults is not None
            or any(request.values is None for request in members)  # compile-only or unbound
        ):
            return
        bound = [request.values for request in members]
        slot = local.slot
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
        stacked = self._run_tape(tape, local, stacked_values)
        dense_out = stacked.value.to_dense()
        if dense_out.ndim != 2 or dense_out.shape[1] != len(members):
            local.status = "off"
            return
        results = [
            MatrixValue(np.ascontiguousarray(dense_out[:, j : j + 1])).compacted()
            for j in range(len(members))
        ]
        verify = (
            range(len(members))
            if local.status == "untested"
            else (local.batches % len(members),)
        )
        for j in verify:
            individual = self._run_tape(tape, local, bound[j])
            if (
                individual.value.is_sparse != results[j].is_sparse
                or individual.value.shape != results[j].shape
                or not np.array_equal(individual.value.to_dense(), results[j].to_dense())
            ):
                local.status = "off"
                return
        local.status = "on"
        local.batches += 1
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

    def _execute(
        self, tape: TapePlan, local: _LocalState, request: ShardRequest
    ) -> ExecutionResult:
        # Bound at the door through the request's own signature; a failed bind raises here.
        values = request.values
        if values is None:
            values = tuple(bind_signature(request.signature, request.inputs))
        digest = request.signature.digest
        cached = self.results.get(digest, values)
        if cached is not None:
            with self._lock:
                self.counters.result_cache_hits += 1
            return cached
        # Injection site ``shard.execute``: fires *before* the tape runs and
        # before anything is cached, so a retriable fault re-executes from a
        # clean slate and a ShardCrashError leaves no partial state behind.
        self.faults.check("shard.execute", digest)
        prestacked = self._prestacked.pop(id(request), None)
        if prestacked is not None:
            result = prestacked
        else:
            with _TRACER.span("serve.execute", steps=len(tape)):
                result = self._run_tape(tape, local, values, self._tape_faults)
        self.results.put(digest, values, result)
        return result

    # -- supervision -----------------------------------------------------------
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
        """A JSON-serializable, internally consistent view of this shard.

        Plan counts are this shard's own ``session.compile`` results; what
        the shared session holds (cached plans, template hits) is the
        engine's to report."""
        with self._lock:
            counters = self.counters
            record: Dict[str, object] = {"shard": self.index}
            record.update(
                (f.name, getattr(counters, f.name)) for f in fields(ServingCounters)
            )
            lookups = counters.cache_hits + counters.compilations
            record.update(
                step_reuse_misses=counters.step_reuse_misses,
                unique_fingerprints=len(counters.seen_fingerprints),
                unique_templates=len(counters.seen_templates),
                compilations=counters.compilations,
                cache_hits=counters.cache_hits,
                cache_hit_rate=counters.cache_hits / lookups if lookups else 0.0,
            )
        return record

    def last_completion(self) -> float:
        with self._lock:
            return self.counters.last_completion
