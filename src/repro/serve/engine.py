"""The serving engine: one session, one front door, one pool of threads.

:class:`ServingEngine` is the deployment shape the Session API was built
toward — SPORES' compile-once/execute-many contract behind a thread-safe
front door:

* **One session.**  Every request resolves its plan through the engine's
  one :class:`repro.api.Session` — one plan cache bounded by
  ``cache_size``, one compile per shape whichever thread asks (the session
  serializes concurrent misses of one size-free template, so a size ladder
  compiles once and specializes the rest), one set of counters.  It writes
  through a single :class:`repro.serialize.PlanStore`, so the engine
  inherits the cross-process warm-start story: a fresh engine pointed at a
  store that a warm-up run (``python -m repro.serve.warmup``) filled starts
  with zero compilations.
* **Callers run.**  :meth:`run` serves its request on the calling thread,
  through the same batch path the pool uses
  (:class:`~repro.serve.worker.BatchServer`); concurrent callers run side
  by side and take turns only on one executable's stacking verdict.
  :meth:`plan_for` and :meth:`warm` only compile, on the calling thread,
  straight through the session: they are no request, so no counter,
  latency sample or deadline sees them.
* **Async-friendly submission.**  :meth:`submit` puts the request on one
  bounded queue and returns a :class:`concurrent.futures.Future`
  immediately (back-pressure blocks the producer only once the queue is
  full); ``shards`` pool threads drain it, each taking everything queued
  as one batch (``queue_depth`` bounds it), so a burst's same-plan matvecs
  stack into one matmat.  :meth:`run_many` is the synchronous convenience
  on top.
* **One door.**  Binding happens once, on the caller's thread: a request
  that cannot bind fails its future there, and nothing compiles or queues
  for it.  An exact repeat (same fingerprint, same input objects) resolves
  from the engine's one result cache before anything is served or queued;
  that lookup is the cache's only one, and every execution fills it.
* **Engine-level statistics.**  :meth:`stats` copies the engine's one
  :class:`~repro.serve.worker.ServingCounters` record and adds throughput,
  p50/p95 latency and the session's compilation and template-hit counts;
  :meth:`metrics_text` renders the same records as Prometheus text.

The serving fast path runs each request through the learn → execute →
record step of :meth:`repro.api.plan.CompiledPlan.run`, on the learning
state of the session's cached entry: a plan whose data inputs keep arriving
as the same objects adopts its pinned variant once that pays, exactly as a
``Session`` plan does.  It executes the entry in force's one executable
(:meth:`repro.api.plan.PlanEntry.executable` — an instruction tape whose
steps are fusion regions under real arithmetic, see ``docs/codegen.md``)
with columnwise stacking of same-plan matvecs behind the engine's result
cache — bitwise identical to the reference interpreter, minus its
per-intermediate bufferpool accounting.

**Reliability** (:mod:`repro.reliability` threaded end to end):

* **Typed failures, no retries.**  Plans are pure, so an execution error
  repeats on every attempt and every thread: it fails its own request's
  future, once.  An error that escapes a batch fails that batch's
  unresolved futures; a pool thread's loop survives every error, so
  nothing needs restarting.
* **Graceful degradation.**  With an ``optimizer_budget``, a compile that
  overruns (or an injected optimizer fault) falls back to the unoptimized
  baseline plan — semantically identical under SPORES' equality-saturation
  contract, marked ``degraded`` in every stats surface.  Store read/write
  failures demote to cache misses / skipped persists.
* **Health.**  :meth:`health` reports liveness, readiness, queue depth and
  the degraded-request rate — the machine-readable shape a load balancer or
  test harness polls.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro import obs
from repro.api.plan import CompiledPlan, InputValue, bind_signature
from repro.api.session import Session
from repro.canonical.fingerprint import ExprSignature, signature_of
from repro.lang import expr as la
from repro.optimizer.config import OptimizerConfig
from repro.reliability.errors import EngineClosedError
from repro.reliability.faults import FaultInjector
from repro.runtime.engine import ExecutionResult
from repro.serialize.store import PlanStore, StoreStats
from repro.serve.worker import (
    BatchServer,
    DeadlineExceededError,
    ServingCounters,
    ShardRequest,
    _fail,
)


logger = logging.getLogger(__name__)

_TRACER = obs.tracer()

#: entries in the engine's expression-identity -> signature memo
SIGNATURE_MEMO_SIZE = 1024

#: sentinel telling one pool thread to exit
_STOP = object()

#: help text of each series :meth:`ServingEngine.metrics_text` renders from the
#: engine's own records
_RECORD_HELP = {
    "serve_requests_total": "Served requests by final disposition",
    "serve_degraded_total": "Requests answered by a degraded baseline plan",
    "serve_batches_total": "Micro-batches served",
    "plan_cache_hits_total": "Plan requests served from cached state",
    "plan_cache_misses_total": "Plan requests that ran the optimizer pipeline",
    "plan_cache_evictions_total": "Plan-cache LRU evictions",
    "plan_cache_template_hits_total": "Plan requests served by specializing a cached template",
    "session_compilations_total": "Full pipeline runs of the engine's session",
    "session_degraded_total": "Compiles degraded to the unoptimized baseline plan",
    "session_drift_recompiles_total": "Plans recompiled after sparsity drift",
    "plan_store_loads_total": "Plan-store load probes by result",
    "plan_store_template_loads_total": "Plan-store template-tier probes by result",
    "plan_store_writes_total": "Plan-store entry writes by result",
    "plan_store_evictions_total": "Plan-store entries deleted by LRU GC",
}


class QueueFullError(RuntimeError):
    """A deadline-bearing request found the queue full for too long.

    The load-shedding half of back-pressure: requests *without* a deadline
    still block the producer (the legacy behavior — a batch loader wants
    back-pressure, not errors), but a request that declared a latency
    budget is rejected with this typed error once waiting for queue space
    would eat the budget, so overload degrades to fast failures instead of
    an unbounded producer pile-up.
    """


class _PoolQueue(queue.Queue):
    """The bounded request queue, plus a put the bound does not apply to.

    Producers get back-pressure from the bound; the engine's own puts — the
    stop sentinels — must never wait on the threads that drain the queue,
    so they use :meth:`force`.
    """

    def force(self, item: object) -> None:
        with self.mutex:
            self._put(item)
            self.unfinished_tasks += 1
            self.not_empty.notify()


@dataclass
class EngineStats(ServingCounters):
    """An aggregate, JSON-serializable view of a :class:`ServingEngine`:
    its :class:`ServingCounters` plus what the session and clock add."""

    #: pool threads serving submit()
    shards: int = 0
    compilations: int = 0
    #: instance compiles avoided by specializing a cached plan template
    template_hits: int = 0
    unique_fingerprints: int = 0
    unique_templates: int = 0
    #: requests completed per second between the first submit and the most
    #: recent completion (0.0 before anything completed)
    throughput: float = 0.0
    #: seconds from submit to completion over a bounded recent window
    p50_latency: float = 0.0
    p95_latency: float = 0.0
    #: adoptions of a pinned variant, and returns to the unpinned entry, by
    #: the plans the session caches now: read from their learning state
    pin_adoptions: int = 0
    pin_reverts: int = 0
    #: always 0: nothing retries, requeues or memoizes steps per engine; kept
    #: for records that read them
    retries: int = 0
    restarts: int = 0
    step_reuse_hits: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class ServingEngine(BatchServer):
    """Serves LA workloads on the caller's thread and a pool, on one Session."""

    def __init__(
        self,
        shards: int = 4,
        config: Optional[OptimizerConfig] = None,
        store: Optional[PlanStore] = None,
        store_path: Optional[str] = None,
        cache_size: int = 256,
        queue_depth: int = 256,
        default_deadline: Optional[float] = None,
        optimizer_budget: Optional[float] = None,
        degrade_on_error: bool = False,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        # Checked before anything starts: queue.Queue(0) is unbounded (no
        # back-pressure, no QueueFullError).
        if shards < 1:
            raise ValueError("a serving engine needs at least one pool thread (shards >= 1)")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError("default_deadline must be positive (or None)")
        self.config = config or OptimizerConfig()
        #: per-request latency budget (seconds) applied when a submission
        #: does not set its own; ``None`` keeps the legacy queue-forever
        #: back-pressure behavior
        self.default_deadline = default_deadline
        #: private always-enabled registry backing the engine's latency
        #: accounting, so p50/p95 report whether or not the process opted
        #: into the global obs registry
        self._metrics = obs.MetricsRegistry(namespace="repro", enabled=True)
        self._latency = self._metrics.histogram(
            "serve_latency_seconds",
            "Submit-to-completion latency over a bounded recent window",
        )
        super().__init__(
            session=Session(
                self.config,
                cache_size=cache_size,
                store_path=store_path,
                store=store,
                optimizer_budget=optimizer_budget,
                degrade_on_error=degrade_on_error,
                fault_injector=fault_injector,
            ),
            latency_histogram=self._latency,
        )
        self.queue = _PoolQueue(maxsize=queue_depth)
        self._first_submit: Optional[float] = None
        self._closed = False
        #: submitters (and inline callers) between the closed-check and the
        #: end of their queue put or serve; close() waits for this to reach
        #: zero before stopping the pool, so a request can never land on the
        #: queue after the threads exited
        self._pending_submits = 0
        self._no_pending = threading.Condition(self._lock)
        #: expression-identity -> signature memo; holds strong references so
        #: an id can never be recycled while its entry lives
        self._signatures: "OrderedDict[int, Tuple[la.LAExpr, ExprSignature]]" = OrderedDict()
        #: each pool thread's in-flight batch, for close() to fail on timeout
        self._in_flight: List[List[ShardRequest]] = [[] for _ in range(shards)]
        self._threads = [
            threading.Thread(
                target=self._pool_loop, args=(index,), name=f"spores-serve-{index}", daemon=True
            )
            for index in range(shards)
        ]
        for thread in self._threads:
            thread.start()

    def signature_for(self, expr: la.LAExpr) -> ExprSignature:
        """Fingerprint ``expr``, memoized by object identity.

        A service declares its workload expressions once and submits them
        millions of times; the memo turns the per-request fingerprint walk
        into a dictionary probe.  Entries keep the expression alive, so an
        ``id`` collision with a dead object is impossible; the memo is a
        bounded LRU to keep churny callers from pinning memory.
        """
        key = id(expr)
        with self._lock:
            entry = self._signatures.get(key)
            if entry is not None and entry[0] is expr:
                self._signatures.move_to_end(key)
                return entry[1]
        signature = signature_of(expr)
        with self._lock:
            self._signatures[key] = (expr, signature)
            self._signatures.move_to_end(key)
            while len(self._signatures) > SIGNATURE_MEMO_SIZE:
                self._signatures.popitem(last=False)
        return signature

    # -- submission ------------------------------------------------------------
    def submit(
        self,
        expr: la.LAExpr,
        inputs: Optional[Mapping[str, InputValue]] = None,
        /,
        deadline: Optional[float] = None,
        **named: InputValue,
    ) -> "Future[ExecutionResult]":
        """Enqueue one request; returns a future resolving to its result.

        Fingerprinting, binding and the result-cache lookup happen on the
        caller's thread: an exact repeat — every input the very object an
        earlier request bound — resolves before ``submit`` returns, and a
        request that cannot bind fails with
        :class:`~repro.api.plan.PlanBindingError` before it returns.  A miss
        compiles and executes on a pool thread (unlike :meth:`run`, which
        serves inline).
        ``deadline`` (seconds from now; falls back to the engine's
        ``default_deadline``) turns back-pressure into load shedding: a
        full queue rejects the request with :class:`QueueFullError` once
        waiting would eat the budget, and a request that expires *in* the
        queue is shed by the pool with
        :class:`~repro.serve.worker.DeadlineExceededError` — both resolve
        the future exceptionally and are counted in the engine stats.
        Without a deadline a full queue blocks the producer, as before.

        ``deadline`` is a parameter, not an input: a plan input literally
        named ``deadline`` must be passed via the ``inputs`` mapping
        (the same contract the positional-only ``inputs`` name has).
        """
        return self._enqueue(expr, inputs, named, deadline)

    def run(
        self,
        expr: la.LAExpr,
        inputs: Optional[Mapping[str, InputValue]] = None,
        /,
        deadline: Optional[float] = None,
        **named: InputValue,
    ) -> ExecutionResult:
        """Serve one request on the calling thread and return its result.

        Admitted and shed as :meth:`submit`, whose door answers exact
        repeats too; a miss is served through the pool's own batch path —
        same serving state and counters — on this thread, with no hand-off.
        """
        return self._enqueue(expr, inputs, named, deadline, inline=True).result()

    def run_many(
        self,
        requests: Iterable[Tuple[la.LAExpr, Optional[Mapping[str, InputValue]]]],
    ) -> List[ExecutionResult]:
        """Submit a batch of ``(expr, inputs)`` pairs; gather results in order.

        Submission interleaves with execution on the pool; the returned
        list matches the input order regardless of completion order.
        """
        futures = [self._enqueue(expr, inputs) for expr, inputs in requests]
        return [future.result() for future in futures]

    def warm(self, exprs: Iterable[la.LAExpr]) -> int:
        """Compile expressions on the calling thread without executing.

        Returns the number of *new* compilations the warm-up caused (zero
        when every shape was already cached in memory or loadable from the
        store — the deploy-time goal).  Warm-up is not a request: no
        counter, latency sample or deadline sees it.
        """
        before = self.compilations
        for expr in exprs:
            self.plan_for(expr)
        return self.compilations - before

    def plan_for(self, expr: la.LAExpr) -> CompiledPlan:
        """The compiled plan serving ``expr`` under its own names (compiling
        it if needed), resolved on the calling thread."""
        with self._lock:
            if self._closed:
                raise EngineClosedError("ServingEngine is closed")
        return self._compile(self.signature_for(expr), expr)

    def _enqueue(
        self,
        expr: la.LAExpr,
        inputs: Optional[Mapping[str, InputValue]],
        named: Optional[Mapping[str, InputValue]] = None,
        deadline: Optional[float] = None,
        inline: bool = False,
    ) -> "Future[ExecutionResult]":
        signature = self.signature_for(expr)
        future: "Future[ExecutionResult]" = Future()
        budget = self.default_deadline if deadline is None else deadline
        # The enqueue span covers binding plus the queue put (so its
        # duration surfaces back-pressure waits); its context rides on the
        # request so the serve.request span parents to it across the thread
        # hand-off.
        with _TRACER.span("serve.enqueue", digest=signature.digest[:12]):
            enqueued = time.perf_counter()
            with self._lock:
                if self._closed:
                    raise EngineClosedError("ServingEngine is closed")
                self._pending_submits += 1
                self.counters.submitted += 1
                if self._first_submit is None:
                    self._first_submit = enqueued
            try:
                values = tuple(bind_signature(signature, inputs, named))
            except Exception as error:  # unbindable: fails here, nothing compiles or queues
                with self._lock:
                    self.counters.errors += 1
                self._end_submit()
                _fail(future, error)
                return future
            request = ShardRequest(
                signature=signature,
                expr=expr,
                values=values,
                future=future,
                enqueued=enqueued,
                deadline=None if budget is None else enqueued + budget,
                trace_context=_TRACER.capture(),
            )
            # The door answers a live exact repeat before anything is served.
            live = request.deadline is None or time.perf_counter() <= request.deadline
            hit = self.results.get(signature.digest, values) if live else None
            if hit is None and not inline:
                try:
                    # Outside the lock: a full queue blocks on pool progress,
                    # and the pool keeps draining until close() — which
                    # waits for us — sends the stop sentinels.
                    if request.deadline is None:
                        self._put_blocking(request)
                    else:
                        self._put_or_shed(request)
                finally:
                    self._end_submit()
        if hit is not None:
            self._end_submit()  # a hit puts nothing on the queue for close() to wait on
            # Opened after serve.enqueue closed, parented to it, as served.
            with _TRACER.span(
                "serve.request", parent=request.trace_context,
                digest=signature.digest[:12], cache="result",
            ):
                future.set_result(hit[0])
                self.count_served(request, degraded=hit[1], cache_hit=True)
        elif inline:
            # Still inside the _pending_submits window, so close() waits.
            try:
                self._serve_or_fail([request])
            finally:
                self._end_submit()
        return future

    def _end_submit(self) -> None:
        """Leave the _pending_submits window that close() waits on."""
        with self._lock:
            self._pending_submits -= 1
            if self._pending_submits == 0:
                self._no_pending.notify_all()

    def _put_blocking(self, request: ShardRequest) -> None:
        """Back-pressure enqueue that still cannot outlive the engine.

        Without a deadline a full queue blocks the producer — but only
        while the engine is open: once close() is observed, the pending
        future fails with the typed :class:`EngineClosedError` instead of
        leaving the submitter blocked on a queue nobody will drain.
        """
        while True:
            try:
                self.queue.put(request, timeout=0.1)
                return
            except queue.Full:
                with self._lock:
                    closed = self._closed
                if closed:
                    _fail(
                        request.future,
                        EngineClosedError("ServingEngine closed while waiting for queue space"),
                    )
                    return

    def _put_or_shed(self, request: ShardRequest) -> None:
        """Bounded-wait enqueue for deadline-bearing requests.

        Waits for queue space only as long as the request's own budget
        allows; on expiry the request is shed with :class:`QueueFullError`
        (resolved on the future, counted in ``stats().sheds``) instead of
        blocking the producer indefinitely.
        """
        remaining = request.deadline - time.perf_counter()
        try:
            if remaining > 0:
                self.queue.put(request, timeout=remaining)
                return
        except queue.Full:
            pass
        with self._lock:
            self.counters.sheds += 1
        _fail(
            request.future,
            QueueFullError(
                f"queue full past the request deadline "
                f"({(time.perf_counter() - request.enqueued):.3f}s waited)"
            ),
        )

    # -- the pool --------------------------------------------------------------
    def _pool_loop(self, index: int) -> None:
        """Serve each drain of the queue as one batch until a stop sentinel.

        A drain takes everything queued, so a burst's stackable requests
        meet in one batch; ``queue_depth`` bounds its size.
        """
        while True:
            batch = [self.queue.get()]
            while batch[-1] is not _STOP:
                try:
                    batch.append(self.queue.get_nowait())
                except queue.Empty:
                    break
            stop = batch[-1] is _STOP
            if stop:
                batch.pop()
            if batch:
                self._in_flight[index] = batch
                self._serve_or_fail(batch)
                self._in_flight[index] = []
            if stop:
                return

    def _serve_or_fail(self, batch: List[ShardRequest]) -> None:
        """Serve a batch on this thread; an escaping error fails what it left."""
        try:
            self._serve_batch(batch)
        except Exception as error:
            unresolved = [request for request in batch if not request.future.done()]
            logger.exception("serving a batch failed; failing %d request(s)", len(unresolved))
            with self._lock:
                self.counters.errors += len(unresolved)
            for request in unresolved:
                _fail(request.future, error)

    # -- monitoring ------------------------------------------------------------
    @property
    def compilations(self) -> int:
        """Pipeline runs of the engine's session (0 on a store-warmed fresh engine)."""
        return self.session.compilations

    def health(self) -> Dict[str, object]:
        """Machine-readable liveness/readiness — what a balancer would poll.

        ``live``: the engine is open and a pool thread runs.  ``ready``:
        open *and* every pool thread runs.  ``queue_depth`` is what waits
        for the pool; ``degraded_rate`` is the fraction of served requests
        answered by a baseline (unoptimized) plan.
        """
        alive = sum(thread.is_alive() for thread in self._threads)
        with self._lock:
            closed = self._closed
            served, degraded = self.counters.served, self.counters.degraded
        return {
            "live": not closed and alive > 0,
            "ready": not closed and alive == len(self._threads),
            "queue_depth": self.queue.qsize(),
            "degraded_rate": degraded / served if served else 0.0,
        }

    def stats(self) -> EngineStats:
        """The engine's counters, plus throughput, latency and plan counts."""
        with self._lock:
            counters = {f.name: getattr(self.counters, f.name) for f in fields(ServingCounters)}
            first_submit = self._first_submit
            last_completion = self._last_completion
            unique_fingerprints = len(self._seen_fingerprints)
            unique_templates = len(self._seen_templates)
        served = counters["served"]
        throughput = 0.0
        if served and first_submit is not None and last_completion > first_submit:
            throughput = served / (last_completion - first_submit)
        cache = self.session.stats
        return EngineStats(
            **counters,
            shards=len(self._threads),
            compilations=self.compilations,
            template_hits=cache.template_hits,
            pin_adoptions=cache.pin_adoptions,
            pin_reverts=cache.pin_reverts,
            unique_fingerprints=unique_fingerprints,
            unique_templates=unique_templates,
            throughput=throughput,
            # Quantiles come straight from the latency histogram every
            # completion observes into (nearest-rank over a bounded reservoir).
            p50_latency=self._latency.quantile(0.5),
            p95_latency=self._latency.quantile(0.95),
        )

    def metrics_text(self) -> str:
        """Prometheus-style text exposition for this engine's process.

        The engine's own records — the serving counters of :meth:`stats`,
        the session's cache and compile counters and the store's counters —
        are rendered at call time through a throwaway always-enabled
        registry, so a scrape sees them whether or not the process called
        :func:`repro.obs.enable`.  The serving latency
        histogram and the process-global registry (the compile, saturation
        and fault instruments, which no per-instance record keeps)
        follow.
        """
        stats = self.stats()
        cache = self.session.stats
        store = self.session.store.stats if self.session.store is not None else StoreStats()
        series = {
            ("serve_requests_total", "ok"): stats.served,
            ("serve_requests_total", "error"): stats.errors,
            ("serve_requests_total", "shed"): stats.sheds,
            ("serve_degraded_total", None): stats.degraded,
            ("serve_batches_total", None): stats.batches,
            ("plan_cache_hits_total", None): cache.hits,
            ("plan_cache_misses_total", None): cache.misses,
            ("plan_cache_evictions_total", None): cache.evictions,
            ("plan_cache_template_hits_total", None): cache.template_hits,
            ("session_compilations_total", None): stats.compilations,
            ("session_degraded_total", None): self.session.degraded_compilations,
            ("session_drift_recompiles_total", None): cache.recompiles,
            ("plan_store_loads_total", "hit"): store.hits,
            ("plan_store_loads_total", "miss"): store.misses,
            ("plan_store_loads_total", "error"): store.load_errors,
            ("plan_store_template_loads_total", "hit"): store.template_hits,
            ("plan_store_template_loads_total", "miss"): store.template_misses,
            ("plan_store_writes_total", "ok"): store.writes,
            ("plan_store_writes_total", "error"): store.write_errors,
            ("plan_store_evictions_total", None): store.evictions,
        }
        records = obs.MetricsRegistry(namespace="repro", enabled=True)
        for (name, result), value in series.items():
            labels = {} if result is None else {"result": result}
            records.counter(name, _RECORD_HELP[name], **labels).inc(value)
        return self._metrics.exposition() + records.exposition() + obs.registry().exposition()

    def describe(self) -> Dict[str, object]:
        """A JSON-serializable snapshot: engine stats, the session, the store."""
        record = self.stats().to_dict()
        cache = self.session.describe()
        record["store"] = cache.pop("store")
        record["cache"] = cache
        return record

    # -- lifecycle -------------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting work, let the pool finish the queue, join it.

        Submissions racing with close either fail the closed-check (typed
        :class:`~repro.reliability.EngineClosedError`) or win it — and
        then close waits for their queue put (or inline serve) to finish
        before the stop sentinels are sent, so no future is ever silently
        dropped.  A producer *blocked* on a full queue unblocks with the
        same typed error.  After the pool joins, any request still on the
        queue or in the batch of a thread that outlasted ``timeout`` has its
        future failed with :class:`EngineClosedError` — close never leaves a
        pending future behind.  ``timeout`` bounds the wait for in-flight
        submitters and the pool's join; on expiry close proceeds
        best-effort: a thread still busy then exits after its current batch
        (daemon threads never block interpreter exit).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            if self._closed:
                return
            self._closed = True
            while self._pending_submits:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._no_pending.wait(remaining)
        for _ in self._threads:
            self.queue.force(_STOP)
        for thread in self._threads:
            thread.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
        # On a clean shutdown the pool served the whole queue; otherwise fail
        # whatever is left — queued, or in the batch of a thread that is
        # still busy — and hand each busy thread its sentinel back.
        with self._lock:
            leftovers: List[ShardRequest] = [r for batch in self._in_flight for r in batch]
            stops = 0
            while True:
                try:
                    item = self.queue.get_nowait()
                except queue.Empty:
                    break
                if item is _STOP:
                    stops += 1
                else:
                    leftovers.append(item)
            for _ in range(stops):
                self.queue.force(_STOP)
        for request in leftovers:
            _fail(request.future, EngineClosedError("ServingEngine closed before serving request"))

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "ServingEngine",
    "EngineStats",
    "QueueFullError",
    "DeadlineExceededError",
    "EngineClosedError",
]
