"""The sharded serving engine: many workers, one plan store, one front door.

:class:`ServingEngine` is the deployment shape the Session API was built
toward — SPORES' compile-once/execute-many contract stretched across a
worker pool:

* **Sharding by template digest.**  Every request is canonically
  fingerprinted (:func:`repro.canonical.fingerprint.signature_of`, memoized
  by expression identity so a service declaring its workloads once never
  re-walks them) and routed by its *size-free* template digest:
  ``hash(template) % shards``.  One workload shape — the whole size ladder
  of a GLM, say — lands on one shard, where its requests batch together
  and share step-reuse state.
* **One session.**  Every shard resolves plans through the engine's one
  :class:`repro.api.Session` — one plan cache bounded by ``cache_size``,
  one compile per shape whichever shard asks, one set of counters — and
  the workers that replace crashed shards get the same session.  It writes
  through a single :class:`repro.serialize.PlanStore`, so the engine
  inherits the cross-process warm-start story: a fresh pool pointed at a
  store that a warm-up run (``python -m repro.serve.warmup``) filled starts
  with zero compilations.
* **Async-friendly submission.**  :meth:`submit` enqueues onto the target
  shard's bounded queue and returns a :class:`concurrent.futures.Future`
  immediately (back-pressure blocks the producer only once the shard is a
  full queue behind); :meth:`run_many` is the synchronous convenience on
  top.
* **Answers at the door.**  An exact repeat (same fingerprint, same input
  objects) resolves from the engine's one result cache before any queue;
  shards consult it too, so batch-mates and requeues hit it.
* **Caller runs.**  :meth:`run` and :meth:`plan_for` route and admit like
  ``submit``, but when the target shard is idle — empty queue, its
  ``_serving`` lock free — the calling thread serves the request through
  the shard's own ``_serve_batch`` instead of waiting on a thread hand-off;
  a busy shard (or any enabled fault injection) gets it queued.
* **Engine-level statistics.**  :meth:`stats` sums the shards'
  :class:`~repro.serve.worker.ShardCounters` into throughput, p50/p95
  latency and per-shard hit rates, and takes compilation and template-hit
  counts from the session's own records; :meth:`metrics_text` renders the
  same records as Prometheus text.

The serving fast path executes each plan entry's one executable
(:meth:`repro.api.plan.PlanEntry.executable` — an instruction tape whose
steps are fusion regions under real arithmetic, see ``docs/codegen.md``)
with pinned-parameter step reuse and columnwise stacking of same-plan
matvecs behind the engine's result cache — bitwise identical to the reference
interpreter, minus its per-intermediate bufferpool accounting.

**Reliability** (:mod:`repro.reliability` threaded end to end):

* **Shard supervision.**  A monitor thread watches every worker's thread
  liveness; a crashed shard is replaced by a fresh worker on the same
  session (every plan stays cached) on the same result cache, and requeues
  every still-unresolved request — requests are idempotent by future state
  plus the result cache, so a crash costs latency, never answers and never
  a compile.  Every request goes to its home shard: a shard keeps no plan
  and no answer of its own, so a failure one shard sees, its sibling would
  see identically.
* **Graceful degradation.**  With an ``optimizer_budget``, a compile that
  overruns (or an injected optimizer fault) falls back to the unoptimized
  baseline plan — semantically identical under SPORES' equality-saturation
  contract, marked ``degraded`` in every stats surface.  Store read/write
  failures demote to cache misses / skipped persists.
* **Health.**  :meth:`health` reports liveness, readiness, per-shard
  thread state, restart counts and the degraded-request rate — the
  machine-readable shape a load balancer or test harness polls.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro import obs
from repro.api.plan import CompiledPlan, InputValue, bind_signature
from repro.api.session import Session
from repro.canonical.fingerprint import ExprSignature, signature_of
from repro.lang import expr as la
from repro.optimizer.config import OptimizerConfig
from repro.reliability.errors import EngineClosedError
from repro.reliability.faults import NO_FAULTS, FaultInjector
from repro.reliability.retry import RetryPolicy
from repro.runtime.engine import ExecutionResult
from repro.serialize.store import PlanStore, StoreStats
from repro.serve.worker import (
    DeadlineExceededError,
    ResultCache,
    ServingCounters,
    ShardRequest,
    ShardWorker,
    _fail,
    _mark_running,
)


logger = logging.getLogger(__name__)

_TRACER = obs.tracer()

#: entries in the engine's expression-identity -> signature memo
SIGNATURE_MEMO_SIZE = 1024

#: help text of each series :meth:`ServingEngine.metrics_text` renders from the
#: engine's own records
_RECORD_HELP = {
    "serve_requests_total": "Shard requests by final disposition",
    "serve_retries_total": "Transient shard execution failures retried in place",
    "serve_degraded_total": "Requests answered by a degraded baseline plan",
    "serve_batches_total": "Micro-batches drained by shard workers",
    "serve_restarts_total": "Crashed shard workers replaced by the supervisor",
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
    """A deadline-bearing request found its shard queue full for too long.

    The load-shedding half of back-pressure: requests *without* a deadline
    still block the producer (the legacy behavior — a batch loader wants
    back-pressure, not errors), but a request that declared a latency
    budget is rejected with this typed error once waiting for queue space
    would eat the budget, so overload degrades to fast failures instead of
    an unbounded producer pile-up.
    """


@dataclass
class EngineStats(ServingCounters):
    """An aggregate, JSON-serializable view of a :class:`ServingEngine`:
    the shards' :class:`ServingCounters` summed, plus the engine's own."""

    shards: int = 0
    submitted: int = 0
    compilations: int = 0
    #: instance compiles avoided by specializing a cached plan template
    template_hits: int = 0
    unique_fingerprints: int = 0
    unique_templates: int = 0
    #: crashed shards replaced by the supervisor
    restarts: int = 0
    #: requests completed per second between the first submit and the most
    #: recent completion (0.0 before anything completed)
    throughput: float = 0.0
    #: seconds from submit to completion over a bounded recent window
    p50_latency: float = 0.0
    p95_latency: float = 0.0
    #: fraction of served requests that skipped compilation entirely — the
    #: serving-level hit rate (each per-shard snapshot carries that shard's
    #: own ``session.compile`` hits and compilations)
    hit_rate: float = 0.0
    per_shard: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class ServingEngine:
    """Serves LA workloads from a pool of template-routed shards on one Session."""

    def __init__(
        self,
        shards: int = 4,
        config: Optional[OptimizerConfig] = None,
        store: Optional[PlanStore] = None,
        store_path: Optional[str] = None,
        cache_size: int = 256,
        queue_depth: int = 256,
        max_batch: int = 16,
        default_deadline: Optional[float] = None,
        optimizer_budget: Optional[float] = None,
        degrade_on_error: bool = False,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        supervise: bool = True,
        supervision_interval: float = 0.05,
    ) -> None:
        # Checked before anything starts: queue.Queue(0) is unbounded (no
        # back-pressure, no QueueFullError) and Event.wait(0) spins.
        if shards < 1:
            raise ValueError("a serving engine needs at least one shard")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if supervision_interval <= 0:
            raise ValueError("supervision_interval must be positive")
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError("default_deadline must be positive (or None)")
        self.config = config or OptimizerConfig()
        #: per-request latency budget (seconds) applied when a submission
        #: does not set its own; ``None`` keeps the legacy queue-forever
        #: back-pressure behavior
        self.default_deadline = default_deadline
        self.faults = fault_injector or NO_FAULTS
        self.retry_policy = retry_policy
        self._supervision_interval = supervision_interval
        #: the one session every shard — and every replacement — resolves
        #: plans through
        self.session = Session(
            self.config,
            cache_size=cache_size,
            auto_recompile=False,  # deterministic under concurrent load
            store_path=store_path,
            store=store,
            optimizer_budget=optimizer_budget,
            degrade_on_error=degrade_on_error,
            fault_injector=fault_injector,
        )
        #: private always-enabled registry backing the engine's latency
        #: accounting: one shared reservoir the shard workers observe into.
        #: It is engine-owned (not per-worker) so the reservoir survives
        #: supervisor restarts, and always-enabled so p50/p95 report whether
        #: or not the process opted into the global obs registry.
        self._metrics = obs.MetricsRegistry(namespace="repro", enabled=True)
        self._latency = self._metrics.histogram(
            "serve_latency_seconds",
            "Submit-to-completion latency over a bounded recent window",
        )
        self.results = ResultCache()
        self._worker_kwargs = dict(
            results=self.results,
            queue_depth=queue_depth,
            max_batch=max_batch,
            retry_policy=retry_policy,
            faults=self.faults,
            latency_histogram=self._latency,
        )
        self.shards: List[ShardWorker] = [
            ShardWorker(index=index, session=self.session, **self._worker_kwargs)
            for index in range(shards)
        ]
        self._submitted = 0
        #: deadline-bearing submissions rejected at the queue (shard-side
        #: sheds of expired queued requests are counted by the workers)
        self._queue_sheds = 0
        self._first_submit: Optional[float] = None
        self._closed = False
        self._lock = threading.Lock()
        self._restarts = [0] * shards
        #: submitters currently between the closed-check and their queue put;
        #: close() waits for this to reach zero before stopping the shards,
        #: so a request can never land on a queue after its worker exited
        self._pending_submits = 0
        self._no_pending = threading.Condition(self._lock)
        #: expression-identity -> signature memo; holds strong references so
        #: an id can never be recycled while its entry lives
        self._signatures: "OrderedDict[int, Tuple[la.LAExpr, ExprSignature]]" = OrderedDict()
        for shard in self.shards:
            shard.start()
        self._stop_supervisor = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        if supervise:
            self._supervisor = threading.Thread(
                target=self._supervise_loop, name="spores-serve-supervisor", daemon=True
            )
            self._supervisor.start()

    # -- routing ---------------------------------------------------------------
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

    def shard_of(self, digest: str) -> int:
        """Deterministic shard index for a digest (requests route by the
        signature's *template* digest so size ladders co-locate)."""
        return int(digest[:16], 16) % len(self.shards)

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

        Routing (fingerprint, shard pick, binding) and the result-cache
        lookup happen on the caller's thread: an exact repeat — every input
        the very object an earlier request bound — resolves before ``submit``
        returns.  A miss compiles and executes on the shard's worker thread
        (unlike :meth:`run`, which may serve inline).
        ``deadline`` (seconds from now; falls back to the engine's
        ``default_deadline``) turns back-pressure into load shedding: a
        full queue rejects the request with :class:`QueueFullError` once
        waiting would eat the budget, and a request that expires *in* the
        queue is shed by its worker with
        :class:`~repro.serve.worker.DeadlineExceededError` — both resolve
        the future exceptionally and are counted in the engine stats.
        Without a deadline a full queue blocks the producer, as before.

        ``deadline`` is a parameter, not an input: a plan input literally
        named ``deadline`` must be passed via the ``inputs`` mapping
        (the same contract the positional-only ``inputs`` name has).
        """
        merged = self._merge_inputs(inputs, named)
        return self._enqueue(expr, merged, compile_only=False, deadline=deadline)

    def run(
        self,
        expr: la.LAExpr,
        inputs: Optional[Mapping[str, InputValue]] = None,
        /,
        deadline: Optional[float] = None,
        **named: InputValue,
    ) -> ExecutionResult:
        """Serve one request and wait for it: ``submit(...).result()``.

        Routed, admitted and shed as :meth:`submit`, whose door answers exact
        repeats too.  When the target shard is idle (empty queue, nobody
        serving) the *calling* thread serves the request through the shard's
        own batch path — same reuse state and counters — instead of handing
        it to the worker and waiting for the wake-up.  A busy shard, or an
        engine with fault injection on, gets the request queued as by ``submit``.
        """
        merged = self._merge_inputs(inputs, named)
        future = self._enqueue(
            expr, merged, compile_only=False, deadline=deadline, caller_runs=True
        )
        return future.result()

    def run_many(
        self,
        requests: Iterable[Tuple[la.LAExpr, Optional[Mapping[str, InputValue]]]],
    ) -> List[ExecutionResult]:
        """Submit a batch of ``(expr, inputs)`` pairs; gather results in order.

        Submission interleaves with execution across shards; the returned
        list matches the input order regardless of completion order.
        """
        futures = [self._enqueue(expr, inputs, compile_only=False) for expr, inputs in requests]
        return [future.result() for future in futures]

    def warm(self, exprs: Iterable[la.LAExpr]) -> int:
        """Pre-compile expressions through their shards without executing.

        Returns the number of *new* compilations the warm-up caused (zero
        when every shape was already cached in memory or loadable from the
        store — the deploy-time goal).
        """
        before = self.compilations
        futures = [self._enqueue(expr, None, compile_only=True) for expr in exprs]
        for future in futures:
            future.result()
        return self.compilations - before

    def plan_for(self, expr: la.LAExpr) -> CompiledPlan:
        """The compiled plan serving ``expr`` (compiling it if needed)."""
        future = self._enqueue(expr, None, compile_only=True, caller_runs=True)
        plan = future.result()
        assert isinstance(plan, CompiledPlan)
        return plan

    def _enqueue(
        self,
        expr: la.LAExpr,
        inputs: Optional[Mapping[str, InputValue]],
        compile_only: bool,
        deadline: Optional[float] = None,
        caller_runs: bool = False,
    ) -> "Future[object]":
        signature = self.signature_for(expr)
        # Route by the size-free *template* digest: every point of a size
        # ladder lands on one shard, where its requests batch together.
        index = self.shard_of(signature.template_digest)
        future: "Future[object]" = Future()
        # The engine-wide default budget is a *serving* latency contract;
        # compile-only work (deploy-time warm(), plan_for()) is expected to
        # take a full compile's time and only honors an explicit deadline.
        budget = deadline
        if budget is None and not compile_only:
            budget = self.default_deadline
        # The enqueue span covers routing plus the queue put (so its
        # duration surfaces back-pressure waits); its context rides on the
        # request so the worker-side serve.request span parents to it across
        # the thread handoff — and across supervisor requeues.
        with _TRACER.span("serve.enqueue", digest=signature.digest[:12], shard=index):
            try:
                values = None if compile_only else tuple(bind_signature(signature, inputs))
            except Exception:  # unbound: the shard binds again and fails the future
                values = None
            enqueued = time.perf_counter()
            request = ShardRequest(
                signature=signature,
                expr=expr,
                inputs=inputs,
                future=future,
                enqueued=enqueued,
                compile_only=compile_only,
                deadline=None if budget is None else enqueued + budget,
                trace_context=_TRACER.capture(),
                values=values,
            )
            with self._lock:
                if self._closed:
                    raise EngineClosedError("ServingEngine is closed")
                self._pending_submits += 1
                self._submitted += 1
                if self._first_submit is None:
                    self._first_submit = request.enqueued
            # The door answers a live exact repeat before admission.  Faults
            # skip it: repeats must reach injection sites.
            live = request.deadline is None or time.perf_counter() <= request.deadline
            door = live and values is not None and not self.faults.enabled
            hit = self.results.get(signature.digest, values) if door else None
            shard = self.shards[index]
            # Caller runs serves an idle shard here, under its _serving lock
            # (not under faults: crashes must kill workers).
            inline = (
                hit is None
                and caller_runs
                and not self.faults.enabled
                and shard.queue.empty()
                and shard._serving.acquire(blocking=False)
            )
            if hit is None and not inline:
                try:
                    # Outside the lock: a full queue blocks on worker
                    # progress, and workers keep draining until close() —
                    # which waits for us — sends the stop sentinel.
                    if request.deadline is None:
                        self._put_blocking(shard, request)
                    else:
                        self._put_or_shed(shard, request)
                finally:
                    self._end_submit()
        if hit is not None:
            self._end_submit()  # a hit puts nothing on a queue for close() to wait on
            # Opened after serve.enqueue closed, parented to it, as on a shard.
            with _TRACER.span(
                "serve.request", parent=request.trace_context, shard=index,
                digest=signature.digest[:12], cache="result",
            ):
                future.set_result(hit)
                shard.count_served(request, cache_hit=True)
            return future
        if inline:
            # Still inside the _pending_submits window, so close() waits.
            try:
                shard._serve_batch([request])
            finally:
                shard._serving.release()
                self._end_submit()
            return future
        # A supervisor restart racing with our put may have swapped the
        # shard out from under us, stranding the request on a queue no
        # thread drains; detect the swap and move it to the live worker.
        current = self.shards[index]
        if current is not shard:
            self._rescue_stranded(shard, current)
        return future

    def _end_submit(self) -> None:
        """Leave the _pending_submits window that close() waits on."""
        with self._lock:
            self._pending_submits -= 1
            if self._pending_submits == 0:
                self._no_pending.notify_all()

    def _put_blocking(self, shard: ShardWorker, request: ShardRequest) -> None:
        """Back-pressure enqueue that still cannot outlive the engine.

        Without a deadline a full queue blocks the producer — but only
        while the engine is open: once close() is observed, the pending
        future fails with the typed :class:`EngineClosedError` instead of
        leaving the submitter blocked on a queue no worker will drain.
        """
        while True:
            try:
                shard.queue.put(request, timeout=0.1)
                return
            except queue.Full:
                with self._lock:
                    closed = self._closed
                if closed:
                    if _mark_running(request.future):
                        _fail(
                            request.future,
                            EngineClosedError(
                                "ServingEngine closed while waiting for queue space"
                            ),
                        )
                    return

    def _rescue_stranded(self, dead: ShardWorker, live: ShardWorker) -> None:
        """Move requests that landed on a replaced worker's queue.

        Covers the submit/restart race: the supervisor drained the dead
        queue before swapping, but a submitter that had already picked the
        old worker object may put after the swap.  Draining again and
        forwarding the unresolved remainder closes the gap; queue.Queue is
        thread-safe, so concurrent rescuers are merely redundant.
        """
        stranded, _ = dead._drain(None)
        for request in stranded:
            if not request.future.done():
                live.queue.put(request)

    def _put_or_shed(self, shard: ShardWorker, request: ShardRequest) -> None:
        """Bounded-wait enqueue for deadline-bearing requests.

        Waits for queue space only as long as the request's own budget
        allows; on expiry the request is shed with :class:`QueueFullError`
        (resolved on the future, counted in ``stats().sheds``) instead of
        blocking the producer indefinitely.
        """
        remaining = request.deadline - time.perf_counter()
        try:
            if remaining > 0:
                shard.queue.put(request, timeout=remaining)
                return
        except queue.Full:
            pass
        with self._lock:
            self._queue_sheds += 1
        if request.future.set_running_or_notify_cancel():
            request.future.set_exception(
                QueueFullError(
                    f"shard {shard.index} queue full past the request deadline "
                    f"({(time.perf_counter() - request.enqueued):.3f}s waited)"
                )
            )

    @staticmethod
    def _merge_inputs(
        inputs: Optional[Mapping[str, InputValue]],
        named: Mapping[str, InputValue],
    ) -> Optional[Mapping[str, InputValue]]:
        if not named:
            return inputs
        merged: Dict[str, InputValue] = dict(inputs or {})
        merged.update(named)
        return merged

    # -- supervision -----------------------------------------------------------
    def _supervise_loop(self) -> None:
        while not self._stop_supervisor.wait(self._supervision_interval):
            try:
                self._check_shards()
            except Exception:  # pragma: no cover - supervisor must survive
                # A monitoring bug must never take down request serving;
                # the next tick retries with fresh state.
                continue

    def _check_shards(self) -> None:
        for index in range(len(self.shards)):
            with self._lock:
                if self._closed:
                    return
            worker = self.shards[index]
            if not worker.thread.is_alive() and not worker.stopped:
                self._restart_shard(index, worker)

    def _restart_shard(self, index: int, dead: ShardWorker) -> None:
        """Replace a crashed worker and requeue its unresolved work.

        The replacement runs on the engine's one session and result cache,
        so every plan is still cached and a requeued request that was
        already answered is a cache hit; it inherits the dead worker's
        monotonic counters, so engine totals never regress.
        """
        replacement = ShardWorker(index=index, session=self.session, **self._worker_kwargs)
        replacement.counters = dead.counters
        with self._lock:
            self._restarts[index] += 1
            restart_count = self._restarts[index]
        logger.warning(
            "shard %d worker crashed; restarting (restart #%d for this shard)",
            index,
            restart_count,
        )
        self.shards[index] = replacement
        replacement.start()
        # After the swap: new submissions route to the replacement, so the
        # dead queue only shrinks (the submit-race remainder is caught by
        # _rescue_stranded).  Requeue in arrival order.
        for request in dead.take_unresolved():
            replacement.queue.put(request)

    # -- monitoring ------------------------------------------------------------
    @property
    def compilations(self) -> int:
        """Pipeline runs of the engine's session (0 on a store-warmed fresh pool)."""
        return self.session.compilations

    def health(self) -> Dict[str, object]:
        """Machine-readable liveness/readiness — what a balancer would poll.

        ``live``: the engine is open and at least one shard thread runs.
        ``ready``: open *and* every shard thread runs — none is waiting for
        a restart.  Per shard: thread liveness, queue depth, restart count
        and served/degraded counts.  ``degraded_rate`` is the fraction of
        served requests answered by a baseline (unoptimized) plan.
        """
        with self._lock:
            closed = self._closed
            restarts = list(self._restarts)
        shard_records: List[Dict[str, object]] = []
        served = degraded = 0
        alive_shards = 0
        for index, worker in enumerate(self.shards):
            alive = worker.thread.is_alive()
            alive_shards += alive
            with worker._lock:
                shard_served = worker.counters.served
                shard_degraded = worker.counters.degraded
            served += shard_served
            degraded += shard_degraded
            shard_records.append(
                {
                    "shard": index,
                    "alive": alive,
                    "stopped": worker.stopped,
                    "queue_depth": worker.queue.qsize(),
                    "restarts": restarts[index],
                    "served": shard_served,
                    "degraded": shard_degraded,
                }
            )
        return {
            "live": not closed and alive_shards > 0,
            "ready": not closed and alive_shards == len(self.shards),
            "shards": shard_records,
            "restarts": sum(restarts),
            "degraded_rate": degraded / served if served else 0.0,
        }

    def stats(self) -> EngineStats:
        """Aggregate the shard snapshots into one engine-level record."""
        snapshots = [shard.snapshot() for shard in self.shards]

        def total(name: str) -> int:
            return sum(int(snap[name]) for snap in snapshots)

        counters = {f.name: total(f.name) for f in fields(ServingCounters)}
        served = counters["served"]
        with self._lock:
            submitted = self._submitted
            queue_sheds = self._queue_sheds
            first_submit = self._first_submit
            restarts = sum(self._restarts)
        last_completion = max((shard.last_completion() for shard in self.shards), default=0.0)
        throughput = 0.0
        if served and first_submit is not None and last_completion > first_submit:
            throughput = served / (last_completion - first_submit)
        compilations = self.compilations
        # Clamped: a compile whose requests then all failed binding counts
        # in compilations but not in served.
        hit_rate = max(0.0, served - compilations) / served if served else 0.0
        # Deadline-bearing submissions rejected at a full queue never reach
        # a shard; they are sheds all the same.
        counters["sheds"] += queue_sheds
        return EngineStats(
            **counters,
            shards=len(self.shards),
            submitted=submitted,
            compilations=compilations,
            template_hits=self.session.stats.template_hits,
            unique_fingerprints=total("unique_fingerprints"),
            unique_templates=total("unique_templates"),
            restarts=restarts,
            throughput=throughput,
            # Quantiles come straight from the shared latency histogram the
            # workers observe into (nearest-rank over a bounded reservoir).
            p50_latency=self._latency.quantile(0.5),
            p95_latency=self._latency.quantile(0.95),
            hit_rate=hit_rate,
            per_shard=snapshots,
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
            ("serve_retries_total", None): stats.retries,
            ("serve_degraded_total", None): stats.degraded,
            ("serve_batches_total", None): stats.batches,
            ("serve_restarts_total", None): stats.restarts,
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
        """Stop accepting work, let shards finish their queues, join threads.

        Submissions racing with close either fail the closed-check (typed
        :class:`~repro.reliability.EngineClosedError`) or win it — and
        then close waits for their queue put to land before the stop
        sentinel is sent, so no future is ever silently dropped.  A
        producer *blocked* on a full queue unblocks with the same typed
        error.  After the workers join, any request still sitting on a
        queue (a crashed shard's leftovers, a timed-out join) has its
        future failed with :class:`EngineClosedError` — close never leaves
        a pending future behind.  ``timeout`` bounds the wait for
        in-flight submitters and each shard join; on expiry close proceeds
        best-effort: a worker still busy then exits after its current batch
        (daemon workers never block interpreter exit).
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
        self._stop_supervisor.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout)
        for shard in self.shards:
            shard.stop(timeout)
        # Drain once more: a crashed shard (no supervisor anymore) or a
        # timed-out join may leave requests nobody will serve — queued or
        # abandoned mid-batch.  Fail their futures with the typed closed
        # error so no submitter waits forever on an engine that no longer
        # exists.  On a clean shutdown every worker drained its queue and
        # cleared its batch, so this is a no-op.
        for shard in self.shards:
            for request in shard.take_unresolved():
                if _mark_running(request.future):
                    _fail(
                        request.future,
                        EngineClosedError("ServingEngine closed before serving request"),
                    )
            # A live worker that outlasted the timeout never got the stop
            # sentinel (its queue was full) or just lost it to the drain
            # above; the queue is empty now, so hand it over without waiting.
            shard.stop(0)

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
