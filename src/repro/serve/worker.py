"""The serving path: how a batch of requests is served, on whichever thread.

:class:`BatchServer` is the half of :class:`~repro.serve.ServingEngine` that
serves.  It owns no thread: a :meth:`~repro.serve.ServingEngine.run` caller
serves its one request through :meth:`BatchServer._serve_batch` on its own
thread, and the engine's pool threads serve what
:meth:`~repro.serve.ServingEngine.submit` queued through the same method.
Every request it sees was bound at the engine's door and will execute
unless it is shed or fails; compile-only work (``warm``, ``plan_for``) never
becomes a request.  Everything it keeps is engine-wide:

* the engine's one :class:`repro.api.Session` (``session.compile(expr,
  signature)``; a cache hit is a dictionary probe), so a plan compiled,
  loaded or specialized by any thread is there for all of them;
* the engine's one :class:`ResultCache`, which every execution fills for
  the door to answer exact repeats from;
* one :class:`ServingCounters` record under the engine lock;
* per-executable serving state (:class:`_LocalState`): the
  columnwise-stacking verdict, in a :class:`weakref.WeakKeyDictionary`
  keyed by the plan entry's executable, so an entry the session evicts takes
  its state with it.  Each state has its own lock, held only while a family
  is stacked on that executable: two threads serving one plan execute side
  by side and take turns only on its stacking verdict.

What a plan *learns* is not kept here: it lives on the session's cached
entry (:class:`~repro.api.plan.PlanLearning`), shared with every
:class:`~repro.api.plan.CompiledPlan` view of it.

**Micro-batching.**  A batch is grouped by instance digest and the groups
are served largest first — a stacked group answers the most requests per
millisecond; each group resolves its plan once and serves its requests, in
arrival order, back-to-back.  Other sizes of one template specialize off the
cached template through the session's template tier whatever order they
arrive in.  An inline batch is just one request.

**Learn → execute → record.**  Each request runs the step
:meth:`~repro.api.plan.CompiledPlan.run` runs: ``_learn`` counts its bound
objects on the entry's learning state and returns the entry in force — the
pinned variant once the repeats reach its ``N*``, the unpinned entry again
as soon as a pinned object changes — the request executes on that entry's
one executable (:meth:`~repro.api.plan.PlanEntry.executable`, a tape whose
steps are fusion regions under real arithmetic, the plain operator tape
otherwise; both bitwise identical to the interpreter), and ``_record``
counts the run and checks drift.  An instance group learns every member,
in arrival order, before anything executes, then executes and records them
in the same order.  An exact repeat answered at the door learns nothing.

**Columnwise stacking.**  When a plan is structurally columnwise in one
``(m, 1)`` slot, each family of an instance group's matvec requests —
members that bind the very same objects in every other slot — is
additionally *stacked* into one matmat execution and the result columns
split back out, verified per executable against individual execution (see
``_serve_stacked``).  A family stacks on the executable its members learned
while that executable's verdict holds; once it is ``off`` (a pinned
variant's dense Gram ``G @ W`` is one gemm, not bitwise equal to the gemvs
``G @ w``), the family stacks on the unpinned entry of the same hints
instead.

**Deadlines.**  A request may carry an absolute deadline; expired requests
are shed at the head of their instance group, before its plan is resolved
(typed :class:`DeadlineExceededError` on the future, counted) instead of
spending executor time on answers nobody is waiting for.

**Failure semantics.**  Every request carries a
:class:`concurrent.futures.Future`, which stays pending until it is
answered.  A compile error fails the requests of its instance group, an
execution error fails its own request (a binding error failed it at the
door); nothing is retried.  Plans are pure functions of their inputs, so an
error would repeat on every attempt and on every thread.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro import obs
from repro.api.plan import CompiledPlan, PlanEntry
from repro.api.session import Session
from repro.canonical.fingerprint import ExprSignature
from repro.lang import expr as la
from repro.reliability.errors import DeadlineExceededError
from repro.runtime.codegen import stackable_slot
from repro.runtime.data import MatrixValue
from repro.runtime.engine import ExecutionResult, ExecutionStats
from repro.runtime.tape import TapePlan

#: entries in the engine's (fingerprint, input identities) -> result memo
RESULT_CACHE_SIZE = 256

_TRACER = obs.tracer()


def _resolve(future: "Future[object]", result: object) -> None:
    """Set a result, ignoring futures that were cancelled while served."""
    try:
        future.set_result(result)
    except InvalidStateError:  # pragma: no cover - cancel race
        pass


def _fail(future: "Future[object]", error: BaseException) -> None:
    """Set an exception, ignoring futures already cancelled or answered."""
    try:
        future.set_exception(error)
    except InvalidStateError:
        pass


class ResultCache:
    """The engine's one bounded LRU memo of answers to exact repeats, keyed
    by fingerprint and the ``id`` of every bound input.  An entry holds its
    input objects, so their ids cannot be recycled while it lives: an id
    match is an identity match, and an equal copy misses.  An entry also
    records whether a degraded plan computed it, so a repeat is counted as
    its original was."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, Tuple[int, ...]], Tuple[Tuple[MatrixValue, ...], ExecutionResult, bool]]" = OrderedDict()

    def get(
        self, digest: str, values: Sequence[MatrixValue]
    ) -> Optional[Tuple[ExecutionResult, bool]]:
        """``(result, degraded)`` of an exact repeat, or ``None``."""
        key = (digest, tuple(map(id, values)))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[1], entry[2]

    def put(
        self,
        digest: str,
        values: Sequence[MatrixValue],
        result: ExecutionResult,
        degraded: bool = False,
    ) -> None:
        with self._lock:
            self._entries[(digest, tuple(map(id, values)))] = (tuple(values), result, degraded)
            while len(self._entries) > RESULT_CACHE_SIZE:
                self._entries.popitem(last=False)


@dataclass
class ShardRequest:
    """One request on its way through the engine: bound values that will
    execute, unless shed or failed first."""

    signature: ExprSignature
    expr: la.LAExpr
    #: inputs in slot order, bound at the door through ``signature``
    values: Tuple[MatrixValue, ...]
    future: "Future[ExecutionResult]"
    #: engine-side enqueue timestamp (perf_counter) for latency accounting
    enqueued: float
    #: absolute perf_counter time after which the request is shed unserved
    deadline: Optional[float] = None
    #: trace context captured at submit time; the serve-path span parents to
    #: it, so parentage survives micro-batching and the queue hand-off — the
    #: context rides on the request object
    trace_context: Optional[obs.SpanContext] = None


@dataclass
class _LocalState:
    """The engine's serving state for one executable.

    Everything here is name-free — slot space only — so every renamed or
    permuted twin of a shape shares it; binding always goes through the
    *request's* signature.  ``slot`` is the structurally-stackable column
    slot (``None`` disables stacking outright); ``status`` walks
    ``untested`` (verify every member of the first stacked batch) -> ``on``
    (verify one rotating member per batch) -> ``off`` (any mismatch
    permanently disables stacking).  See ``_serve_stacked``.  ``lock``
    guards ``status`` and ``batches``: it is held while a family is stacked
    on this executable, and at no other time."""

    slot: Optional[int]
    status: str = "untested"
    batches: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass
class ServingCounters:
    """The serving counters, declared once.

    The engine counts them under its lock and ``EngineStats`` copies them
    by :func:`dataclasses.fields`, so a new counter is one line here.
    """

    submitted: int = 0
    served: int = 0
    errors: int = 0
    #: requests rejected unserved because their deadline had already passed,
    #: in the queue or at a full queue
    sheds: int = 0
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


class BatchServer:
    """Serves batches of requests on the calling thread (see module doc)."""

    def __init__(
        self,
        session: Session,
        latency_histogram: obs.Histogram,
    ) -> None:
        #: the one session every request resolves its plan through
        self.session = session
        #: the one result cache: the door reads it, every execution fills it
        self.results = ResultCache()
        self.latency_histogram = latency_histogram
        #: the engine lock: counters, the sets below, _local's membership
        self._lock = threading.Lock()
        self.counters = ServingCounters()
        #: perf_counter timestamp of the most recent completion
        self._last_completion = 0.0
        #: fingerprints and size-free template digests ever served (plans may
        #: since be evicted)
        self._seen_fingerprints: set = set()
        self._seen_templates: set = set()
        #: executable -> serving state; weak, so an entry the session evicts
        #: takes its state with it
        self._local: "WeakKeyDictionary[TapePlan, _LocalState]" = WeakKeyDictionary()

    def _serve_batch(self, batch: List[ShardRequest]) -> None:
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
        with _TRACER.span("serve.batch", parent=None, size=len(batch), groups=len(groups)):
            # Largest group first (a stable sort keeps ties in arrival order).
            for members in sorted(groups.values(), key=len, reverse=True):
                # Shed at the group head, before its plan resolves: a group
                # of dead requests must not pay a compile (the check in
                # _serve_one catches budgets that expire mid-group).
                now = time.perf_counter()
                live: List[ShardRequest] = []
                for request in members:
                    if request.deadline is not None and now > request.deadline:
                        self._shed(request)
                    else:
                        live.append(request)
                members = live
                if not members:
                    continue
                try:
                    plan = self._compile(members[0].signature, members[0].expr)
                except Exception as error:  # compile failure poisons the instance only
                    with self._lock:
                        self.counters.errors += len(members)
                    for request in members:
                        _fail(request.future, error)
                    continue
                self._serve_group(plan, members)

    def _serve_group(self, plan: CompiledPlan, members: List[ShardRequest]) -> None:
        """Learn every live member in arrival order, stack, serve each."""
        members = [request for request in members if not request.future.done()]
        entries = {id(request): plan._learn(request.values) for request in members}
        prestacked = self._prestack(plan, members, entries) if len(members) > 1 else {}
        for request in members:
            self._serve_one(plan, entries[id(request)], request, prestacked)

    def _local_state(self, entry: PlanEntry, tape: TapePlan) -> _LocalState:
        """The executable's serving state, created on first use."""
        with self._lock:
            local = self._local.get(tape)
            if local is None:
                local = _LocalState(slot=stackable_slot(entry.slot_plan, tape.n_slots))
                self._local[tape] = local
            return local

    def _prestack(
        self,
        plan: CompiledPlan,
        members: List[ShardRequest],
        entries: Dict[int, PlanEntry],
    ) -> Dict[int, ExecutionResult]:
        """Stack the families of each entry the members learned (``_serve_stacked``).

        Members go to the executable of the entry they learned; where that
        verdict is ``off`` they go, with that entry's other members, to the
        unpinned entry of the same hints, whose stacking holds on its own.
        """
        learned: Dict[int, Tuple[PlanEntry, List[ShardRequest]]] = {}
        for request in members:
            entry = entries[id(request)]
            learned.setdefault(id(entry), (entry, []))[1].append(request)
        prestacked: Dict[int, ExecutionResult] = {}
        unpinned: Dict[int, Tuple[PlanEntry, List[ShardRequest]]] = {}
        for entry, group in learned.values():
            base = plan._unpinned(entry)
            if base is entry or not self._stack_on(plan, entry, group, prestacked):
                unpinned.setdefault(id(base), (base, []))[1].extend(group)
        for base, group in unpinned.values():
            self._stack_on(plan, base, group, prestacked)
        return prestacked

    def _stack_on(
        self,
        plan: CompiledPlan,
        entry: PlanEntry,
        members: List[ShardRequest],
        prestacked: Dict[int, ExecutionResult],
    ) -> bool:
        """Stack ``members`` on ``entry``'s executable; false once its verdict is off."""
        tape = entry.executable(plan.ring)
        local = self._local_state(entry, tape)
        if local.slot is None:
            return False
        with local.lock:
            prestacked.update(self._serve_stacked(tape, local, members))
            return local.status != "off"

    def _compile(self, signature: ExprSignature, expr: la.LAExpr) -> CompiledPlan:
        """The session's plan under ``signature``'s names."""
        plan = self.session.compile(expr, signature)
        with self._lock:
            self._seen_fingerprints.add(signature.digest)
            self._seen_templates.add(signature.template_digest)
        return plan

    def _run_tape(self, tape: TapePlan, values: Sequence[MatrixValue]) -> ExecutionResult:
        """The serving path's one call into an executable."""
        return tape.execute(values)

    def _shed(self, request: ShardRequest) -> None:
        """Drop an expired request with the typed shed error (counted)."""
        if request.future.done():
            return
        with self._lock:
            self.counters.sheds += 1
        _fail(
            request.future,
            DeadlineExceededError(
                f"request deadline exceeded after "
                f"{time.perf_counter() - request.enqueued:.3f}s in queue"
            ),
        )

    def _serve_one(
        self,
        plan: CompiledPlan,
        entry: PlanEntry,
        request: ShardRequest,
        prestacked: Dict[int, ExecutionResult],
    ) -> None:
        if request.deadline is not None and time.perf_counter() > request.deadline:
            # The budget expired while earlier groups of this batch ran.
            self._shed(request)
            return
        if request.future.done():  # cancelled, or failed by close()
            return
        with _TRACER.span(
            "serve.request",
            parent=request.trace_context,
            digest=request.signature.digest[:12],
        ) as span:
            try:
                result = self._execute(plan, entry, request, prestacked)
            except Exception as error:
                with self._lock:
                    self.counters.errors += 1
                span.set_attribute("result", "error")
                _fail(request.future, error)
                return
            self.count_served(request, degraded=entry.degraded)
            span.set_attribute("result", "ok")
            _resolve(request.future, result)

    def count_served(
        self, request: ShardRequest, degraded: bool = False, cache_hit: bool = False
    ) -> None:
        """Count a served request, or a door hit."""
        now = time.perf_counter()
        with self._lock:
            self.counters.served += 1
            self.counters.degraded += degraded
            self.counters.result_cache_hits += cache_hit
            self._last_completion = now
        self.latency_histogram.observe(now - request.enqueued)

    def _serve_stacked(
        self, tape: TapePlan, local: _LocalState, members: List[ShardRequest]
    ) -> Dict[int, ExecutionResult]:
        """Serve each family of one instance group as a column-stacked execution.

        Columnwise numeric batching: when the plan is structurally
        columnwise in one ``(m, 1)`` slot (``stackable_slot``), the members
        whose column is a dense ``(m, 1)`` value and whose every other slot
        binds the *same* value objects form a family; each family of two or
        more is executed as one matmat over its column-stacked inputs, and
        the result columns are returned per request, keyed by
        ``id(request)``, for ``_execute`` to hand out.  A member outside
        every family (other objects, a sparse column) is absent
        from the mapping and served on its own.

        Structure is necessary but not sufficient for bitwise equality
        (stacked gemm may accumulate differently from k gemvs), so results
        are *verified* against individual execution — every member of the
        plan's first stacked execution, then one rotating member per
        execution — and any mismatch permanently disables stacking for the
        plan; that family is then served individually.  An error raised for
        one family (a member's input the tape rejects) leaves stacking as it
        was: that family alone is served individually, so the error fails
        only its own request.  Called under ``local.lock``, the one lock
        of ``status`` and ``batches``.
        """
        slot = local.slot
        if slot is None or local.status == "off" or len(members) < 2:
            return {}
        families: Dict[Tuple[object, ...], List[ShardRequest]] = {}
        for request in members:
            values = request.values
            column = values[slot]
            if column.is_sparse or column.shape[1] != 1:
                continue
            key = (column.shape, *(id(value) for i, value in enumerate(values) if i != slot))
            families.setdefault(key, []).append(request)
        prestacked: Dict[int, ExecutionResult] = {}
        for family in families.values():
            if local.status == "off":
                break
            if len(family) > 1:
                try:
                    prestacked.update(self._stack_family(tape, local, family))
                except Exception:  # a member's own error: serve the family one by one
                    continue
        return prestacked

    def _stack_family(
        self, tape: TapePlan, local: _LocalState, family: List[ShardRequest]
    ) -> Dict[int, ExecutionResult]:
        """One verified stacked execution of a family (see ``_serve_stacked``)."""
        slot = local.slot
        bound = [request.values for request in family]
        # Row-major: stack the columns as rows, then transpose once —
        # concatenating (m, 1) columns writes every element strided.
        stacked_values = list(bound[0])
        stacked_values[slot] = MatrixValue(
            np.ascontiguousarray(np.vstack([values[slot].to_dense().ravel() for values in bound]).T)
        )
        stacked = self._run_tape(tape, stacked_values)
        dense_out = stacked.value.to_dense()
        if dense_out.ndim != 2 or dense_out.shape[1] != len(family):
            local.status = "off"
            return {}
        results = [
            MatrixValue(np.ascontiguousarray(dense_out[:, j : j + 1]))
            for j in range(len(family))
        ]
        verify = (
            range(len(family))
            if local.status == "untested"
            else (local.batches % len(family),)
        )
        for j in verify:
            individual = self._run_tape(tape, bound[j])
            if (
                individual.value.is_sparse != results[j].is_sparse
                or individual.value.shape != results[j].shape
                or not np.array_equal(individual.value.to_dense(), results[j].to_dense())
            ):
                local.status = "off"
                return {}
        local.status = "on"
        local.batches += 1
        with self._lock:
            self.counters.stacked_batches += 1
            self.counters.stacked_requests += len(family)
        elapsed = stacked.stats.elapsed / len(family)
        stats = ExecutionStats(
            elapsed=elapsed,
            operators_executed=stacked.stats.operators_executed,
            fused_operators=stacked.stats.fused_operators,
        )
        return {
            id(request): ExecutionResult(value=value, stats=stats)
            for request, value in zip(family, results)
        }

    def _execute(
        self,
        plan: CompiledPlan,
        entry: PlanEntry,
        request: ShardRequest,
        prestacked: Dict[int, ExecutionResult],
    ) -> ExecutionResult:
        values = request.values
        result = prestacked.pop(id(request), None)
        if result is None:
            tape = entry.executable(plan.ring)
            with _TRACER.span("serve.execute", steps=len(tape)):
                result = self._run_tape(tape, values)
        plan._record(values, result)
        self.results.put(request.signature.digest, values, result, entry.degraded)
        return result
