"""Tape-compiled execution: what compiled plans and the serving engine run.

:class:`repro.runtime.engine.Executor` interprets an LA DAG recursively on
every run — structural hashing for runtime CSE, per-intermediate bufferpool
accounting, an op-table lookup per node.  That bookkeeping is what the
run-time figures report and what makes it the reference oracle, but a plan
executed millions of times should not pay it on every request.

A :class:`TapePlan` compiles a *slot-space* plan (as stored in
:class:`repro.api.plan.PlanEntry`) once into a flat instruction tape:

* :func:`linearize` schedules the DAG bottom-up with **object-identity
  sharing** (no structural hashing at run time — sharing was already
  decided at compile time); the fusion planner groups the same schedule
  into regions;
* every step is a closure over its op-table kernel and operand positions,
  so a run is one tight loop over the tape;
* constants (``Literal``, ``FilledMatrix``) are materialized once at tape
  compile time, not per request;
* each step records which input **slots** it transitively depends on, which
  is how a pinned plan finds the steps it hoists.

**Hoisting.**  A plan compiled for *pinned* slots
(``TapePlan(..., pinned=slots)``; the :class:`~repro.api.plan.CompiledPlan`
learns them from repeated input objects) owns a :class:`StepReuseCache`
restricted to the steps only pinned slots determine,
:attr:`TapePlan.hoisted`: a Gram matrix ``t(X) %*% X`` or a transposed
``t(X)`` is computed once per tuple of pinned objects and read on every
later run.  A hit requires every pinned operand to be the *same object* it
was computed from; the cache keeps those objects alive, so the identity
check is O(1) and immune to id recycling.  Callers that mutate a pinned
array in place must bind a new object (the contract NumPy views have
always had).  Layout is part of the same decision:
:func:`~repro.runtime.codegen.build_executable` places a ``RowMajor`` step
under each width-1 product that reads a pinned sparse operand transposed
(:mod:`repro.runtime.layout`), and only pinned slots determine that step,
so it is hoisted like any other.  An unpinned plan has no such cache and
runs the bare loop, and no run keeps its inputs or intermediates once it
returns.

The tape produces numerically identical results to the interpreter — it
calls the same :mod:`repro.runtime.kernels` in the same operand order — and
the unit suite asserts parity on every workload.  What it does *not*
produce is the interpreter's per-intermediate cell/nnz accounting;
:attr:`ExecutionStats.operators_executed` and ``fused_operators`` are
filled from tape metadata and ``elapsed`` is measured, the rest stays zero.
Use the classic :func:`repro.runtime.execute_slots` when the bufferpool
statistics matter more than latency.
"""

from __future__ import annotations

import time
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.lang import expr as la
from repro.runtime import kernels
from repro.runtime.data import MatrixValue
from repro.runtime.engine import (
    ExecutionError,
    ExecutionResult,
    ExecutionStats,
    constant_value,
    slot_name,
)
from repro.runtime.optable import CONSTANT_TYPES, FUSED_PHYSICAL, OP_TABLE, loop_of
from repro.runtime.semiring import Semiring, resolve_semiring

#: one compiled instruction: reads operand positions from the value vector
#: and returns the value the executor writes to the step's own position
StepFn = Callable[[List[Optional[MatrixValue]]], MatrixValue]


class TapeProfilerLike(Protocol):
    """Structural interface of the per-step profiler hook.

    Declared here (rather than importing :mod:`repro.obs.profile`) so the
    runtime has no dependency on the observability package; the obs
    profiler satisfies it.
    """

    def record(
        self, step: int, seconds: float, value: Optional[MatrixValue], reused: bool
    ) -> None: ...


class StepReuseCache:
    """Per-plan memo of step results keyed by the identity of their inputs.

    Holds at most one entry per tape step: ``(operand values, result)``.
    ``operand values`` are the exact slot objects the result was computed
    from; a hit requires every current operand to be the *same object*.

    ``steps`` restricts the memo to those step indices (the pinned-only
    steps an executable hoists); every other step runs as if there were no
    cache.  A restricted cache lives on its executable, and a race between
    two runs costs at most one extra build of a hoisted value.  An
    unrestricted cache is not thread-safe: whoever passes it to
    :meth:`TapePlan.execute` owns it.
    """

    __slots__ = ("_entries", "hits", "misses", "steps")

    def __init__(self, steps: Optional[frozenset] = None) -> None:
        self._entries: Dict[int, Tuple[Tuple[MatrixValue, ...], MatrixValue]] = {}
        self.hits = 0
        self.misses = 0
        #: the step indices memoized (``None``: all of them)
        self.steps = steps

    def covers(self, step: int) -> bool:
        return self.steps is None or step in self.steps

    def lookup(self, step: int, operands: Tuple[MatrixValue, ...]) -> Optional[MatrixValue]:
        entry = self._entries.get(step)
        if entry is not None and len(entry[0]) == len(operands):
            for cached, current in zip(entry[0], operands):
                if cached is not current:
                    break
            else:
                self.hits += 1
                return entry[1]
        self.misses += 1
        return None

    def store(self, step: int, operands: Tuple[MatrixValue, ...], value: MatrixValue) -> None:
        self._entries[step] = (operands, value)

    def clear(self) -> None:
        self._entries.clear()


class Scheduled(NamedTuple):
    """One linearized plan node: a constant or an operator."""

    node: la.LAExpr
    #: value-vector position the node's value lives at
    position: int
    #: positions of the operand values the kernel reads (empty for constants)
    operands: Tuple[int, ...]
    #: input-slot indices the node transitively depends on
    slot_deps: frozenset


def linearize(expr: la.LAExpr, n_slots: int) -> Tuple[List[Scheduled], int]:
    """Linearize a slot-space plan bottom-up; returns ``(schedule, root)``.

    Postorder with object-identity sharing (no structural hashing — sharing
    was decided at plan-compile time).  Slot variables resolve to positions
    ``0..n_slots-1``; every other node is scheduled once, entry ``j`` at
    position ``n_slots + j``, visiting exactly the children the op table
    says its kernel reads (an unweighted ``WSLoss``/``MMChain`` never
    schedules its weight).  The tape turns each entry into a step; the
    region planner groups the same entries into regions.
    """
    schedule: List[Scheduled] = []
    index: Dict[int, int] = {}  # id(node) -> position; nodes stay alive via expr
    deps: Dict[int, frozenset] = {}

    def visit(node: la.LAExpr) -> int:
        known = index.get(id(node))
        if known is not None:
            return known
        if isinstance(node, la.Var):
            position = _slot_index(node.name, n_slots)
            deps[position] = frozenset((position,))
        else:
            operands: Tuple[int, ...] = ()
            if not isinstance(node, CONSTANT_TYPES):
                spec = OP_TABLE.get(type(node))
                if spec is None:
                    raise ExecutionError(
                        f"cannot compile node {type(node).__name__} to a tape"
                    )
                operands = tuple(visit(child) for child in spec.operands(node))
            position = n_slots + len(schedule)
            deps[position] = frozenset().union(*(deps[op] for op in operands))
            schedule.append(Scheduled(node, position, operands, deps[position]))
        index[id(node)] = position
        return position

    return schedule, visit(expr)


def kernel_step(
    node: la.LAExpr, operands: Sequence[int], kernel_set: kernels.KernelSet
) -> StepFn:
    """The op table's kernel for ``node`` as a step over operand positions."""
    fn = OP_TABLE[type(node)].bind(node, kernel_set)
    # arity-specialized: the per-request loop pays one call, no argument list
    if len(operands) == 1:
        (a,) = operands
        return lambda vals: fn(vals[a])
    if len(operands) == 2:
        a, b = operands
        return lambda vals: fn(vals[a], vals[b])
    if len(operands) == 3:
        a, b, c = operands
        return lambda vals: fn(vals[a], vals[b], vals[c])
    return lambda vals: fn(*[vals[position] for position in operands])


def node_label(node: la.LAExpr) -> str:
    return OP_TABLE[type(node)].label(node)


class TapeStep(NamedTuple):
    """One instruction of an executable plan."""

    fn: StepFn
    #: value-vector position the step's result is written to
    out: int
    #: sorted input-slot indices the step transitively reads (reuse keying)
    slot_deps: Tuple[int, ...]
    #: plan nodes whose work the step performs, root last (empty for a
    #: synthesized constant); profilers attribute time and cost through this
    nodes: Tuple[la.LAExpr, ...]
    label: str


class TapePlan:
    """A slot-space LA plan compiled to a flat instruction tape.

    ``ring`` selects the executing semiring (object, registered name, or
    ``None`` for real arithmetic).  Step closures capture the ring's kernel
    set at compile time, so the per-request loop pays no ring dispatch; the
    default real tape captures exactly the historical kernels.

    One step per scheduled node (constants included).  Subclasses install a
    different step list through :meth:`_load` — a
    :class:`~repro.runtime.codegen.FusedPlan` is a tape whose steps are
    fusion regions — and inherit the execution loops unchanged.
    """

    def __init__(
        self,
        expr: la.LAExpr,
        n_slots: int,
        ring: Union[str, Semiring, None] = None,
        pinned: frozenset = frozenset(),
    ) -> None:
        self.ring = resolve_semiring(ring)
        self.n_slots = n_slots
        self.pinned = pinned
        kernel_set = kernels.for_ring(self.ring)
        schedule, root = linearize(expr, n_slots)
        steps: List[TapeStep] = []
        for entry in schedule:
            deps = tuple(sorted(entry.slot_deps))
            if isinstance(entry.node, CONSTANT_TYPES):
                constant = constant_value(entry.node, kernel_set)
                fn: StepFn = lambda vals, c=constant: c
                steps.append(TapeStep(fn, entry.position, deps, (), "Const"))
            else:
                fn = kernel_step(entry.node, entry.operands, kernel_set)
                label = node_label(entry.node)
                steps.append(TapeStep(fn, entry.position, deps, (entry.node,), label))
        fused = sum(1 for entry in schedule if loop_of(entry.node) == FUSED_PHYSICAL)
        self._load(steps, root, n_slots + len(schedule), fused)

    def _load(
        self,
        steps: List[TapeStep],
        root: int,
        n_positions: int,
        fused_operators: int,
        prefill: Sequence[Tuple[int, MatrixValue]] = (),
    ) -> None:
        """Install the step list and the value vector every run starts from."""
        #: executed in order; each step writes position ``step.out``
        self._steps = steps
        self._root = root
        self._fused_steps = fused_operators
        #: copied once per run: ``None`` but for the ``prefill`` constants
        self._template: List[Optional[MatrixValue]] = [None] * n_positions
        for position, value in prefill:
            self._template[position] = value
        hoisted = frozenset(
            index
            for index, step in enumerate(steps)
            if step.slot_deps and self.pinned.issuperset(step.slot_deps)
        )
        #: the memo of the steps only pinned slots determine, computed once
        #: per tuple of pinned objects; ``None`` when there are none
        self.hoisted = StepReuseCache(hoisted) if hoisted else None

    # -- introspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._steps)

    @property
    def fused_operators(self) -> int:
        return self._fused_steps

    @property
    def tape_steps(self) -> int:
        """Steps of the plain one-per-node tape of this plan."""
        return len(self._steps)

    def step_node(self, index: int) -> Optional[la.LAExpr]:
        """The plan node step ``index`` materializes (None for constants)."""
        nodes = self._steps[index].nodes
        return nodes[-1] if nodes else None

    def step_group(self, index: int) -> Tuple[la.LAExpr, ...]:
        """All plan nodes whose work step ``index`` performs (root last).

        One node per step on a plain tape, every folded node on a fused
        region, so profilers can attribute a region's wall time to all of
        them instead of just the root.
        """
        return self._steps[index].nodes

    def step_label(self, index: int) -> str:
        """Human-readable operator label for step ``index``."""
        return self._steps[index].label

    # -- execution -------------------------------------------------------------
    def execute(
        self,
        values: Sequence[MatrixValue],
        reuse: Optional[StepReuseCache] = None,
        profiler: Optional[TapeProfilerLike] = None,
    ) -> ExecutionResult:
        """Run the tape over a positional slot-value vector.

        ``values[i]`` binds slot ``i`` (already coerced to
        :class:`MatrixValue` — plans validate and coerce during binding).
        With ``reuse``, steps whose exact input objects were seen before
        return the remembered result instead of recomputing; without it, the
        steps only pinned slots determine go through :attr:`hoisted`.

        With ``profiler`` (see :class:`repro.obs.profile.TapeProfiler`),
        every step is individually timed and its output recorded, which
        is what attributes wall-time and intermediate cells to plan
        nodes.  Both hooks default to ``None``, which keeps the
        production loop a bare dispatch over the tape.
        """
        if len(values) != self.n_slots:
            raise ExecutionError(
                f"tape expects {self.n_slots} slot values, got {len(values)}"
            )
        start = time.perf_counter()
        vals = self._template.copy()
        vals[: self.n_slots] = values
        if reuse is None:
            reuse = self.hoisted
        if reuse is None and profiler is None:
            for fn, out, _, _, _ in self._steps:
                vals[out] = fn(vals)
        else:
            self._run_hooked(vals, reuse, profiler)
        value = vals[self._root]
        stats = ExecutionStats(
            elapsed=time.perf_counter() - start,
            operators_executed=len(self._steps),
            fused_operators=self._fused_steps,
        )
        if value is None:  # pragma: no cover - root always materialized
            raise ExecutionError("tape produced no root value")
        return ExecutionResult(value=value, stats=stats)

    def _run_hooked(
        self,
        vals: List[Optional[MatrixValue]],
        reuse: Optional[StepReuseCache],
        profiler: Optional[TapeProfilerLike],
    ) -> None:
        for index, (fn, out, deps, _, _) in enumerate(self._steps):
            step_start = time.perf_counter() if profiler is not None else 0.0
            reused = False
            if reuse is not None and deps and reuse.covers(index):
                operands = tuple(vals[slot] for slot in deps)
                cached = reuse.lookup(index, operands)
                if cached is not None:
                    vals[out] = cached
                    reused = True
                else:
                    vals[out] = value = fn(vals)
                    reuse.store(index, operands, value)
            else:
                vals[out] = fn(vals)
            if profiler is not None:
                profiler.record(
                    index, time.perf_counter() - step_start, vals[out], reused
                )


def _slot_index(name: str, n_slots: int) -> int:
    """Parse a slot variable name (``@i``) into its position, validating range."""
    expected_prefix = slot_name(0)[:-1]
    if not name.startswith(expected_prefix):
        raise ExecutionError(
            f"tape plans execute slot-space expressions only; variable {name!r} "
            f"is not a slot (expected names like {slot_name(0)!r})"
        )
    try:
        slot = int(name[len(expected_prefix):])
    except ValueError as error:
        raise ExecutionError(f"malformed slot variable {name!r}") from error
    if not 0 <= slot < n_slots:
        raise ExecutionError(
            f"slot variable {name!r} out of range for {n_slots} bound slots"
        )
    return slot
