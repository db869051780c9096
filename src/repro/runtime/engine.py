"""The LA execution engine.

``Executor.execute`` evaluates an LA DAG against named inputs, reusing every
shared common subexpression (runtime CSE, as SystemML's bufferpool would)
and recording execution statistics: how many intermediates were allocated,
how many cells / non-zeros those intermediates held, and which fused
operators fired.  Those statistics are what the run-time experiments
(Figures 15 and 17) report alongside wall-clock time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.lang import expr as la
from repro.runtime import kernels
from repro.runtime.data import MatrixValue, as_value
from repro.runtime.optable import CONSTANT_TYPES, FUSED_PHYSICAL, OP_TABLE
from repro.runtime.semiring import Semiring, resolve_semiring


class ExecutionError(RuntimeError):
    """Raised when an LA expression cannot be evaluated."""


@dataclass
class ExecutionStats:
    """Statistics collected while executing one DAG."""

    elapsed: float = 0.0
    operators_executed: int = 0
    intermediates: int = 0
    intermediate_cells: float = 0.0
    intermediate_nnz: float = 0.0
    fused_operators: int = 0
    peak_intermediate_cells: float = 0.0
    operator_counts: Dict[str, int] = field(default_factory=dict)

    def record(self, op_name: str, value: Union[MatrixValue, float]) -> None:
        self.operators_executed += 1
        self.operator_counts[op_name] = self.operator_counts.get(op_name, 0) + 1
        if isinstance(value, MatrixValue) and not value.is_scalar:
            self.intermediates += 1
            self.intermediate_cells += value.cells
            self.intermediate_nnz += value.nnz
            self.peak_intermediate_cells = max(self.peak_intermediate_cells, float(value.cells))


@dataclass
class ExecutionResult:
    """The value of the root expression plus collected statistics."""

    value: Union[MatrixValue, float]
    stats: ExecutionStats

    def scalar(self) -> float:
        if isinstance(self.value, MatrixValue):
            return self.value.scalar_value()
        return float(self.value)

    def to_dense(self) -> np.ndarray:
        if isinstance(self.value, MatrixValue):
            return self.value.to_dense()
        return np.array([[self.value]])


def slot_name(index: int) -> str:
    """Name of the variable bound to slot ``index`` in a slot-space DAG.

    Mirrors :func:`repro.canonical.fingerprint.slot_var_name` (kept in sync
    by a unit test) without importing it: the runtime stays independent of
    the canonicalization layer.
    """
    return f"@{index}"


class Executor:
    """Evaluates LA DAGs over :class:`MatrixValue` inputs.

    ``ring`` selects the semiring the DAG is evaluated over (a
    :class:`~repro.runtime.semiring.Semiring`, a registered ring name, or
    ``None`` for real arithmetic).  The default real executor runs the
    historical sparse-aware kernels unchanged; a non-real executor binds
    the dense ring-generic kernel set and interprets scalar literals
    through the counting homomorphism (``n`` ↦ n-fold ⊕ of one).
    """

    def __init__(self, ring: Union[str, Semiring, None] = None) -> None:
        self.ring = resolve_semiring(ring)
        self._k = kernels.for_ring(self.ring)

    def execute(
        self,
        expr: la.LAExpr,
        inputs: Optional[Dict[str, Union[MatrixValue, np.ndarray, float]]] = None,
    ) -> ExecutionResult:
        """Evaluate ``expr``; ``inputs`` maps variable names to values."""
        bindings = {name: as_value(value) for name, value in (inputs or {}).items()}
        return self._run(expr, bindings)

    def execute_slots(
        self,
        expr: la.LAExpr,
        values: Sequence[Union[MatrixValue, np.ndarray, float]],
    ) -> ExecutionResult:
        """Evaluate a *slot-space* DAG against a positional value vector.

        ``expr`` must use slot variable names (``@0``, ``@1``, ...) as
        produced by :func:`repro.canonical.fingerprint.slot_expression`;
        ``values[i]`` is bound to slot ``i``.  This is the execution path of
        compiled plans: one cached name-free plan serves every request that
        shares its fingerprint, however the request named its inputs.
        """
        bindings = {slot_name(i): as_value(value) for i, value in enumerate(values)}
        return self._run(expr, bindings)

    def _run(self, expr: la.LAExpr, bindings: Dict[str, MatrixValue]) -> ExecutionResult:
        stats = ExecutionStats()
        cache: Dict[la.LAExpr, MatrixValue] = {}
        start = time.perf_counter()
        value = self._eval(expr, bindings, cache, stats)
        stats.elapsed = time.perf_counter() - start
        return ExecutionResult(value=value, stats=stats)

    # -- evaluation --------------------------------------------------------------
    def _eval(
        self,
        node: la.LAExpr,
        bindings: Dict[str, MatrixValue],
        cache: Dict[la.LAExpr, MatrixValue],
        stats: ExecutionStats,
    ) -> MatrixValue:
        if node in cache:
            return cache[node]
        if isinstance(node, la.Var):
            if node.name not in bindings:
                raise ExecutionError(f"no input bound to variable {node.name!r}")
            value = bindings[node.name]
        elif isinstance(node, CONSTANT_TYPES):
            value = constant_value(node, self._k)
            if isinstance(node, la.FilledMatrix):
                stats.record("fill", value)
        else:
            spec = OP_TABLE.get(type(node))
            if spec is None:
                raise ExecutionError(f"cannot execute node {type(node).__name__}")
            operands = [
                self._eval(child, bindings, cache, stats)
                for child in spec.operands(node)
            ]
            value = spec.bind(node, self._k)(*operands)
            stats.record(spec.stat_name(node), value)
            if spec.loop == FUSED_PHYSICAL:
                stats.fused_operators += 1
        cache[node] = value
        return value


def constant_value(node: la.LAExpr, kernel_set: kernels.KernelSet) -> MatrixValue:
    """Materialize a ``Literal`` / ``FilledMatrix`` leaf under a kernel set."""
    if isinstance(node, la.Literal):
        return kernel_set.literal(node.value)
    rows = node.fill_shape.rows.size
    cols = node.fill_shape.cols.size
    if rows is None or cols is None:
        raise ExecutionError("FilledMatrix requires concrete dimensions to execute")
    return kernel_set.fill(node.value, rows, cols)


def execute(
    expr: la.LAExpr,
    inputs: Optional[Dict[str, Union[MatrixValue, np.ndarray, float]]] = None,
    ring: Union[str, Semiring, None] = None,
) -> ExecutionResult:
    """Module-level shortcut around :class:`Executor`."""
    return Executor(ring=ring).execute(expr, inputs)


def execute_slots(
    expr: la.LAExpr,
    values: Sequence[Union[MatrixValue, np.ndarray, float]],
    ring: Union[str, Semiring, None] = None,
) -> ExecutionResult:
    """Module-level shortcut around :meth:`Executor.execute_slots`."""
    return Executor(ring=ring).execute_slots(expr, values)
