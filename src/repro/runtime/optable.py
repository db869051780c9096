"""The op table: one declarative row per executable LA operator.

Everything the runtime needs to know about an operator lives in its
:class:`OpSpec` row — the statistics name, the :class:`~repro.runtime.
kernels.KernelSet` attribute that computes it, which node attribute rides
along as a static kernel argument, its loop class, the raw-ndarray twin of
its kernel formula, and how its result's density follows from its
operands'.  The interpreter's dispatch, the tape's step closures, the
region planner's type sets and density prediction, the fused-region
fallback and the emitted kernel calls are all derived from these rows, so
making a new LA operator executable is one row here (plus its kernel).

``Var``, ``Literal`` and ``FilledMatrix`` have no row: they are leaves the
executors bind or materialize, not kernels they call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Type

from repro.lang import expr as la

#: per-cell operator: may sit inside a fused region or be its root
ELEMENTWISE = "elementwise"
#: order-sensitive reducer an elementwise chain may fold into (region root only)
FOLD_ROOT = "fold-root"
#: SystemML fused physical operator (counted in ``fused_operators``)
FUSED_PHYSICAL = "fused-physical"
#: layout moves and casts: never fused, never counted
PLAIN = "plain"


@dataclass(frozen=True)
class OpSpec:
    """One operator's row."""

    #: ``ExecutionStats.operator_counts`` key; ``None`` means the static
    #: argument names the operation (``UnaryFunc``: ``exp``, ``sigmoid``...)
    name: Optional[str]
    #: attribute of :class:`~repro.runtime.kernels.KernelSet` that computes it
    kernel: str
    loop: str = PLAIN
    #: raw-ndarray twin of the real kernel's formula, in the kernel's operand
    #: order (``{0}``/``{1}`` operands, ``{s}`` the static argument); only
    #: elementwise operators have one
    formula: Optional[str] = None
    #: node attribute passed to the kernel as a static argument ...
    static: Optional[str] = None
    #: ... before the operand values rather than after them
    static_first: bool = False
    #: the last child is a weight; ``Literal(1.0)`` there means unweighted:
    #: the child is never evaluated and the kernel receives ``None``
    optional_weight: bool = False
    #: density of the result: ``None`` follows the operands (dense iff all
    #: are), ``True`` always dense, ``False`` conservatively sparse
    dense_result: Optional[bool] = None

    def _unweighted(self, node: la.LAExpr) -> bool:
        if not self.optional_weight:
            return False
        weight = node.children[-1]
        return isinstance(weight, la.Literal) and weight.value == 1.0

    def operands(self, node: la.LAExpr) -> Tuple[la.LAExpr, ...]:
        """The children whose values the kernel reads, in kernel order."""
        children = node.children
        return children[:-1] if self._unweighted(node) else children

    def statics(self, node: la.LAExpr) -> Tuple[tuple, tuple]:
        """Static kernel arguments ``(before, after)`` the operand values."""
        if self.static is not None:
            value = (getattr(node, self.static),)
            return (value, ()) if self.static_first else ((), value)
        return ((), (None,)) if self._unweighted(node) else ((), ())

    def bind(self, node: la.LAExpr, kernel_set: object) -> Callable:
        """The kernel as a callable over the operand values alone."""
        op = getattr(kernel_set, self.kernel)
        before, after = self.statics(node)
        if before:
            return functools.partial(op, *before)
        if after:
            return lambda *values: op(*values, *after)
        return op

    def stat_name(self, node: la.LAExpr) -> str:
        return self.name or getattr(node, self.static)

    def label(self, node: la.LAExpr) -> str:
        """Human-readable operator label (profiles, region labels)."""
        kind = type(node).__name__
        return kind if self.name else f"{kind}[{getattr(node, self.static)}]"


OP_TABLE: Dict[Type[la.LAExpr], OpSpec] = {
    la.ElemMul: OpSpec("elemmul", "elem_mul", ELEMENTWISE, "({0} * {1})"),
    la.ElemPlus: OpSpec("elemplus", "elem_add", ELEMENTWISE, "({0} + {1})"),
    # bitwise what kernels.elem_sub's ``left - right`` computes
    la.ElemMinus: OpSpec("elemminus", "elem_sub", ELEMENTWISE, "({0} + -1.0 * {1})"),
    la.ElemDiv: OpSpec("elemdiv", "elem_div", ELEMENTWISE, "rt.ediv({0}, {1})"),
    la.Power: OpSpec("power", "power", ELEMENTWISE, "np.power({0}, {s!r})", static="exponent"),
    # kernels.negate is scalar_mul(-1.0, a) = ``matrix * -1.0``
    la.Neg: OpSpec("neg", "negate", ELEMENTWISE, "({0} * -1.0)"),
    la.UnaryFunc: OpSpec(
        None, "unary", ELEMENTWISE, "rt.u_{s}({0})", static="func", static_first=True
    ),
    la.MatMul: OpSpec("matmul", "matmul", FOLD_ROOT),
    # sum kernels return dense arrays (or scalars) on either representation
    la.RowSums: OpSpec("rowsums", "row_sums", FOLD_ROOT, dense_result=True),
    la.ColSums: OpSpec("colsums", "col_sums", FOLD_ROOT, dense_result=True),
    la.Sum: OpSpec("sum", "full_sum", FOLD_ROOT, dense_result=True),
    la.Transpose: OpSpec("transpose", "transpose"),
    la.CastScalar: OpSpec("cast", "cast", dense_result=True),
    la.WSLoss: OpSpec(
        "wsloss", "wsloss", FUSED_PHYSICAL, optional_weight=True, dense_result=True
    ),
    la.WCeMM: OpSpec("wcemm", "wcemm", FUSED_PHYSICAL, dense_result=True),
    la.WDivMM: OpSpec(
        "wdivmm", "wdivmm", FUSED_PHYSICAL, static="multiply_left", dense_result=False
    ),
    la.SProp: OpSpec("sprop", "sprop", FUSED_PHYSICAL, dense_result=True),
    la.MMChain: OpSpec(
        "mmchain", "mmchain", FUSED_PHYSICAL, optional_weight=True, dense_result=True
    ),
}


def _types_of(*loops: str) -> Tuple[Type[la.LAExpr], ...]:
    return tuple(kind for kind, spec in OP_TABLE.items() if spec.loop in loops)


#: leaves executors materialize once instead of calling a kernel per run
CONSTANT_TYPES = (la.Literal, la.FilledMatrix)
ELEMWISE_TYPES = _types_of(ELEMENTWISE)
#: node types an elementwise chain may fold into (the region roots)
ROOT_FOLD_TYPES = _types_of(ELEMENTWISE, FOLD_ROOT)
#: fused physical operators — single-node regions, counted as fused
FUSED_KERNEL_TYPES = _types_of(FUSED_PHYSICAL)
