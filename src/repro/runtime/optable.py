"""The op table: one declarative row per executable LA operator.

An LA operator is declared twice and only twice: its node class
(:func:`repro.lang.expr.node` — children, static payload, shape) and its
:class:`OpSpec` row here.  The row holds everything else any layer needs to
know about it:

* **execution** — the statistics name, the :class:`~repro.runtime.kernels.
  KernelSet` attribute that computes it (the node's static payload rides
  along as kernel arguments), its loop class, the raw-ndarray twin of its
  kernel formula, and the representation its real kernel delivers;
* **ring** — ``needs``: what a semiring must provide for the operator to
  mean anything (``None``, ``"subtraction"``, ``"division"``, ``"real"``);
* **cost** — the sparsity rule and the work rule of the analytic cost model.

The interpreter's dispatch, the tape's step closures, the region planner's
loop classes and density prediction, the emitted kernel calls, the per-ring
kernel binding, the compile-time ring gate and ``LACostModel`` are all
lookups of these rows by ``type(node)``; the plan codec and the fingerprint
read the node class's own field list.  None of them has a default branch:
an operator without a row is an error where it is first met, not a silent
``1.0``.  Making a new operator executable is therefore its class, one row
here, and its kernel.

``Var``, ``Literal`` and ``FilledMatrix`` have no row: they are leaves the
executors bind or materialize, not kernels they call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Type

from repro.lang import expr as la
from repro.runtime.data import SPARSE_THRESHOLD

#: per-cell operator: may sit inside a fused region or be its root
ELEMENTWISE = "elementwise"
#: order-sensitive reducer an elementwise chain may fold into (region root only)
FOLD_ROOT = "fold-root"
#: SystemML fused physical operator (counted in ``fused_operators``)
FUSED_PHYSICAL = "fused-physical"
#: layout moves and casts: never fused, never counted
PLAIN = "plain"


# ---------------------------------------------------------------------------
# Cost rules
# ---------------------------------------------------------------------------
#
# A rule maps ``(node, sp)`` to a number, where ``sp(operand)`` is the
# estimated sparsity — fraction of cells that are not the ring's zero — of
# an operand (or of the node itself).  Sparsity rules are sound upper
# bounds over any commutative semiring: they use only that the zero is the
# ⊕-identity and the ⊗-annihilator (see :mod:`repro.cost.la_cost`).

Sparsity = Callable[[la.LAExpr], float]
CostRule = Callable[[la.LAExpr, Sparsity], float]

#: Extent assumed for dimensions without a concrete size.
DEFAULT_EXTENT = 1000.0


def extent(size: Optional[int]) -> float:
    return float(size) if size is not None else DEFAULT_EXTENT


def cells(node: la.LAExpr) -> float:
    shape = node.shape
    return extent(shape.rows.size) * extent(shape.cols.size)


def nnz(node: la.LAExpr, sp: Sparsity) -> float:
    """Estimated non-zeros of ``node``'s result — as a work rule, one
    operation per result cell that can be non-zero."""
    return sp(node) * cells(node)


def _sp_dense(node: la.LAExpr, sp: Sparsity) -> float:
    return 1.0


def _sp_first(node: la.LAExpr, sp: Sparsity) -> float:
    # Zero-preserving in the first operand.  For ``/``: zero/x = zero by
    # annihilation and x/zero is zero by kernel convention, so the left
    # factor bounds the result in every ring.
    return sp(node.children[0])


def _sp_both(node: la.LAExpr, sp: Sparsity) -> float:
    # ⊗-annihilation: the product is zero wherever either factor is.
    return min(sp(node.left), sp(node.right))


def _sp_either(node: la.LAExpr, sp: Sparsity) -> float:
    # ⊕-identity: the sum is non-zero only where some addend is (union
    # bound; real cancellation can only sparsify further).
    return min(1.0, sp(node.left) + sp(node.right))


def _sp_matmul(node: la.MatMul, sp: Sparsity) -> float:
    return min(1.0, extent(node.left.shape.cols.size) * _sp_both(node, sp))


def _sp_row_sums(node: la.RowSums, sp: Sparsity) -> float:
    return min(1.0, extent(node.child.shape.cols.size) * sp(node.child))


def _sp_col_sums(node: la.ColSums, sp: Sparsity) -> float:
    return min(1.0, extent(node.child.shape.rows.size) * sp(node.child))


def _sp_power(node: la.Power, sp: Sparsity) -> float:
    # x⁰ is the multiplicative one everywhere: a dense constant.
    return 1.0 if node.exponent == 0 else sp(node.child)


#: unary functions that map zero to zero: computed on the stored entries
ZERO_PRESERVING = ("abs", "sign", "sqrt", "round")


def _sp_unary(node: la.UnaryFunc, sp: Sparsity) -> float:
    return sp(node.child) if node.func in ZERO_PRESERVING else 1.0


#: Per-run cost of a width-1 product that reads a sparse operand column-major
#: (a CSC view such as ``t(X)`` of a CSR ``X``): SciPy scatters into the
#: output, and a matrix-vector product measured 1.9-2.2x slower than on a
#: CSR copy of the same entries (40000 x 400 at 2 % and 40000 x 200 at 5 %).
SCATTER = 2.0


def reads_column_major(operand: la.LAExpr, sp: Sparsity) -> bool:
    """Whether a real kernel reads ``operand`` as a sparse CSC matrix.

    Inputs are stored as they arrive, CSR by default; ``t()`` of a row-major
    value is a CSC view, and a :class:`~repro.lang.expr.RowMajor` step
    stores the row-major copy a width-1 product reads instead.
    """
    return (
        isinstance(operand, la.Transpose)
        and not isinstance(operand.child, la.Transpose)
        and sp(operand) < SPARSE_THRESHOLD
    )


def _work_input(node: la.LAExpr, sp: Sparsity) -> float:
    return nnz(node.children[0], sp)


def _work_cast(node: la.LAExpr, sp: Sparsity) -> float:
    return 1.0


def _work_matmul(node: la.MatMul, sp: Sparsity) -> float:
    rows = extent(node.left.shape.rows.size)
    inner = extent(node.left.shape.cols.size)
    cols = extent(node.right.shape.cols.size)
    return rows * inner * cols * _sp_both(node, sp)


def _work_mmchain(node: la.MMChain, sp: Sparsity) -> float:
    rows = extent(node.x.shape.rows.size)
    cols = extent(node.x.shape.cols.size)
    return 2.0 * rows * cols * sp(node.x)


def _work_sampled(passes: float) -> CostRule:
    """Streams ``passes`` times over the non-zeros of ``X`` only, one
    rank-length dot product each (``wdivmm`` adds a sparse-dense product)."""

    def work(node: la.LAExpr, sp: Sparsity) -> float:
        return passes * nnz(node.x, sp) * extent(node.u.shape.cols.size)

    return work


# ---------------------------------------------------------------------------
# Representation rules
# ---------------------------------------------------------------------------
#
# A rule maps ``(node, sparse)`` — ``sparse[i]`` is whether the i-th operand
# the kernel reads is stored sparse — to what the real kernel returns.  It
# reads representations and static shapes only, never data, so an
# executable knows each step's representation when it is built.

#: the kernel returns a dense array
DENSE = "dense"
#: the kernel returns a sparse matrix
SPARSE = "sparse"
#: sparse ⊗ sparse of uncertain density: the kernel re-picks once, dense
#: when the *stored* entries reach the threshold (an O(1) count)
REPICK = "repick"

Delivers = Callable[[la.LAExpr, Tuple[bool, ...]], str]


def _unit(dim) -> bool:
    return dim.is_unit or dim.size == 1


def _scalar(operand: la.LAExpr) -> bool:
    return _unit(operand.shape.rows) and _unit(operand.shape.cols)


def _full(operand: la.LAExpr, node: la.LAExpr) -> bool:
    """``operand`` has the result's shape: it is not broadcast along an axis."""
    shape, result = operand.shape, node.shape
    return (_unit(shape.rows) <= _unit(result.rows)) and (_unit(shape.cols) <= _unit(result.cols))


def _scaled(node: la.LAExpr, sparse: Tuple[bool, ...]) -> Optional[str]:
    """A scalar operand scales the other one, whose representation it keeps."""
    if _scalar(node.left):
        return SPARSE if sparse[1] else DENSE
    if _scalar(node.right):
        return SPARSE if sparse[0] else DENSE
    return None


def _delivers_dense(node: la.LAExpr, sparse: Tuple[bool, ...]) -> str:
    return DENSE


def _delivers_first(node: la.LAExpr, sparse: Tuple[bool, ...]) -> str:
    # computed on the first operand's structure when it is sparse
    return SPARSE if sparse[0] else DENSE


def _delivers_product(node: la.LAExpr, sparse: Tuple[bool, ...]) -> str:
    # a sparse operand of the result's shape keeps its structure; a sparse
    # vector broadcast over a dense matrix does not
    scaled = _scaled(node, sparse)
    if scaled is not None:
        return scaled
    full = (_full(node.left, node), _full(node.right, node))
    return SPARSE if any(s and f for s, f in zip(sparse, full)) else DENSE


def _delivers_sum(node: la.LAExpr, sparse: Tuple[bool, ...]) -> str:
    # the union of two sparse patterns: its density is not known in advance
    same = _full(node.left, node) and _full(node.right, node)
    return REPICK if all(sparse) and same and not _scalar(node) else DENSE


def _delivers_quotient(node: la.LAExpr, sparse: Tuple[bool, ...]) -> str:
    # zero-preserving in the dividend (x/0 is 0 by kernel convention)
    keeps = _full(node.left, node) and not _scalar(node.left)
    return SPARSE if sparse[0] and keeps else DENSE


def _delivers_matmul(node: la.MatMul, sparse: Tuple[bool, ...]) -> str:
    scaled = _scaled(node, sparse)
    if scaled is not None:
        return scaled
    return REPICK if all(sparse) else DENSE


def _delivers_power(node: la.Power, sparse: Tuple[bool, ...]) -> str:
    return SPARSE if sparse[0] and node.exponent > 0 else DENSE


def _delivers_unary(node: la.UnaryFunc, sparse: Tuple[bool, ...]) -> str:
    return SPARSE if sparse[0] and node.func in ZERO_PRESERVING else DENSE


@dataclass(frozen=True)
class OpSpec:
    """One operator's row."""

    #: ``ExecutionStats.operator_counts`` key; ``None`` means the static
    #: payload names the operation (``UnaryFunc``: ``exp``, ``sigmoid``...)
    name: Optional[str]
    #: attribute of :class:`~repro.runtime.kernels.KernelSet` that computes
    #: it; the node's static payload is passed along as kernel arguments
    kernel: str
    #: estimated fraction of non-ring-zero cells of the result
    sparsity: CostRule
    #: estimated floating-point work of producing the result
    work: CostRule
    #: the representation the real kernel returns (:data:`DENSE`,
    #: :data:`SPARSE` or :data:`REPICK`), from its operands'
    delivers: Delivers
    loop: str = PLAIN
    #: raw-ndarray twin of the real kernel's formula, in the kernel's operand
    #: order (``{0}``/``{1}`` operands, ``{s}`` the static payload); only
    #: elementwise operators have one
    formula: Optional[str] = None
    #: the kernel takes the static payload before the operand values
    static_first: bool = False
    #: the last child is a weight; ``Literal(1.0)`` there means unweighted:
    #: the child is never evaluated and the kernel receives ``None``
    optional_weight: bool = False
    #: what :meth:`Semiring.provides` must hold for the executing ring:
    #: ``"subtraction"``, ``"division"``, or ``"real"`` for operators that
    #: are real analysis or hard-code real arithmetic; ``None`` = any ring
    needs: Optional[str] = None

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
        payload = node.static
        if payload:
            return (payload, ()) if self.static_first else ((), payload)
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
        return self.name or node.static[0]

    def label(self, node: la.LAExpr) -> str:
        """Human-readable operator label (profiles, region labels)."""
        kind = type(node).__name__
        return kind if self.name else f"{kind}[{node.static[0]}]"


OP_TABLE: Dict[Type[la.LAExpr], OpSpec] = {
    la.ElemMul: OpSpec(
        "elemmul", "elem_mul", _sp_both, nnz, _delivers_product, ELEMENTWISE, "({0} * {1})"
    ),
    la.ElemPlus: OpSpec(
        "elemplus", "elem_add", _sp_either, nnz, _delivers_sum, ELEMENTWISE, "({0} + {1})"
    ),
    # bitwise what kernels.elem_sub's ``left - right`` computes
    la.ElemMinus: OpSpec(
        "elemminus",
        "elem_sub",
        _sp_either,
        nnz,
        _delivers_sum,
        ELEMENTWISE,
        "({0} + -1.0 * {1})",
        needs="subtraction",
    ),
    la.ElemDiv: OpSpec(
        "elemdiv",
        "elem_div",
        _sp_first,
        nnz,
        _delivers_quotient,
        ELEMENTWISE,
        "rt.ediv({0}, {1})",
        needs="division",
    ),
    la.Power: OpSpec(
        "power",
        "power",
        _sp_power,
        _work_input,
        _delivers_power,
        ELEMENTWISE,
        "np.power({0}, {s!r})",
    ),
    # kernels.negate is scalar_mul(-1.0, a) = ``matrix * -1.0``
    la.Neg: OpSpec(
        "neg",
        "negate",
        _sp_first,
        _work_input,
        _delivers_first,
        ELEMENTWISE,
        "({0} * -1.0)",
        needs="subtraction",
    ),
    la.UnaryFunc: OpSpec(
        None,
        "unary",
        _sp_unary,
        _work_input,
        _delivers_unary,
        ELEMENTWISE,
        "rt.u_{s}({0})",
        static_first=True,
        needs="real",
    ),
    la.MatMul: OpSpec("matmul", "matmul", _sp_matmul, _work_matmul, _delivers_matmul, FOLD_ROOT),
    la.RowSums: OpSpec(
        "rowsums", "row_sums", _sp_row_sums, _work_input, _delivers_dense, FOLD_ROOT
    ),
    la.ColSums: OpSpec(
        "colsums", "col_sums", _sp_col_sums, _work_input, _delivers_dense, FOLD_ROOT
    ),
    la.Sum: OpSpec("sum", "full_sum", _sp_dense, _work_input, _delivers_dense, FOLD_ROOT),
    la.Transpose: OpSpec("transpose", "transpose", _sp_first, _work_input, _delivers_first),
    # a layout step: one pass over the stored entries, once per pinned value
    la.RowMajor: OpSpec("rowmajor", "row_major", _sp_first, _work_input, _delivers_first),
    la.CastScalar: OpSpec("cast", "cast", _sp_dense, _work_cast, _delivers_dense),
    la.WSLoss: OpSpec(
        "wsloss",
        "wsloss",
        _sp_dense,
        _work_sampled(1.0),
        _delivers_dense,
        FUSED_PHYSICAL,
        optional_weight=True,
        needs="real",
    ),
    la.WCeMM: OpSpec(
        "wcemm",
        "wcemm",
        _sp_dense,
        _work_sampled(1.0),
        _delivers_dense,
        FUSED_PHYSICAL,
        needs="real",
    ),
    la.WDivMM: OpSpec(
        "wdivmm",
        "wdivmm",
        _sp_dense,
        _work_sampled(2.0),
        _delivers_dense,
        FUSED_PHYSICAL,
        needs="real",
    ),
    la.SProp: OpSpec(
        "sprop", "sprop", _sp_first, _work_input, _delivers_dense, FUSED_PHYSICAL, needs="real"
    ),
    la.MMChain: OpSpec(
        "mmchain",
        "mmchain",
        _sp_dense,
        _work_mmchain,
        _delivers_dense,
        FUSED_PHYSICAL,
        optional_weight=True,
        needs="real",
    ),
}

#: leaves executors materialize once instead of calling a kernel per run
CONSTANT_TYPES = (la.Literal, la.FilledMatrix)


def loop_of(node: la.LAExpr) -> Optional[str]:
    """The loop class of ``node``'s row, read when asked (``None``: a leaf).

    An elementwise chain may fold into an ``ELEMENTWISE`` or ``FOLD_ROOT``
    consumer; ``FUSED_PHYSICAL`` operators are single-node regions counted
    as fused.
    """
    spec = OP_TABLE.get(type(node))
    return None if spec is None else spec.loop
