"""Layout steps: where an executable reads a pinned sparse operand row-major.

A width-1 product walks its left operand's rows.  On a CSR matrix that is
one dot product per row; on a CSC matrix (``t(X)`` of a CSR ``X`` is a CSC
view) SciPy scatters into the output, measured 1.9-2.2x slower at size M.
When only pinned inputs determine the operand, a row-major copy pays for
itself after a few runs: :func:`row_major_reads` places a
:class:`~repro.lang.expr.RowMajor` step under every such product.  The
pinned executable hoists that step (one conversion per pinned object), and
:func:`~repro.optimizer.pipeline.breakeven_runs` prices it against the
scatter it saves (:data:`~repro.runtime.optable.SCATTER`).  ``mmchain``'s
second pass is such a product: over a pinned sparse ``X`` the chain runs as
``t(X) %*% (w * (X %*% v))`` with ``t(X)`` read row-major.

Both layouts sum each output entry over the same entries in ascending
order, so the answer is bitwise the one the stored layout gives.  Products
of width 2 and more are faster on the stored CSC, so the step's value keeps
both layouts and a product wider than its plan's (a stacked batch) reads the
stored one (:attr:`~repro.runtime.data.MatrixValue.row_major`).
"""

from __future__ import annotations

from repro.lang import dag
from repro.lang import expr as la
from repro.runtime.data import SPARSE_THRESHOLD
from repro.runtime.optable import OP_TABLE


def _pinned_sparse(node: la.LAExpr) -> bool:
    return (
        isinstance(node, la.Var)
        and node.pinned
        and node.sparsity is not None
        and node.sparsity < SPARSE_THRESHOLD
    )


def _per_run_column(node: la.LAExpr) -> bool:
    """A width-1 operand that some unpinned input determines."""
    cols = node.shape.cols
    if not (cols.is_unit or cols.size == 1):
        return False
    return not all(var.pinned for var in dag.variables(node))


def _place(node: la.LAExpr) -> la.LAExpr:
    if (
        isinstance(node, la.MatMul)
        and isinstance(node.left, la.Transpose)
        and _pinned_sparse(node.left.child)
        and _per_run_column(node.right)
    ):
        return la.MatMul(la.RowMajor(node.left), node.right)
    if isinstance(node, la.MMChain) and _pinned_sparse(node.x):
        inner = la.MatMul(node.x, node.v)
        if len(OP_TABLE[la.MMChain].operands(node)) == 3:
            inner = la.ElemMul(inner, node.w)  # the kernel's ``inner * w``
        if _per_run_column(inner):
            return la.MatMul(la.RowMajor(la.Transpose(node.x)), inner)
    return node


def row_major_reads(expr: la.LAExpr) -> la.LAExpr:
    """``expr`` with a :class:`~repro.lang.expr.RowMajor` step under every
    width-1 product that reads a pinned sparse input transposed."""
    return dag.transform_bottom_up(expr, _place)
