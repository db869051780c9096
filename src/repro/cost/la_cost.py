"""Analytic cost model over LA expressions.

The relational cost model (:mod:`repro.cost.model`) drives extraction inside
the e-graph; this module provides the matching estimate on plain LA DAGs.
It is used by

* the heuristic baseline optimizer, whose rewrite guards need sparsity and
  size estimates exactly the way SystemML's do;
* tests and benchmarks, which compare the *estimated* cost of the original
  and the optimized plan independently of wall-clock noise;
* the examples, which print cost breakdowns next to measured run times.

Costs are charged per *distinct* DAG node (a shared common subexpression is
charged once), and each node is charged its output allocation (estimated
nnz) plus an estimate of the floating-point work needed to produce it.  A
node whose inputs are all *pinned* variables (``Var.pinned``; constants
allowed) is computed once per pinned value, not per run: it is charged to
:attr:`LACostReport.hoisted` instead of the per-run ``total``.

**Semiring validity.**  "Sparsity" here means the fraction of cells that
are not the executing ring's additive identity (``0.0`` in real arithmetic,
``+inf`` in min-plus, …).  The propagation rules hold over *any* commutative
semiring because they only use the two laws every semiring shares: the zero
is the ⊕-identity (``a ⊕ 0 = a`` — so a sum is non-zero only where some
addend is, giving the ElemPlus union bound) and the ⊗-annihilator
(``a ⊗ 0 = 0`` — so a product is zero where either factor is, giving the
ElemMul/MatMul intersection bound).  Cancellation can only make results
*sparser* than estimated, so every rule stays a sound upper bound.  Scalar
literals are read through the counting interpretation (``n`` ↦ n-fold ⊕ of
one), under which ``value == 0.0`` is the ring zero in every ring — the
numeric zero-test below is ring-correct as written.  The ``ring`` parameter
selects per-ring refinements where the shared bound can be tightened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.lang import dag
from repro.lang import expr as la
from repro.runtime.optable import (
    CONSTANT_TYPES,
    OP_TABLE,
    SCATTER,
    cells,
    extent,
    reads_column_major,
)
from repro.runtime.semiring import REAL, Semiring


def estimate_sparsity(
    node: la.LAExpr,
    cache: Optional[Dict[la.LAExpr, float]] = None,
    ring: Semiring = REAL,
) -> float:
    """Estimated fraction of non-ring-zero cells of ``node`` (Fig. 12 adapted to LA).

    Leaves are read here; every operator's propagation rule is the
    ``sparsity`` column of its op-table row.
    """
    if cache is None:
        cache = {}
    if node in cache:
        return cache[node]
    if isinstance(node, la.Var):
        result = node.sparsity if node.sparsity is not None else 1.0
    elif isinstance(node, CONSTANT_TYPES):
        # Counting interpretation: the literal 0 denotes the ring zero in
        # every semiring, any other value is ring-non-zero.
        result = 0.0 if node.value == 0.0 else 1.0
    else:
        rule = OP_TABLE[type(node)].sparsity
        result = rule(node, lambda operand: estimate_sparsity(operand, cache, ring))
    cache[node] = result
    return result


def estimate_nnz(
    node: la.LAExpr,
    cache: Optional[Dict[la.LAExpr, float]] = None,
    ring: Semiring = REAL,
) -> float:
    """Estimated number of non-ring-zero cells in the result of ``node``."""
    return estimate_sparsity(node, cache, ring) * cells(node)


@dataclass
class LACostReport:
    """Breakdown of an LA plan's estimated cost."""

    total: float
    memory: float
    compute: float
    per_node: Dict[la.LAExpr, float] = field(default_factory=dict)
    #: cost of the nodes only pinned inputs determine, paid once per pinned
    #: value and left out of ``total``, ``memory`` and ``compute``
    hoisted: float = 0.0

    @property
    def intermediates(self) -> int:
        """Number of non-leaf nodes that allocate an output."""
        return sum(1 for node, cost in self.per_node.items() if node.children and cost > 0)


class LACostModel:
    """Estimated execution cost of an LA DAG (allocation + floating-point work).

    ``ring`` is the semiring the plan will execute over; sparsity means
    "fraction of non-ring-zero cells" and the estimates are sound upper
    bounds in any ring (see the module docstring).
    """

    def __init__(self, ring: Semiring = REAL) -> None:
        self.ring = ring

    def cost(self, root: la.LAExpr) -> LACostReport:
        """Cost the whole DAG, charging shared subexpressions once."""
        cache: Dict[la.LAExpr, float] = {}
        per_node: Dict[la.LAExpr, float] = {}
        #: True: only pinned inputs determine the node; None: no input at all
        pinned: Dict[la.LAExpr, Optional[bool]] = {}
        memory_total = 0.0
        compute_total = 0.0
        hoisted = 0.0

        def sparsity(node: la.LAExpr) -> float:
            return estimate_sparsity(node, cache, self.ring)

        for node in dag.postorder(root):
            # a leaf allocates nothing and computes nothing
            memory = compute = 0.0
            if node.children:
                memory = estimate_nnz(node, cache, self.ring)
                compute = self._work(node, sparsity)
                below = {pinned[child] for child in node.children}
                pinned[node] = False if False in below else (True if True in below else None)
            else:
                pinned[node] = node.pinned if isinstance(node, la.Var) else None
            per_node[node] = memory + compute
            if pinned[node]:
                hoisted += memory + compute
                continue
            memory_total += memory
            compute_total += compute
        return LACostReport(
            total=memory_total + compute_total,
            memory=memory_total,
            compute=compute_total,
            per_node=per_node,
            hoisted=hoisted,
        )

    def _work(self, node: la.LAExpr, sparsity) -> float:
        """The op table's work rule, tightened for a real sparse product.

        The table charges a matmul ``rows * inner * cols * min(s_l, s_r)``,
        which bounds every ring's kernel (the ring kernels are dense).  SciPy's
        real sparse-sparse product visits the pairs of non-zeros that meet:
        ``s_l * s_r`` of the cells in expectation.  The two agree whenever
        either operand is dense.  A real width-1 product that reads a sparse
        operand column-major scatters (:data:`~repro.runtime.optable.
        SCATTER` times the row-major pass) — ``mmchain``'s second pass always
        does — which is what a hoisted ``RowMajor`` step saves.
        """
        work = OP_TABLE[type(node)].work(node, sparsity)
        if not self.ring.is_real:
            return work
        if isinstance(node, la.MatMul):
            left, right = sparsity(node.left), sparsity(node.right)
            work = (
                extent(node.left.shape.rows.size)
                * extent(node.left.shape.cols.size)
                * extent(node.right.shape.cols.size)
                * left
                * right
            )
            if extent(node.right.shape.cols.size) == 1 and reads_column_major(node.left, sparsity):
                work *= SCATTER
        elif isinstance(node, la.MMChain) and reads_column_major(la.Transpose(node.x), sparsity):
            work *= (1.0 + SCATTER) / 2.0
        return work

    def total(self, root: la.LAExpr) -> float:
        """Scalar total cost (convenience for comparisons)."""
        return self.cost(root).total
