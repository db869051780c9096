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
nnz) plus an estimate of the floating-point work needed to produce it.

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
from repro.runtime.semiring import REAL, Semiring

#: Extent assumed for dimensions without a concrete size.
DEFAULT_EXTENT = 1000.0


def _extent(size: Optional[int]) -> float:
    return float(size) if size is not None else DEFAULT_EXTENT


def _cells(node: la.LAExpr) -> float:
    shape = node.shape
    return _extent(shape.rows.size) * _extent(shape.cols.size)


def estimate_sparsity(
    node: la.LAExpr,
    cache: Optional[Dict[la.LAExpr, float]] = None,
    ring: Semiring = REAL,
) -> float:
    """Estimated fraction of non-ring-zero cells of ``node`` (Fig. 12 adapted to LA)."""
    if cache is None:
        cache = {}
    if node in cache:
        return cache[node]
    result = _estimate_sparsity(node, cache, ring)
    cache[node] = result
    return result


def _estimate_sparsity(
    node: la.LAExpr, cache: Dict[la.LAExpr, float], ring: Semiring
) -> float:
    if isinstance(node, la.Var):
        return node.sparsity if node.sparsity is not None else 1.0
    if isinstance(node, la.Literal):
        # Counting interpretation: the literal 0 denotes the ring zero in
        # every semiring, any other value is ring-non-zero.
        return 0.0 if node.value == 0.0 else 1.0
    if isinstance(node, la.FilledMatrix):
        return 0.0 if node.value == 0.0 else 1.0
    if isinstance(node, la.ElemMul):
        # ⊗-annihilation: the product is zero wherever either factor is.
        return min(
            estimate_sparsity(node.left, cache, ring),
            estimate_sparsity(node.right, cache, ring),
        )
    if isinstance(node, (la.ElemPlus, la.ElemMinus)):
        # ⊕-identity: the sum is non-zero only where some addend is (union
        # bound; real cancellation can only sparsify further).
        return min(
            1.0,
            estimate_sparsity(node.left, cache, ring)
            + estimate_sparsity(node.right, cache, ring),
        )
    if isinstance(node, la.ElemDiv):
        # zero/x = zero by annihilation; x/zero is defined as zero by kernel
        # convention, so the left factor bounds the result in every ring.
        return estimate_sparsity(node.left, cache, ring)
    if isinstance(node, la.MatMul):
        inner = _extent(node.left.shape.cols.size)
        joined = min(
            estimate_sparsity(node.left, cache, ring),
            estimate_sparsity(node.right, cache, ring),
        )
        return min(1.0, inner * joined)
    if isinstance(node, la.Power):
        if node.exponent == 0:
            # x⁰ is the multiplicative one everywhere: a dense constant.
            return 1.0
        return estimate_sparsity(node.children[0], cache, ring)
    if isinstance(node, (la.Transpose, la.Neg)):
        return estimate_sparsity(node.children[0], cache, ring)
    if isinstance(node, la.RowSums):
        inner = _extent(node.child.shape.cols.size)
        return min(1.0, inner * estimate_sparsity(node.child, cache, ring))
    if isinstance(node, la.ColSums):
        inner = _extent(node.child.shape.rows.size)
        return min(1.0, inner * estimate_sparsity(node.child, cache, ring))
    if isinstance(node, (la.Sum, la.CastScalar, la.WSLoss, la.WCeMM)):
        return 1.0
    if isinstance(node, la.UnaryFunc):
        if node.func in ("abs", "sign", "sqrt", "round"):
            return estimate_sparsity(node.child, cache, ring)
        return 1.0
    if isinstance(node, la.SProp):
        return estimate_sparsity(node.child, cache, ring)
    if isinstance(node, (la.MMChain, la.WDivMM)):
        return 1.0
    return 1.0


def estimate_nnz(
    node: la.LAExpr,
    cache: Optional[Dict[la.LAExpr, float]] = None,
    ring: Semiring = REAL,
) -> float:
    """Estimated number of non-ring-zero cells in the result of ``node``."""
    return estimate_sparsity(node, cache, ring) * _cells(node)


@dataclass
class LACostReport:
    """Breakdown of an LA plan's estimated cost."""

    total: float
    memory: float
    compute: float
    per_node: Dict[la.LAExpr, float] = field(default_factory=dict)

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
        sparsity_cache: Dict[la.LAExpr, float] = {}
        per_node: Dict[la.LAExpr, float] = {}
        memory_total = 0.0
        compute_total = 0.0
        for node in dag.postorder(root):
            memory = self._memory(node, sparsity_cache)
            compute = self._compute(node, sparsity_cache)
            per_node[node] = memory + compute
            memory_total += memory
            compute_total += compute
        return LACostReport(
            total=memory_total + compute_total,
            memory=memory_total,
            compute=compute_total,
            per_node=per_node,
        )

    def total(self, root: la.LAExpr) -> float:
        """Scalar total cost (convenience for comparisons)."""
        return self.cost(root).total

    # -- per-node estimates ---------------------------------------------------
    def _memory(self, node: la.LAExpr, cache: Dict[la.LAExpr, float]) -> float:
        if not node.children:
            return 0.0
        return estimate_nnz(node, cache, self.ring)

    def _compute(self, node: la.LAExpr, cache: Dict[la.LAExpr, float]) -> float:
        if isinstance(node, la.MatMul):
            rows = _extent(node.left.shape.rows.size)
            inner = _extent(node.left.shape.cols.size)
            cols = _extent(node.right.shape.cols.size)
            density = min(estimate_sparsity(node.left, cache, self.ring), estimate_sparsity(node.right, cache, self.ring))
            return rows * inner * cols * density
        if isinstance(node, la.MMChain):
            rows = _extent(node.x.shape.rows.size)
            cols = _extent(node.x.shape.cols.size)
            density = estimate_sparsity(node.x, cache, self.ring)
            return 2.0 * rows * cols * density
        if isinstance(node, la.WSLoss):
            # Streams over the non-zeros of X only.
            return estimate_nnz(node.x, cache, self.ring) * _extent(node.u.shape.cols.size)
        if isinstance(node, la.WCeMM):
            # Streams over the non-zeros of X only.
            return estimate_nnz(node.x, cache, self.ring) * _extent(node.u.shape.cols.size)
        if isinstance(node, la.WDivMM):
            # Streams over the non-zeros of X, then one sparse-dense product.
            return 2.0 * estimate_nnz(node.x, cache, self.ring) * _extent(node.u.shape.cols.size)
        if isinstance(node, (la.ElemMul, la.ElemDiv)):
            return estimate_nnz(node, cache, self.ring)
        if isinstance(node, (la.ElemPlus, la.ElemMinus)):
            return _cells(node) * min(
                1.0,
                estimate_sparsity(node.left, cache, self.ring) + estimate_sparsity(node.right, cache, self.ring),
            )
        if isinstance(node, (la.RowSums, la.ColSums, la.Sum)):
            return estimate_nnz(node.children[0], cache, self.ring)
        if isinstance(node, (la.Transpose, la.Neg, la.Power, la.UnaryFunc, la.SProp)):
            return estimate_nnz(node.children[0], cache, self.ring)
        if isinstance(node, la.CastScalar):
            return 1.0
        return 0.0
