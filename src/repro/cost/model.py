"""Cost model used during extraction.

Following Sec. 3.1: "Each operation usually has cost proportional to the
output size in terms of memory allocation and computation.  Since the size
of a matrix is proportional to its number of non-zeroes (nnz), we use the
estimate of nnz as the cost for each operation."

The nnz estimate of an e-class is its sparsity invariant (Fig. 12, tracked
by :class:`repro.egraph.analysis.RAAnalysis`) times the product of its free
attribute extents.  Inputs (``var``/``lit`` leaves) cost nothing — they are
already materialised.  A node whose children are all *pinned* classes
(:class:`~repro.egraph.analysis.ClassData`) is computed once per pinned
input rather than per run, so it enters the per-run objective at
:data:`HOISTED_WEIGHT` of its cost.  A ``fused`` e-node is charged what
:class:`~repro.cost.la_cost.LACostModel` charges its LA operator: its output
plus the ``work`` rule of its ``OP_TABLE`` row, over its operands'
sparsities.  For ``wsloss`` that is the sparse-driven iteration space (one
rank-length dot product per non-zero of ``X``) the fused kernel runs.

The module also hosts the *schema pruning* predicate of Sec. 3.2: the
extractor only considers e-classes whose schema can be mapped back to linear
algebra.  Classes with up to two free attributes are always admissible;
classes with exactly three are admissible only through their join nodes
(they can only appear directly under an aggregation, where the lift realises
them as a matrix multiplication); larger schemas are pruned.
"""

from __future__ import annotations


from repro.egraph.analysis import ClassData
from repro.egraph.enode import ENode, OP_FUSED, OP_JOIN, OP_LIT, OP_VAR
from repro.egraph.graph import EGraph
from repro.runtime.optable import OP_TABLE

#: Largest schema the extractor will consider (three attributes are allowed
#: only for join nodes feeding an aggregation).
MAX_LIFTABLE_ARITY = 3

#: Extent assumed for attributes without a concrete size (symbolic plans).
DEFAULT_EXTENT = 1000.0

#: Per-run weight of a node over pinned classes only: it is paid once, not
#: per run, yet the weight keeps the cheaper of two hoisted builds preferred.
#: Whether the hoisted build pays for itself is decided outside extraction,
#: from the repeat count (:func:`repro.optimizer.pipeline.breakeven_runs`).
HOISTED_WEIGHT = 1e-6


def admissible_node(egraph: EGraph, class_id: int, node: ENode) -> bool:
    """Whether the extractor may select ``node`` from ``class_id``."""
    data = egraph.data(class_id)
    arity = data.arity
    if arity <= 2:
        return True
    if arity == MAX_LIFTABLE_ARITY:
        return node.op == OP_JOIN
    return False


class RACostModel:
    """Output-nnz cost of an operator e-node."""

    def __init__(self, default_extent: float = DEFAULT_EXTENT) -> None:
        self.default_extent = default_extent

    def node_cost(self, egraph: EGraph, class_id: int, node: ENode) -> float:
        """Cost charged for computing ``node`` (its output allocation)."""
        if node.op in (OP_VAR, OP_LIT):
            return 0.0
        data = egraph.data(class_id)
        cost = self.output_nnz(data)
        if node.op == OP_FUSED:
            cost += self.fused_work(egraph, node)
        if egraph.pinned_vars and all(egraph.data(child).pinned for child in node.children):
            return cost * HOISTED_WEIGHT
        return cost

    @staticmethod
    def fused_work(egraph: EGraph, node: ENode) -> float:
        """The ``work`` rule of a fused node's operator, operands read as
        the sparsities of the classes that carry them."""
        fusion = node.payload
        op = fusion.op
        sparsity = {
            child: egraph.data(node.children[operand[0]]).sparsity
            for child, operand in zip(op.children, fusion.operands)
            if operand is not None
        }
        return OP_TABLE[type(op)].work(op, lambda operand: sparsity.get(operand, 1.0))

    def output_nnz(self, data: ClassData) -> float:
        """Estimated non-zero count of a class's result."""
        cells = 1.0
        for attr in data.schema:
            cells *= attr.size if attr.size is not None else self.default_extent
        return data.sparsity * cells

    def __call__(self, egraph: EGraph, class_id: int, node: ENode) -> float:
        return self.node_cost(egraph, class_id, node)
