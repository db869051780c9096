"""Physical operator fusion.

SystemML fuses common patterns into single physical operators at LOP
generation time, *after* algebraic rewrites; the paper's experiments enable
fusion for the baseline opt level 2 and SPORES alike ("SPORES readily takes
advantage of existing fused operators").  This pass reproduces that stage:
it pattern-matches fusible shapes in an LA DAG and replaces them with the
fused nodes the execution engine implements.

Recognised patterns:

* ``sum(W * (X - U %*% t(V))^2)`` and ``sum((X - U %*% t(V))^2)`` → ``wsloss``
* ``sum(X * log(U %*% V))``                                       → ``wcemm``
* ``t(U) %*% (X / (U %*% V))`` and ``(X / (U %*% V)) %*% t(V)``    → ``wdivmm``
* ``P * (1 - P)`` / ``(1 - P) * P``                                → ``sprop``
* ``t(X) %*% (w * (X %*% v))`` and ``t(X) %*% (X %*% v)``          → ``mmchain``

As in SystemML, a pattern whose inner matrix product feeds other consumers
is left unfused, because fusing it would force the shared product to be
recomputed.  This guard is part of the
PNMF story in Sec. 4.2: neither the ``sum(W %*% H)`` rewrite nor the
``wcemm`` fusion fires for SystemML because ``W %*% H`` is shared, while the
plan SPORES produces no longer shares it and fuses cleanly.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.lang import dag
from repro.lang import expr as la


def fuse_operators(root: la.LAExpr) -> la.LAExpr:
    """Replace fusible patterns with fused operator nodes, bottom-up."""
    fuse = fusion_matcher(root)
    return dag.transform_bottom_up(root, lambda node: fuse(node) or node)


def fusion_matcher(root: la.LAExpr) -> Callable[[la.LAExpr], Optional[la.LAExpr]]:
    """The fused operator a node of ``root`` becomes, or ``None``.

    Sharing is judged on ``root``'s DAG: the test :func:`fuse_operators`
    applies, and the one the lowering seeds the e-graph's fused nodes with.
    """
    consumers = dag.consumer_counts(root)

    def is_shared(node: la.LAExpr) -> bool:
        return consumers.get(node, 0) > 1

    def fuse(node: la.LAExpr) -> Optional[la.LAExpr]:
        for matcher in (_match_wsloss, _match_wcemm, _match_wdivmm, _match_sprop, _match_mmchain):
            fused = matcher(node, is_shared)
            if fused is not None:
                return fused
        return None

    return fuse


def _is_one(node: la.LAExpr) -> bool:
    return isinstance(node, la.Literal) and node.value == 1.0


def _squared(node: la.LAExpr) -> Optional[la.LAExpr]:
    """Return B when ``node`` is ``B^2`` or ``B*B``."""
    if isinstance(node, la.Power) and node.exponent == 2.0:
        return node.child
    if isinstance(node, la.ElemMul) and node.left == node.right:
        return node.left
    return None


def _low_rank_residual(node: la.LAExpr, is_shared):
    """Return (X, U, V) when ``node`` is ``X - U %*% t(V)`` and the product is fusible."""
    if not isinstance(node, la.ElemMinus):
        return None
    product = node.right
    if not isinstance(product, la.MatMul) or is_shared(product):
        return None
    right = product.right
    if isinstance(right, la.Transpose):
        return node.left, product.left, right.child
    return node.left, product.left, la.Transpose(right)


def _match_wsloss(node: la.LAExpr, is_shared) -> Optional[la.LAExpr]:
    if not isinstance(node, la.Sum):
        return None
    body = node.child
    if isinstance(body, la.ElemMul):
        for weight, term in ((body.left, body.right), (body.right, body.left)):
            squared = _squared(term)
            if squared is not None:
                candidate = _low_rank_residual(squared, is_shared)
                if candidate is not None:
                    x, u, v = candidate
                    return la.WSLoss(x, u, v, weight)
    squared = _squared(body)
    if squared is not None:
        candidate = _low_rank_residual(squared, is_shared)
        if candidate is not None:
            x, u, v = candidate
            return la.WSLoss(x, u, v, la.Literal(1.0))
    return None


def _match_wcemm(node: la.LAExpr, is_shared) -> Optional[la.LAExpr]:
    if not isinstance(node, la.Sum) or not isinstance(node.child, la.ElemMul):
        return None
    for x, logged in ((node.child.left, node.child.right), (node.child.right, node.child.left)):
        if not (isinstance(logged, la.UnaryFunc) and logged.func == "log"):
            continue
        product = logged.child
        if isinstance(product, la.MatMul) and not is_shared(product):
            return la.WCeMM(x, product.left, product.right)
    return None


def _quotient_over_product(node: la.LAExpr, is_shared):
    """Return (X, U, V) when ``node`` is ``X / (U %*% V)`` with a fusible product."""
    if not isinstance(node, la.ElemDiv):
        return None
    product = node.right
    if not isinstance(product, la.MatMul) or is_shared(product):
        return None
    return node.left, product.left, product.right


def _match_wdivmm(node: la.LAExpr, is_shared) -> Optional[la.LAExpr]:
    if not isinstance(node, la.MatMul):
        return None
    # t(U) %*% (X / (U %*% V))
    if isinstance(node.left, la.Transpose):
        candidate = _quotient_over_product(node.right, is_shared)
        if candidate is not None:
            x, u, v = candidate
            if node.left.child == u:
                return la.WDivMM(x, u, v, multiply_left=True)
    # (X / (U %*% V)) %*% t(V)
    if isinstance(node.right, la.Transpose):
        candidate = _quotient_over_product(node.left, is_shared)
        if candidate is not None:
            x, u, v = candidate
            if node.right.child == v:
                return la.WDivMM(x, u, v, multiply_left=False)
    return None


def _match_sprop(node: la.LAExpr, is_shared) -> Optional[la.LAExpr]:
    if not isinstance(node, la.ElemMul):
        return None
    left, right = node.left, node.right
    if isinstance(right, la.ElemMinus) and _is_one(right.left) and right.right == left:
        return la.SProp(left)
    if isinstance(left, la.ElemMinus) and _is_one(left.left) and left.right == right:
        return la.SProp(right)
    return None


def _match_mmchain(node: la.LAExpr, is_shared) -> Optional[la.LAExpr]:
    if not isinstance(node, la.MatMul):
        return None
    if not isinstance(node.left, la.Transpose):
        return None
    x = node.left.child
    rhs = node.right
    if isinstance(rhs, la.MatMul) and rhs.left == x and not is_shared(rhs):
        return la.MMChain(x, rhs.right, la.Literal(1.0))
    if isinstance(rhs, la.ElemMul):
        for weight, inner in ((rhs.left, rhs.right), (rhs.right, rhs.left)):
            if isinstance(inner, la.MatMul) and inner.left == x and not is_shared(inner):
                return la.MMChain(x, inner.right, weight)
    return None
