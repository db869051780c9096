"""The audit's independent LA evaluator, and input sampling for both oracles.

Two oracles drive the differential rule audit:

* relational rules are checked with the K-relation reference interpreter
  itself, :func:`repro.runtime.ra_interp.evaluate`, run over each semiring;
* :func:`evaluate_laexpr` evaluates a linear-algebra expression directly
  (matmul as ⊕-over-⊗, element-wise ops as ring ops), which is what checks
  the SystemML catalog patterns whose surface syntax never lowers to RA.  It
  shares nothing with the runtime's kernels on purpose: it is the reference
  they are audited against.

Operators outside a ring's fragment — subtraction without additive
inverses, division without ⊗-inverses, transcendental functions anywhere
but the reals — raise :class:`RingUnsupported`; the auditor records the
pattern as *unsupported* in that ring rather than unsound.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.runtime.ra_interp import extent
from repro.runtime.semiring import Array, Semiring
from repro.lang import expr as la
from repro.ra.rexpr import RExpr, RVar
from repro.translate.lower import ONES_PREFIX


class RingUnsupported(Exception):
    """The expression uses an operator outside this semiring's fragment."""


class EvaluationError(RuntimeError):
    """The expression cannot be evaluated at all (missing input, bad arity)."""


def interpret_literal(ring: Semiring, value: float) -> float:
    """Interpret a numeric literal inside ``ring``.

    Non-negative integers go through the ℕ → S homomorphism
    (:meth:`Semiring.from_int`); anything else only means something in a
    ring with subtraction and division, i.e. the reals.
    """
    if float(value).is_integer() and value >= 0:
        return ring.from_int(int(value))
    if ring.has_subtraction and ring.has_division:
        return float(value)
    raise RingUnsupported(
        f"literal {value!r} has no ℕ-homomorphism reading in ring {ring.name!r}"
    )


# ---------------------------------------------------------------------------
# LA expressions (the surface language of the SystemML catalog)
# ---------------------------------------------------------------------------


def shape_of(node: la.LAExpr) -> Tuple[int, int]:
    """Concrete (rows, cols) of an LA expression (unit dims are 1)."""
    shape = node.shape
    return (shape.rows.size or 1, shape.cols.size or 1)


def sample_la_inputs(
    exprs: List[la.LAExpr], ring: Semiring, rng: np.random.Generator
) -> Dict[str, Array]:
    """Sparsity-respecting input samples for every ``Var`` under ``exprs``."""
    inputs: Dict[str, Array] = {}
    for root in exprs:
        for node in root.walk():
            if isinstance(node, la.Var) and node.name not in inputs:
                rows = node.var_shape.rows.size or 1
                cols = node.var_shape.cols.size or 1
                inputs[node.name] = ring.sample_sparse(rng, (rows, cols), node.sparsity)
    return inputs


def evaluate_laexpr(
    node: la.LAExpr, ring: Semiring, inputs: Mapping[str, Array]
) -> Array:
    """Evaluate an LA expression over ``ring``; result is always 2-D."""
    if isinstance(node, la.Var):
        if node.name not in inputs:
            raise EvaluationError(f"no input bound to {node.name!r}")
        return np.asarray(inputs[node.name], dtype=np.float64)
    if isinstance(node, la.Literal):
        return np.asarray([[interpret_literal(ring, node.value)]])
    if isinstance(node, la.FilledMatrix):
        return ring.fill(shape_of(node), interpret_literal(ring, node.value))
    if isinstance(node, la.MatMul):
        left = evaluate_laexpr(node.left, ring, inputs)
        right = evaluate_laexpr(node.right, ring, inputs)
        return ring.aggregate(ring.mul(left[:, :, None], right[None, :, :]), axis=1)
    if isinstance(node, la.ElemMul):
        return ring.mul(
            evaluate_laexpr(node.left, ring, inputs),
            evaluate_laexpr(node.right, ring, inputs),
        )
    if isinstance(node, la.ElemPlus):
        return ring.add(
            evaluate_laexpr(node.left, ring, inputs),
            evaluate_laexpr(node.right, ring, inputs),
        )
    if isinstance(node, la.ElemMinus):
        if ring.sub is None:
            raise RingUnsupported(f"ring {ring.name!r} has no subtraction")
        return ring.sub(
            evaluate_laexpr(node.left, ring, inputs),
            evaluate_laexpr(node.right, ring, inputs),
        )
    if isinstance(node, la.ElemDiv):
        if ring.div is None:
            raise RingUnsupported(f"ring {ring.name!r} has no division")
        return ring.div(
            evaluate_laexpr(node.left, ring, inputs),
            evaluate_laexpr(node.right, ring, inputs),
        )
    if isinstance(node, la.Neg):
        if ring.sub is None:
            raise RingUnsupported(f"ring {ring.name!r} has no additive inverses")
        return ring.sub(
            np.asarray(ring.zero), evaluate_laexpr(node.child, ring, inputs)
        )
    if isinstance(node, la.Transpose):
        return evaluate_laexpr(node.child, ring, inputs).T
    if isinstance(node, la.RowSums):
        return ring.aggregate(
            evaluate_laexpr(node.child, ring, inputs), axis=1, keepdims=True
        )
    if isinstance(node, la.ColSums):
        return ring.aggregate(
            evaluate_laexpr(node.child, ring, inputs), axis=0, keepdims=True
        )
    if isinstance(node, la.Sum):
        return ring.aggregate(
            evaluate_laexpr(node.child, ring, inputs), axis=(0, 1), keepdims=True
        )
    if isinstance(node, la.Power):
        base = evaluate_laexpr(node.child, ring, inputs)
        exponent = node.exponent
        if float(exponent).is_integer() and exponent >= 1:
            result = base
            for _ in range(int(exponent) - 1):
                result = ring.mul(result, base)
            return result
        if exponent == 0:
            return ring.fill(base.shape, ring.one)
        if ring.name == "real":
            return np.power(base, exponent)
        raise RingUnsupported(
            f"exponent {exponent!r} has no ⊗-iteration reading in {ring.name!r}"
        )
    if isinstance(node, la.CastScalar):
        value = evaluate_laexpr(node.child, ring, inputs)
        if value.size != 1:
            raise EvaluationError("as.scalar of a non-1x1 value")
        return value.reshape(1, 1)
    if isinstance(node, la.UnaryFunc):
        if ring.name != "real":
            raise RingUnsupported(
                f"unary {node.func!r} is transcendental — real-only"
            )
        func = _UNARY_NUMPY.get(node.func)
        if func is None:
            raise EvaluationError(f"no numpy mapping for unary {node.func!r}")
        return func(evaluate_laexpr(node.child, ring, inputs))
    # Fused physical operators never appear in the audited source patterns.
    raise RingUnsupported(
        f"{type(node).__name__} is a physical operator outside the audit fragment"
    )


def _sigmoid(array: Array) -> Array:
    return 1.0 / (1.0 + np.exp(-array))


_UNARY_NUMPY: Dict[str, Callable[[Array], Array]] = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sign": np.sign,
    "sigmoid": _sigmoid,
    "round": np.round,
}


def sample_rexpr_inputs(
    node: RExpr,
    ring: Semiring,
    rng: np.random.Generator,
    attr_sizes: Mapping[str, int],
    sparsity: Optional[Mapping[str, float]] = None,
) -> Dict[str, Array]:
    """Input samples for every non-synthetic ``RVar`` under ``node``."""
    inputs: Dict[str, Array] = {}

    def visit(expr: RExpr) -> None:
        if isinstance(expr, RVar):
            if expr.name.startswith(ONES_PREFIX) or expr.name in inputs:
                return
            shape = tuple(extent(attr, attr_sizes) for attr in expr.attrs)
            hint = expr.sparsity
            if sparsity is not None and expr.name in sparsity:
                hint = sparsity[expr.name]
            inputs[expr.name] = ring.sample_sparse(rng, shape, hint)
        else:
            for child in expr.children:
                visit(child)

    visit(node)
    return inputs
