"""Reference interpreter for RA plans over K-relations.

This is the semantic oracle the correctness tests and the rule audit use:
it evaluates an RA expression directly over dense NumPy tensors, one axis
per attribute, using the K-relation semantics of Sec. 2 over any
:class:`~repro.runtime.semiring.Semiring` — join combines matching indices
with ⊗, union with ⊕, Σ is the ring's ⊕-reduction of an axis (real
arithmetic: multiply, add, sum).  It is deliberately simple and dense — it
exists to check that lowering, the rewrite rules, extraction and lifting
all preserve semantics, not to be fast.

A fused node is evaluated by its definition, and only where its kernel
could run: the fused operators hard-code real arithmetic (the ``needs``
column of their ``OP_TABLE`` rows), so in any other ring the node has no
value and evaluating it raises :class:`RingOperatorError`.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

import numpy as np

from repro.ra.attrs import Attr
from repro.ra.rexpr import RAdd, RExpr, RFused, RJoin, RLit, RSum, RVar
from repro.runtime.optable import OP_TABLE
from repro.runtime.semiring import REAL, BinOp, Semiring
from repro.translate.lower import ONES_PREFIX


class RAInterpError(RuntimeError):
    """Raised when an RA plan cannot be evaluated."""


class RingOperatorError(RAInterpError):
    """A fused node met a ring its kernel cannot compute in."""


#: a tensor together with the attribute name carried by each axis
Labelled = Tuple[np.ndarray, Tuple[str, ...]]


def evaluate(
    node: RExpr,
    inputs: Mapping[str, np.ndarray],
    attr_sizes: Mapping[str, int],
    ring: Semiring = REAL,
) -> Labelled:
    """Evaluate an RA expression over ``ring``.

    Parameters
    ----------
    node:
        The RA expression.
    inputs:
        Name → dense array.  The array's axes must match the order of the
        attributes on the corresponding :class:`RVar` leaves (vectors are
        one-dimensional, matrices two-dimensional).
    attr_sizes:
        Extent of every attribute (needed for all-ones tensors and for
        aggregations over attributes absent from the child).
    ring:
        The semiring.  Literals are read through
        :meth:`Semiring.encode_literal`: face value in real arithmetic, the
        counting interpretation elsewhere (a literal without one raises
        :class:`~repro.runtime.semiring.RingLiteralError`).

    Returns
    -------
    (array, axis_names):
        The result tensor and the attribute carried by each of its axes,
        sorted by attribute name.
    """
    if isinstance(node, RLit):
        return np.array(ring.encode_literal(node.value)), ()
    if isinstance(node, RVar):
        return _leaf(node, inputs, attr_sizes, ring)
    if isinstance(node, RJoin):
        parts = [evaluate(arg, inputs, attr_sizes, ring) for arg in node.args]
        return _combine(parts, ring.mul)
    if isinstance(node, RAdd):
        parts = [evaluate(arg, inputs, attr_sizes, ring) for arg in node.args]
        return _combine(parts, ring.add)
    if isinstance(node, RSum):
        value, axes = evaluate(node.child, inputs, attr_sizes, ring)
        agg_names = {attr.name for attr in node.indices}
        keep = tuple(i for i, name in enumerate(axes) if name not in agg_names)
        drop = tuple(i for i, name in enumerate(axes) if name in agg_names)
        result = ring.aggregate(value, axis=drop) if drop else value
        # Σ_i over an expression that does not mention i is an |i|-fold ⊕:
        # multiply by the count |i| read as a literal of the ring.
        absent = 1
        for attr in node.indices:
            if attr.name not in axes:
                absent *= extent(attr, attr_sizes)
        if absent != 1:
            result = ring.mul(result, np.float64(ring.encode_literal(absent)))
        return np.asarray(result), tuple(axes[i] for i in keep)
    if isinstance(node, RFused):
        needs = OP_TABLE[type(node.fusion.op)].needs
        if not ring.provides(needs):
            raise RingOperatorError(
                f"{node.fusion.name} needs {needs} and the {ring.name!r} semiring lacks it"
            )
        return evaluate(node.definition, inputs, attr_sizes, ring)
    raise RAInterpError(f"cannot evaluate {type(node).__name__}")


def _leaf(
    node: RVar, inputs: Mapping[str, np.ndarray], attr_sizes: Mapping[str, int], ring: Semiring
) -> Labelled:
    names = tuple(attr.name for attr in node.attrs)
    if node.name.startswith(ONES_PREFIX):
        shape = tuple(extent(attr, attr_sizes) for attr in node.attrs)
        return ring.fill(shape, ring.one), names
    if node.name not in inputs:
        raise RAInterpError(f"no input bound to tensor {node.name!r}")
    array = np.asarray(inputs[node.name], dtype=np.float64)
    if array.ndim != len(names):
        array = np.squeeze(array)
        if array.ndim != len(names):
            raise RAInterpError(
                f"input {node.name!r} has {array.ndim} axes but the plan binds {len(names)} attributes"
            )
    return array, names


def extent(attr: Attr, attr_sizes: Mapping[str, int]) -> int:
    if attr.name in attr_sizes:
        return attr_sizes[attr.name]
    if attr.size is not None:
        return attr.size
    raise RAInterpError(f"unknown extent for attribute {attr.name!r}")


def _combine(parts: List[Labelled], op: BinOp) -> Labelled:
    """Align tensors on a shared sorted axis list and combine element-wise."""
    all_names = sorted({name for _, names in parts for name in names})
    aligned = [_align(value, names, all_names) for value, names in parts]
    result = aligned[0]
    for other in aligned[1:]:
        result = op(result, other)
    return result, tuple(all_names)


def _align(value: np.ndarray, names: Tuple[str, ...], target: List[str]) -> np.ndarray:
    """Permute/expand ``value`` so its axes follow ``target`` (broadcastable)."""
    order = sorted(range(len(names)), key=lambda i: names[i])
    value = np.transpose(value, order) if names else value
    sorted_names = [names[i] for i in order]
    shape = []
    axis = 0
    for name in target:
        if axis < len(sorted_names) and sorted_names[axis] == name:
            shape.append(value.shape[axis])
            axis += 1
        else:
            shape.append(1)
    return value.reshape(shape) if target else value
