"""Columnwise numeric batching: stack same-fingerprint matvec requests.

A serving micro-batch frequently holds many requests for the *same*
instance digest that differ only in one ``(m, 1)`` input — the query
vector of a matvec-shaped plan, with the big data matrices pinned across
requests.  When the plan is **columnwise** in that slot, serving can
stack the k vectors into one ``(m, k)`` matrix, execute the plan once, and
slice the result columns back out: one BLAS/CSR matmat instead of k
matvecs.

``stackable_slot`` is the structural soundness check.  A plan is columnwise
in slot ``v`` iff every node's column ``j`` depends only on column ``j`` of
the stacked input and on pinned values:

* ``v`` itself is columnwise; subtrees not containing ``v`` are constant;
* elementwise ops are columnwise when the constant operand broadcasts
  per-column identically — scalar ``(1, 1)`` or column ``(m, 1)`` shapes;
* ``MatMul(constant, columnwise)`` is columnwise (the matmat case);
* anything mixing columns — transposes of ``v``, row/col/full sums over
  ``v``, ``MatMul(columnwise, constant)``, fused operators over ``v`` —
  is rejected.

The structural check is necessary, not sufficient, for *bitwise* equality:
dense gemm on a stacked matrix may accumulate differently from k gemvs.
The serving engine therefore verifies — every member of a plan's first
stacked batch, then one rotating member per batch — against the
individually-computed result, and permanently disables stacking for the
plan on any mismatch (see ``BatchServer._serve_stacked``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.lang import expr as la
from repro.runtime.optable import ELEMENTWISE, loop_of
from repro.runtime.tape import _slot_index

_CONST = 0
_COL = 1
_BAD = 2


def _concrete_shape(node: la.LAExpr) -> Optional[Tuple[int, int]]:
    try:
        shape = node.shape
    except Exception:
        return None
    rows, cols = shape.rows.size, shape.cols.size
    if rows is None or cols is None:
        return None
    return rows, cols


def stackable_slot(expr: la.LAExpr, n_slots: int) -> Optional[int]:
    """The slot whose ``(m, 1)`` values may be column-stacked, or ``None``.

    Deterministic: the lowest-indexed column-vector slot for which the
    whole plan classifies as columnwise.
    """
    candidates = []
    seen: Dict[int, bool] = {}
    for node in expr.walk():
        if isinstance(node, la.Var):
            slot = _slot_index(node.name, n_slots)
            if slot in seen:
                continue
            shape = _concrete_shape(node)
            seen[slot] = shape is not None and shape[1] == 1 and shape[0] > 1
    for slot, is_column in sorted(seen.items()):
        if is_column:
            candidates.append(slot)
    for slot in candidates:
        if _classify(expr, slot, n_slots) == _COL:
            return slot
    return None


def _classify(root: la.LAExpr, slot: int, n_slots: int) -> int:
    memo: Dict[int, int] = {}

    def cls(node: la.LAExpr) -> int:
        known = memo.get(id(node))
        if known is not None:
            return known
        result = _classify_node(node)
        memo[id(node)] = result
        return result

    def _classify_node(node: la.LAExpr) -> int:
        if isinstance(node, la.Var):
            return _COL if _slot_index(node.name, n_slots) == slot else _CONST
        kinds = [cls(child) for child in node.children]
        if all(kind == _CONST for kind in kinds):
            return _CONST
        if any(kind == _BAD for kind in kinds):
            return _BAD
        # at least one columnwise child from here on; elementwise operators
        # act per-column on broadcast-compatible shapes
        if loop_of(node) == ELEMENTWISE:
            if len(kinds) == 1:
                return _COL
            left, right = node.children
            left_kind, right_kind = kinds
            if left_kind == _COL and right_kind == _COL:
                return _COL
            const_node = right if right_kind == _CONST else left
            col_node = left if left_kind == _COL else right
            return _COL if _broadcast_ok(const_node, col_node) else _BAD
        if isinstance(node, la.MatMul):
            left_kind, right_kind = kinds
            if left_kind == _CONST and right_kind == _COL:
                return _COL
            return _BAD
        # Transpose / sums / CastScalar / fused operators mix columns
        return _BAD

    return cls(root)


def _broadcast_ok(const_node: la.LAExpr, col_node: la.LAExpr) -> bool:
    """A constant operand broadcasts identically after column stacking when
    it is a scalar or matches the columnwise operand's column shape."""
    const_shape = _concrete_shape(const_node)
    if const_shape is None:
        return False
    if const_shape == (1, 1):
        return True
    col_shape = _concrete_shape(col_node)
    return col_shape is not None and const_shape == col_shape and const_shape[1] == 1
