"""Lifting an extracted RA plan back into linear algebra.

After extraction the optimizer holds one concrete RA expression whose free
attributes fit in at most two axes.  This module converts that expression
back into LA operators (the reverse direction of R_LR):

* a join of relations sharing both axes becomes element-wise multiplication
  (with SystemML-style scalar / vector broadcasting);
* a join of a row-axis relation and a column-axis relation becomes an outer
  product;
* an aggregation over a single shared index of a join becomes a matrix
  multiplication (choosing the two operand groups);
* aggregations over an axis of an already two-dimensional value become
  ``rowSums`` / ``colSums`` / ``sum``;
* aggregations over several indices of a larger join are lifted by greedy
  variable elimination: one index is eliminated at a time, picking the order
  that keeps intermediate results small, and every intermediate must fit in
  two axes (this mirrors the restriction the extractor already imposes).

* a fused node becomes its operator's definition over the lifted operands
  (:func:`~repro.translate.lower.expand_fused`), which
  :func:`~repro.runtime.fusion.fuse_operators` fuses again.

The lift is *structure preserving*: it never undoes decisions the extractor
made (which sub-aggregations are factored out, which additions are kept
apart); it only chooses how to realise one aggregated join as LA operators.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lang import expr as la
from repro.lang.dims import Dim, Shape, UNIT
from repro.ra.rexpr import (
    RAdd,
    RExpr,
    RFused,
    RJoin,
    RLit,
    RPlanOutput,
    RSum,
    RVar,
    free_attrs,
    rjoin,
    rsum,
)
from repro.translate.lower import ONES_PREFIX, dim_of_attr, expand_fused


class LiftError(ValueError):
    """Raised when an RA plan cannot be expressed in linear algebra."""


class Lifter:
    """Converts RA plans back to LA expressions."""

    def __init__(self, symbols: Dict[str, la.Var], ones_dims: Optional[Dict[str, Dim]] = None):
        self.symbols = symbols
        self._any_pinned = any(var.pinned for var in symbols.values())
        #: the lowered expression's dims by name, sized where any leaf is:
        #: every attribute was allocated from one of them, and the lowering
        #: refuses a name that carries two sizes
        self.dims: Dict[str, Dim] = {}
        shapes = [var.var_shape for var in symbols.values()]
        leaf_dims = [dim for shape in shapes for dim in (shape.rows, shape.cols)]
        for dim in leaf_dims + list((ones_dims or {}).values()):
            known = self.dims.get(dim.name)
            if not dim.is_unit and (known is None or known.size is None):
                self.dims[dim.name] = dim

    # -- public API --------------------------------------------------------------
    def lift_plan(self, plan: RPlanOutput) -> la.LAExpr:
        """Lift a complete plan (body plus output orientation)."""
        row = plan.row_attr.name if plan.row_attr is not None else None
        col = plan.col_attr.name if plan.col_attr is not None else None
        return self._lift(plan.body, row, col)

    # -- attribute bookkeeping -----------------------------------------------------
    def _dim_of(self, attr_name: str) -> Dim:
        """The dim of the lowered expression an attribute ranges over.

        Alpha normalisation keeps the dim an attribute was allocated from
        (:func:`~repro.translate.lower.dim_of_attr`; the lowering refuses a
        dim name containing ``.``), so the lift never mints a dim; a plan
        whose attribute names none cannot be lifted.
        """
        dim = self.dims.get(dim_of_attr(attr_name))
        if dim is None:
            raise LiftError(f"attribute {attr_name!r} ranges over no dim of the expression")
        return dim

    # -- dispatch -------------------------------------------------------------------
    def _lift(self, node: RExpr, row: Optional[str], col: Optional[str]) -> la.LAExpr:
        if isinstance(node, RLit):
            return la.Literal(node.value)
        if isinstance(node, RVar):
            return self._lift_var(node, row, col)
        if isinstance(node, RAdd):
            terms = [self._lift(arg, row, col) for arg in node.args]
            result = terms[0]
            for term in terms[1:]:
                result = la.ElemPlus(result, term)
            return result
        if isinstance(node, RJoin):
            return self._lift_join(list(node.args), row, col)
        if isinstance(node, RSum):
            return self._lift_sum(node, row, col)
        if isinstance(node, RFused):
            return self._lift_fused(node, row, col)
        raise LiftError(f"cannot lift {type(node).__name__}")

    def _lift_fused(self, node: RFused, row: Optional[str], col: Optional[str]) -> la.LAExpr:
        fusion = node.fusion
        children = [
            child if operand is None else self._lift(node.args[operand[0]], *operand[1:])
            for child, operand in zip(fusion.op.children, fusion.operands)
        ]
        definition = expand_fused(fusion.op.with_children(children))
        if (row, col) == fusion.out:
            return definition
        if (col, row) == fusion.out:
            return la.Transpose(definition)
        raise LiftError(f"orientation mismatch lifting {fusion.name}")

    # -- leaves -----------------------------------------------------------------------
    def _lift_var(self, node: RVar, row: Optional[str], col: Optional[str]) -> la.LAExpr:
        if node.name.startswith(ONES_PREFIX):
            return self._lift_ones(node, row, col)
        var = self.symbols.get(node.name)
        if var is None:
            raise LiftError(f"unknown input tensor {node.name!r}")
        attr_names = [a.name for a in node.attrs]
        if len(attr_names) == 2:
            a, b = attr_names
            if row == a and col == b:
                return var
            if row == b and col == a:
                return la.Transpose(var)
            raise LiftError(f"orientation mismatch lifting {node.name!r}")
        if len(attr_names) == 1:
            (a,) = attr_names
            is_col_vector = not var.var_shape.rows.is_unit
            if row == a:
                return var if is_col_vector else la.Transpose(var)
            if col == a:
                return la.Transpose(var) if is_col_vector else var
            raise LiftError(f"orientation mismatch lifting {node.name!r}")
        return var

    def _lift_ones(self, node: RVar, row: Optional[str], col: Optional[str]) -> la.LAExpr:
        if not node.attrs:
            return la.Literal(1.0)
        (attr,) = node.attrs
        dim = self._dim_of(attr.name)
        if row == attr.name:
            return la.FilledMatrix(1.0, Shape(dim, UNIT))
        if col == attr.name:
            return la.FilledMatrix(1.0, Shape(UNIT, dim))
        raise LiftError("ones tensor does not match the requested orientation")

    # -- joins ------------------------------------------------------------------------
    def _lift_join(self, args: List[RExpr], row: Optional[str], col: Optional[str]) -> la.LAExpr:
        args = _flatten_join(args)
        args = self._drop_redundant_ones(args)
        scalars: List[RExpr] = []
        row_only: List[RExpr] = []
        col_only: List[RExpr] = []
        full: List[RExpr] = []
        for arg in args:
            names = {a.name for a in free_attrs(arg)}
            if not names:
                scalars.append(arg)
            elif names == ({row} if row else set()):
                row_only.append(arg)
            elif names == ({col} if col else set()):
                col_only.append(arg)
            elif names <= {row, col}:
                full.append(arg)
            else:
                raise LiftError(
                    f"join factor with attributes {sorted(names)} does not fit orientation "
                    f"({row}, {col})"
                )

        result: Optional[la.LAExpr] = None
        if full:
            result = self._elemmul_chain([self._lift(a, row, col) for a in full])
            # Combine broadcast vectors among themselves first: P * (1 - P)
            # stays adjacent, which lets the fusion pass recognise sprop.
            if row_only:
                row_vector = self._elemmul_chain([self._lift(a, row, None) for a in row_only])
                result = la.ElemMul(result, row_vector)
            if col_only:
                col_vector = self._elemmul_chain([self._lift(a, None, col) for a in col_only])
                result = la.ElemMul(result, col_vector)
        elif row_only and col_only:
            col_vector = self._elemmul_chain([self._lift(a, row, None) for a in row_only])
            row_vector = self._elemmul_chain([self._lift(a, None, col) for a in col_only])
            result = la.MatMul(col_vector, row_vector)
        elif row_only:
            result = self._elemmul_chain([self._lift(a, row, None) for a in row_only])
        elif col_only:
            result = self._elemmul_chain([self._lift(a, None, col) for a in col_only])

        scalar_expr: Optional[la.LAExpr] = None
        if scalars:
            scalar_expr = self._elemmul_chain([self._lift(a, None, None) for a in scalars])
        if result is None:
            return scalar_expr if scalar_expr is not None else la.Literal(1.0)
        if scalar_expr is not None:
            result = la.ElemMul(scalar_expr, result)
        return result

    def _drop_redundant_ones(self, args: List[RExpr]) -> List[RExpr]:
        covered: Set[str] = set()
        for arg in args:
            if isinstance(arg, RVar) and arg.name.startswith(ONES_PREFIX):
                continue
            covered |= {a.name for a in free_attrs(arg)}
        kept: List[RExpr] = []
        for arg in args:
            if isinstance(arg, RVar) and arg.name.startswith(ONES_PREFIX):
                names = {a.name for a in arg.attrs}
                if names <= covered:
                    continue
            kept.append(arg)
        return kept if kept else [RLit(1.0)]

    @staticmethod
    def _elemmul_chain(terms: Sequence[la.LAExpr]) -> la.LAExpr:
        result = terms[0]
        for term in terms[1:]:
            result = la.ElemMul(result, term)
        return result

    # -- aggregations -------------------------------------------------------------------
    def _lift_sum(self, node: RSum, row: Optional[str], col: Optional[str]) -> la.LAExpr:
        child = node.child
        agg_names = {a.name for a in node.indices}
        child_names = {a.name for a in free_attrs(child)}

        matvec = self._lift_pinned_matvec(node, row, col)
        if matvec is not None:
            return matvec
        if len(child_names) <= 2:
            return self._lift_small_sum(node, row, col, agg_names, child_names)

        if isinstance(child, RJoin):
            return self._lift_elimination(node, row, col)
        raise LiftError(
            f"cannot lift aggregation over a {type(child).__name__} with "
            f"{len(child_names)} free attributes"
        )

    def _lift_pinned_matvec(
        self, node: RSum, row: Optional[str], col: Optional[str]
    ) -> Optional[la.LAExpr]:
        """``Σ_k A(i,k) v(k)`` with a pinned-only ``A`` as ``A %*% v``.

        A matrix-vector product otherwise lifts as ``rowSums(A * t(v))``,
        which reads ``A`` once either way.  A pinned ``A`` is built once and
        read every run, and the matmul reads it without a broadcast
        temporary.  Plans without pinned inputs never take this path.
        """
        if not self._any_pinned or not isinstance(node.child, RJoin) or len(node.indices) != 1:
            return None
        if (row is None) == (col is None):
            return None
        (index,) = (attr.name for attr in node.indices)
        out = row if row is not None else col
        matrix: List[RExpr] = []
        vector: List[RExpr] = []
        for factor in _flatten_join(list(node.child.args)):
            names = {attr.name for attr in free_attrs(factor)}
            if names == {out, index}:
                matrix.append(factor)
            elif names <= {index}:
                vector.append(factor)
            else:
                return None
        if not matrix or not any(free_attrs(factor) for factor in vector):
            return None
        if not all(self._pinned_only(factor) for factor in matrix):
            return None
        if row is not None:
            return la.MatMul(
                self._lift_join(matrix, row, index), self._lift_join(vector, index, None)
            )
        return la.MatMul(
            self._lift_join(vector, None, index), self._lift_join(matrix, index, col)
        )

    def _pinned_only(self, node: RExpr) -> bool:
        """Whether every input ``node`` reads is pinned (ones count as constants)."""
        pinned = False
        for sub in node.walk():
            if isinstance(sub, RVar) and not sub.name.startswith(ONES_PREFIX):
                var = self.symbols.get(sub.name)
                if var is None or not var.pinned:
                    return False
                pinned = True
        return pinned

    def _lift_small_sum(
        self,
        node: RSum,
        row: Optional[str],
        col: Optional[str],
        agg_names: Set[str],
        child_names: Set[str],
    ) -> la.LAExpr:
        """Aggregation of a value that already fits in two axes."""
        child_row = row if row in child_names else None
        child_col = col if col in child_names else None
        leftover = sorted(child_names - {child_row, child_col} - {None})
        for name in leftover:
            if child_row is None:
                child_row = name
            elif child_col is None:
                child_col = name
            else:  # pragma: no cover - guarded by len(child_names) <= 2
                raise LiftError("aggregation child does not fit in two axes")
        lifted = self._lift(node.child, child_row, child_col)
        row_aggregated = child_row is not None and child_row in agg_names
        col_aggregated = child_col is not None and child_col in agg_names
        out_names = child_names - agg_names
        if not out_names and (row_aggregated or col_aggregated):
            # Every axis is aggregated away: the idiomatic operator is sum().
            return la.Sum(lifted)
        if row_aggregated and col_aggregated:
            return la.Sum(lifted)
        if col_aggregated:
            return la.RowSums(lifted)
        if row_aggregated:
            return la.ColSums(lifted)
        return lifted

    def _lift_elimination(self, node: RSum, row: Optional[str], col: Optional[str]) -> la.LAExpr:
        """Greedy variable elimination over an aggregated join."""
        factors = _flatten_join(list(node.child.args))
        agg_names = {a.name for a in node.indices}
        attr_by_name = {a.name: a for a in node.indices}

        # Factors mentioning none of the aggregated indices can be pulled out.
        passive = [f for f in factors if not ({a.name for a in free_attrs(f)} & agg_names)]
        active = [f for f in factors if {a.name for a in free_attrs(f)} & agg_names]
        if passive:
            aggregated = self._lift(rsum(node.indices, rjoin(active)), row, col)
            outside = self._lift_join(passive, row, col)
            return la.ElemMul(outside, aggregated)

        if len(agg_names) == 1:
            (index,) = agg_names
            return self._lift_single_index(factors, index, row, col)

        # Choose the elimination order greedily by estimated intermediate size.
        best: Optional[Tuple[float, str]] = None
        for name in sorted(agg_names):
            group = [f for f in factors if name in {a.name for a in free_attrs(f)}]
            remaining = set()
            for f in group:
                remaining |= {a.name for a in free_attrs(f)}
            remaining -= {name}
            if len(remaining) > 2:
                continue
            size = 1.0
            for attr_name in remaining:
                dim = self._dim_of(attr_name)
                size *= dim.size if dim.size is not None else 1000.0
            if best is None or size < best[0]:
                best = (size, name)
        if best is None:
            raise LiftError("no admissible variable-elimination order keeps intermediates in two axes")
        _, chosen = best
        chosen_attr = attr_by_name[chosen]
        group = [f for f in factors if chosen in {a.name for a in free_attrs(f)}]
        rest = [f for f in factors if chosen not in {a.name for a in free_attrs(f)}]
        inner = rsum({chosen_attr}, rjoin(group))
        remaining_indices = frozenset(a for a in node.indices if a.name != chosen)
        restructured = rsum(remaining_indices, rjoin(rest + [inner]))
        return self._lift(restructured, row, col)

    def _lift_single_index(
        self, factors: List[RExpr], index: str, row: Optional[str], col: Optional[str]
    ) -> la.LAExpr:
        """Lift ``Σ_index`` of a join whose output spans both axes (a matmul)."""
        group_row: List[RExpr] = []
        group_col: List[RExpr] = []
        shared: List[RExpr] = []
        for factor in factors:
            names = {a.name for a in free_attrs(factor)}
            if names <= {row, index} and row in names:
                group_row.append(factor)
            elif names <= {index, col} and col in names:
                group_col.append(factor)
            elif names <= {index}:
                shared.append(factor)
            else:
                raise LiftError(
                    f"factor with attributes {sorted(names)} prevents lifting the aggregation "
                    f"over {index!r} as a matrix multiplication"
                )
        if not group_row and not group_col:
            # Pure dot product of vectors over the aggregated index.
            lifted = self._elemmul_chain([self._lift(f, index, None) for f in shared])
            return la.Sum(lifted)
        if group_row and group_col:
            left_factors = group_row + shared
            left = self._lift_join(left_factors, row, index)
            right = self._lift_join(group_col, index, col)
            return la.MatMul(left, right)
        if group_row:
            lifted = self._lift_join(group_row + shared, row, index)
            return la.RowSums(lifted)
        lifted = self._lift_join(group_col + shared, index, col)
        return la.ColSums(lifted)


def _flatten_join(args: List[RExpr]) -> List[RExpr]:
    flat: List[RExpr] = []
    for arg in args:
        if isinstance(arg, RJoin):
            flat.extend(_flatten_join(list(arg.args)))
        else:
            flat.append(arg)
    return flat


def lift(
    plan: RPlanOutput,
    symbols: Dict[str, la.Var],
    ones_dims: Optional[Dict[str, Dim]] = None,
) -> la.LAExpr:
    """Convenience wrapper around :class:`Lifter`."""
    return Lifter(symbols, ones_dims).lift_plan(plan)
