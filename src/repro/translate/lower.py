"""Lowering LA expressions to RA (the R_LR rules of Fig. 2).

Every LA operator becomes a combination of join, union and aggregation over
K-relations.  The bind/unbind bookkeeping of the paper is performed here
once and for all: each axis of the LA expression is assigned a relational
attribute, consecutive unbind/bind pairs never materialise, and the final
:class:`~repro.ra.rexpr.RPlanOutput` records which free attribute plays the
role of the result's rows and columns (the top-level unbind).

Attribute naming
----------------
Attributes are named after the symbolic :class:`~repro.lang.dims.Dim` they
range over, which makes lowering *deterministic across expressions*: the
left- and right-hand side of a rewrite rule, lowered independently, use the
same attribute names for corresponding axes.  When the same dimension is
used for several independent axes (e.g. ``A %*% A`` for a square ``A``), a
numeric suffix disambiguates them in order of allocation.

Only the sum-product fragment of the language is lowered: element-wise
division, arbitrary unary functions and fractional powers are *optimization
barriers* (Sec. 3.3); the optimizer splits the DAG at those operators before
lowering each region, so they never reach this module.

Fused operators
---------------
Where :func:`repro.runtime.fusion.fusion_matcher` would fuse a node of the
region (same patterns, same sharing test), the node lowers to an
:class:`~repro.ra.rexpr.RFused`: its definition, plus the fused operator
over the lowered operands.  The e-graph keeps the fused e-node as a
candidate for the class of the definition, and the real ring's ``fuse``
rule places it there, so extraction weighs the fused cost against every
rewrite of the definition.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.lang import expr as la
from repro.lang.dims import Dim, Shape
from repro.ra.attrs import Attr
from repro.ra.rexpr import (
    PLACEHOLDER,
    Fusion,
    RAdd,
    RExpr,
    RFused,
    RJoin,
    RLit,
    RPlanOutput,
    RSum,
    RVar,
    all_indices,
    free_attrs,
    radd,
    rename_attrs,
    rjoin,
    rsum,
    substitute,
)

#: Prefix of the synthetic all-ones tensors used to pad broadcast additions
#: up to a union-compatible schema.
ONES_PREFIX = "__ones__"


class LoweringError(ValueError):
    """Raised when an expression outside the sum-product fragment is lowered."""


def dim_of_attr(attr_name: str) -> str:
    """The name of the dim an attribute was allocated from (``dim`` or ``dim.k``)."""
    return attr_name.split(".")[0]


@dataclass
class AttrAllocator:
    """Deterministic attribute-name allocation keyed by dimension identity."""

    used: Dict[str, int] = field(default_factory=dict)

    def fresh(self, dim: Dim) -> Attr:
        """Allocate an attribute for an axis ranging over ``dim``."""
        count = self.used.get(dim.name, 0)
        self.used[dim.name] = count + 1
        name = dim.name if count == 0 else f"{dim.name}.{count}"
        return Attr(name, dim.size)


@dataclass
class LoweringResult:
    """The RA plan plus the symbol table needed to translate back."""

    plan: RPlanOutput
    symbols: Dict[str, la.Var]
    ones_dims: Dict[str, Dim]


def lower(expr: la.LAExpr) -> LoweringResult:
    """Lower an LA expression to a relational plan (R_LR)."""
    # Imported here: ``repro.runtime`` reads this module's ONES_PREFIX.
    from repro.runtime.fusion import fusion_matcher

    lowering = _Lowering(fusion_matcher(expr))
    shape = expr.shape
    row_attr = None if shape.rows.is_unit else lowering.attrs.fresh(shape.rows)
    col_attr = None if shape.cols.is_unit else lowering.attrs.fresh(shape.cols)
    body = lowering.lower(expr, row_attr, col_attr)
    body = alpha_normalize(body)
    plan = RPlanOutput(body, row_attr, col_attr)
    return LoweringResult(plan, lowering.symbols, lowering.ones_dims)


def alpha_normalize(node: RExpr, visible: frozenset = None) -> RExpr:
    """Rename aggregation-bound indices to canonical names.

    Independent aggregations over axes with the same underlying dimension
    should use the same index name (``Σ_m X`` and ``Σ_m Y`` rather than
    ``Σ_m X`` and ``Σ_{m.1} Y``): two expressions that only differ by such a
    renaming denote the same query, and giving them literally identical
    bound names lets the e-graph identify them without an alpha-conversion
    rule.

    A binder may only take a name that is neither used anywhere inside its
    own scope nor *visible concurrently with* its scope — i.e. not an output
    attribute, not bound by an enclosing aggregate, and not free in any
    sibling subtree along the path to the root.  Reuse across genuinely
    disjoint scopes (two independent aggregations added together) is exactly
    what we want; reuse that would collide with a concurrently-live index
    would block rewrites (the capture-avoidance guards) and confuse the
    lift, so it is never introduced.
    """
    if visible is None:
        visible = frozenset(attr.name for attr in free_attrs(node))
    if isinstance(node, (RVar, RLit)):
        return node
    if isinstance(node, (RJoin, RAdd)):
        child_free = [frozenset(attr.name for attr in free_attrs(arg)) for arg in node.args]
        normalized = []
        for position, arg in enumerate(node.args):
            sibling_names = frozenset().union(
                *(names for index, names in enumerate(child_free) if index != position)
            ) if len(node.args) > 1 else frozenset()
            normalized.append(alpha_normalize(arg, visible | sibling_names))
        return rjoin(normalized) if isinstance(node, RJoin) else radd(normalized)
    if isinstance(node, RFused):
        return _alpha_normalize_fused(node, visible)
    if isinstance(node, RSum):
        child = node.child
        used = {attr.name for attr in all_indices(child)} | set(visible)
        mapping = {}
        new_indices = []
        for attr in sorted(node.indices, key=lambda a: a.name):
            base = dim_of_attr(attr.name)
            candidate = base
            suffix = 0
            chosen_names = {a.name for a in new_indices}
            while (candidate in used and candidate != attr.name) or candidate in chosen_names:
                suffix += 1
                candidate = f"{base}.{suffix}"
            if candidate != attr.name:
                mapping[attr.name] = Attr(candidate, attr.size)
            new_indices.append(Attr(candidate, attr.size))
        renamed_child = rename_attrs(child, mapping) if mapping else child
        inner_visible = frozenset(visible) | {a.name for a in new_indices}
        return rsum(new_indices, alpha_normalize(renamed_child, inner_visible))
    raise TypeError(f"cannot alpha-normalize {type(node).__name__}")


def _alpha_normalize_fused(node: RFused, visible: frozenset) -> RExpr:
    """Normalize a fused node's template as a term whose operands are leaves,
    then carry each renamed placeholder attribute into its operand.

    The template's binders avoid every name bound inside an operand, so the
    (capture-naive) renaming of the operands' free attributes is safe.
    """
    fusion = node.fusion
    inner: frozenset = frozenset()
    for arg in node.args:
        inner |= {a.name for a in all_indices(arg)} - {a.name for a in free_attrs(arg)}
    template = alpha_normalize(fusion.template, visible | inner)
    renamed = _placeholder_attrs(template)
    mapping: Dict[str, Attr] = {}
    for n, attrs in _placeholder_attrs(fusion.template).items():
        for old, new in zip(attrs, renamed[n]):
            if mapping.setdefault(old.name, new) != new:
                raise LoweringError(f"{fusion.name}: an operand index is bound two ways")
    mapping = {name: attr for name, attr in mapping.items() if attr.name != name}
    scope = frozenset(visible) | {a.name for a in all_indices(template)}
    return RFused(
        dataclasses.replace(fusion.renamed(mapping), template=template),
        tuple(alpha_normalize(rename_attrs(arg, mapping), scope) for arg in node.args),
    )


def _placeholder_attrs(template: RExpr) -> Dict[int, Tuple[Attr, ...]]:
    """Placeholder index -> the attributes it is bound to."""
    found: Dict[int, Tuple[Attr, ...]] = {}
    for sub in template.walk():
        if isinstance(sub, RVar) and sub.name.startswith(PLACEHOLDER):
            if found.setdefault(int(sub.name[1:]), sub.attrs) != sub.attrs:
                raise LoweringError(f"placeholder {sub.name} is bound two ways")
    return found


class _Lowering:
    def __init__(self, fuse: Callable[[la.LAExpr], Optional[la.LAExpr]]) -> None:
        self.attrs = AttrAllocator()
        self.symbols: Dict[str, la.Var] = {}
        self.ones_dims: Dict[str, Dim] = {}
        #: every dim a leaf ranges over, by name
        self.dims: Dict[str, Dim] = {}
        #: the fused operator a region node would become, or ``None``; unset
        #: (``None``) while a fused node's own definition is lowered
        self.fuse: Optional[Callable[[la.LAExpr], Optional[la.LAExpr]]] = fuse

    # -- entry point -----------------------------------------------------------
    def lower(self, node: la.LAExpr, row: Optional[Attr], col: Optional[Attr]) -> RExpr:
        """Lower ``node`` so that its free attributes are among ``{row, col}``."""
        if self.fuse is not None:
            fused = self.fuse(node)
            if fused is not None and expand_fused(fused) is not fused:
                return self._lower_fused(fused, row, col)
        if isinstance(node, la.Var):
            return self._lower_var(node, row, col)
        if isinstance(node, la.Literal):
            return RLit(node.value)
        if isinstance(node, la.FilledMatrix):
            return self._fill(node.value, node.fill_shape, row, col)
        if isinstance(node, la.Transpose):
            return self.lower(node.child, col, row)
        if isinstance(node, la.ElemMul):
            return rjoin(
                [
                    self._lower_operand(node.left, node.shape, row, col),
                    self._lower_operand(node.right, node.shape, row, col),
                ]
            )
        if isinstance(node, la.ElemPlus):
            return radd(
                [
                    self._lower_addend(node.left, node.shape, row, col),
                    self._lower_addend(node.right, node.shape, row, col),
                ]
            )
        if isinstance(node, la.ElemMinus):
            negated = rjoin(
                [RLit(-1.0), self._lower_addend(node.right, node.shape, row, col)]
            )
            return radd(
                [self._lower_addend(node.left, node.shape, row, col), negated]
            )
        if isinstance(node, la.Neg):
            return rjoin([RLit(-1.0), self.lower(node.child, row, col)])
        if isinstance(node, la.MatMul):
            return self._lower_matmul(node, row, col)
        if isinstance(node, la.RowSums):
            return self._lower_rowsums(node, row)
        if isinstance(node, la.ColSums):
            return self._lower_colsums(node, col)
        if isinstance(node, la.Sum):
            return self._lower_sum(node)
        if isinstance(node, la.CastScalar):
            return self.lower(node.child, None, None)
        if isinstance(node, la.Power):
            return self._lower_power(node, row, col)
        if isinstance(node, la.WSLoss):
            return self.lower(_expand_wsloss(node), row, col)
        if isinstance(node, la.SProp):
            return self.lower(_expand_sprop(node), row, col)
        if isinstance(node, la.MMChain):
            return self.lower(_expand_mmchain(node), row, col)
        raise LoweringError(
            f"{type(node).__name__} is outside the sum-product fragment; "
            "the optimizer should have treated it as a barrier"
        )

    # -- fused operators -----------------------------------------------------------
    def _lower_fused(self, fused: la.LAExpr, row: Optional[Attr], col: Optional[Attr]) -> RExpr:
        """The fused node over its lowered operands, equal to its definition.

        The definition is lowered once, over placeholder inputs; each
        distinct ``(operand, attributes)`` occurrence becomes one child of
        the node (``mmchain`` reads ``X`` along two index pairs, so it has two
        ``X`` children).  Literal operands stay inside the operator.
        """
        prototype = fused.with_children(
            [
                child if isinstance(child, la.Literal) else la.Var(f"{PLACEHOLDER}{k}", child.shape)
                for k, child in enumerate(fused.children)
            ]
        )
        saved, self.fuse = self.fuse, None
        raw = self.lower(expand_fused(prototype), row, col)
        self.fuse = saved
        #: (operand k, its attributes) -> child n, in first-occurrence order
        children: Dict[Tuple[int, Tuple[Attr, ...]], int] = {}
        for sub in raw.walk():
            if isinstance(sub, RVar) and sub.name.startswith(PLACEHOLDER):
                self.symbols.pop(sub.name, None)
                children.setdefault((int(sub.name[1:]), sub.attrs), len(children))

        def renumber(var: RVar) -> RExpr:
            if not var.name.startswith(PLACEHOLDER):
                return var
            return RVar(f"{PLACEHOLDER}{children[int(var.name[1:]), var.attrs]}", var.attrs)

        args: List[RExpr] = []
        operands: List[Optional[Tuple[int, Optional[str], Optional[str]]]] = [None] * len(
            fused.children
        )
        for (k, attrs), n in children.items():
            shape = fused.children[k].shape
            arg_row = None if shape.rows.is_unit else attrs[0]
            arg_col = None if shape.cols.is_unit else attrs[-1]
            args.append(self.lower(fused.children[k], arg_row, arg_col))
            if operands[k] is None:
                operands[k] = (n, _name(arg_row), _name(arg_col))
        template = substitute(raw, renumber)
        fusion = Fusion(prototype, template, tuple(operands), (_name(row), _name(col)))
        return RFused(fusion, tuple(args))

    # -- leaves ------------------------------------------------------------------
    def _note_dim(self, dim: Dim) -> None:
        """Record a leaf's dim, refusing one its attribute names would not name.

        The lift reads an attribute's dim back from its name
        (:func:`dim_of_attr`), so a dim name may not contain ``.`` and one
        name may not carry two sizes.
        """
        if "." in dim.name:
            raise LoweringError(f"dim name {dim.name!r} contains '.', reserved for attribute names")
        known = self.dims.get(dim.name)
        if known is None or known.size is None:
            self.dims[dim.name] = dim
        elif dim.size is not None and dim.size != known.size:
            raise LoweringError(f"dim {dim.name!r} has two sizes, {known.size} and {dim.size}")

    def _lower_var(self, node: la.Var, row: Optional[Attr], col: Optional[Attr]) -> RExpr:
        self.symbols.setdefault(node.name, node)
        attrs: List[Attr] = []
        shape = node.var_shape
        if not shape.rows.is_unit:
            if row is None:
                raise LoweringError(f"variable {node.name!r} has rows but no row attribute")
            self._note_dim(shape.rows)
            attrs.append(row.with_size(shape.rows.size))
        if not shape.cols.is_unit:
            if col is None:
                raise LoweringError(f"variable {node.name!r} has columns but no column attribute")
            self._note_dim(shape.cols)
            attrs.append(col.with_size(shape.cols.size))
        return RVar(node.name, tuple(attrs), node.sparsity)

    def _fill(self, value: float, shape: Shape, row: Optional[Attr], col: Optional[Attr]) -> RExpr:
        factors: List[RExpr] = [RLit(value)]
        if not shape.rows.is_unit and row is not None:
            factors.append(self._ones(row, shape.rows))
        if not shape.cols.is_unit and col is not None:
            factors.append(self._ones(col, shape.cols))
        return rjoin(factors)

    def _ones(self, attr: Attr, dim: Dim) -> RVar:
        self._note_dim(dim)
        name = f"{ONES_PREFIX}{dim.name}"
        self.ones_dims[name] = dim
        return RVar(name, (attr.with_size(dim.size),), 1.0)

    # -- element-wise operands (broadcasting) --------------------------------------
    def _lower_operand(
        self, node: la.LAExpr, result_shape: Shape, row: Optional[Attr], col: Optional[Attr]
    ) -> RExpr:
        """Lower an operand of an element-wise multiplication.

        Join handles broadcasting natively: a scalar or vector operand simply
        mentions fewer attributes than the result.
        """
        shape = node.shape
        operand_row = row if not shape.rows.is_unit else None
        operand_col = col if not shape.cols.is_unit else None
        return self.lower(node, operand_row, operand_col)

    def _lower_addend(
        self, node: la.LAExpr, result_shape: Shape, row: Optional[Attr], col: Optional[Attr]
    ) -> RExpr:
        """Lower an operand of an element-wise addition.

        Union requires union-compatible schemas, so operands that are smaller
        than the result (scalars, broadcast vectors) are padded by joining
        with all-ones tensors over the missing axes.
        """
        shape = node.shape
        lowered = self._lower_operand(node, result_shape, row, col)
        factors: List[RExpr] = [lowered]
        if shape.rows.is_unit and not result_shape.rows.is_unit and row is not None:
            factors.append(self._ones(row, result_shape.rows))
        if shape.cols.is_unit and not result_shape.cols.is_unit and col is not None:
            factors.append(self._ones(col, result_shape.cols))
        if len(factors) == 1:
            return lowered
        return rjoin(factors)

    # -- structural operators -------------------------------------------------------
    def _lower_matmul(self, node: la.MatMul, row: Optional[Attr], col: Optional[Attr]) -> RExpr:
        left_shape = node.left.shape
        right_shape = node.right.shape
        inner_dim = left_shape.cols if not left_shape.cols.is_unit else right_shape.rows
        if inner_dim.is_unit:
            # Outer product of a column vector and a row vector: no aggregation.
            left = self.lower(node.left, row, None)
            right = self.lower(node.right, None, col)
            return rjoin([left, right])
        join_attr = self.attrs.fresh(inner_dim)
        left = self.lower(node.left, row, join_attr)
        right = self.lower(node.right, join_attr, col)
        return rsum({join_attr}, rjoin([left, right]))

    def _lower_rowsums(self, node: la.RowSums, row: Optional[Attr]) -> RExpr:
        child_shape = node.child.shape
        if child_shape.cols.is_unit:
            return self.lower(node.child, row, None)
        agg_attr = self.attrs.fresh(child_shape.cols)
        return rsum({agg_attr}, self.lower(node.child, row, agg_attr))

    def _lower_colsums(self, node: la.ColSums, col: Optional[Attr]) -> RExpr:
        child_shape = node.child.shape
        if child_shape.rows.is_unit:
            return self.lower(node.child, None, col)
        agg_attr = self.attrs.fresh(child_shape.rows)
        return rsum({agg_attr}, self.lower(node.child, agg_attr, col))

    def _lower_sum(self, node: la.Sum) -> RExpr:
        child_shape = node.child.shape
        indices = []
        row_attr = None
        col_attr = None
        if not child_shape.rows.is_unit:
            row_attr = self.attrs.fresh(child_shape.rows)
            indices.append(row_attr)
        if not child_shape.cols.is_unit:
            col_attr = self.attrs.fresh(child_shape.cols)
            indices.append(col_attr)
        lowered = self.lower(node.child, row_attr, col_attr)
        return rsum(indices, lowered)

    def _lower_power(self, node: la.Power, row: Optional[Attr], col: Optional[Attr]) -> RExpr:
        exponent = node.exponent
        if exponent != int(exponent) or int(exponent) < 1:
            raise LoweringError(
                f"only positive integer powers are in the sum-product fragment, got {exponent}"
            )
        lowered = self.lower(node.child, row, col)
        return rjoin([lowered] * int(exponent))


def _name(attr: Optional[Attr]) -> Optional[str]:
    return None if attr is None else attr.name


# ---------------------------------------------------------------------------
# Fused-operator expansion (Sec. 3.3: a fused operator equals its definition.
# Lowering seeds each fusible node with its fused form over the lowered
# operands, the ``fuse`` rule puts that node in the definition's e-class, and
# lifting writes the definition back for ``fuse_operators`` to re-fuse.)
# ---------------------------------------------------------------------------


def _expand_wsloss(node: la.WSLoss) -> la.LAExpr:
    residual = la.ElemMinus(node.x, la.MatMul(node.u, la.Transpose(node.v)))
    squared = la.Power(residual, 2.0)
    if isinstance(node.w, la.Literal) and node.w.value == 1.0:
        return la.Sum(squared)
    return la.Sum(la.ElemMul(node.w, squared))


def _expand_sprop(node: la.SProp) -> la.LAExpr:
    one = la.Literal(1.0)
    return la.ElemMul(node.child, la.ElemMinus(one, node.child))


def _expand_mmchain(node: la.MMChain) -> la.LAExpr:
    inner = la.MatMul(node.x, node.v)
    if isinstance(node.w, la.Literal) and node.w.value == 1.0:
        weighted = inner
    else:
        weighted = la.ElemMul(node.w, inner)
    return la.MatMul(la.Transpose(node.x), weighted)


def expand_fused(node: la.LAExpr) -> la.LAExpr:
    """Expand a fused operator into its defining expression (identity otherwise)."""
    if isinstance(node, la.WSLoss):
        return _expand_wsloss(node)
    if isinstance(node, la.SProp):
        return _expand_sprop(node)
    if isinstance(node, la.MMChain):
        return _expand_mmchain(node)
    return node


#: Operator types that terminate a sum-product region (optimization barriers).
BARRIER_TYPES: Tuple[type, ...] = (la.UnaryFunc, la.ElemDiv, la.WCeMM, la.WDivMM)


def is_barrier(node: la.LAExpr) -> bool:
    """Whether ``node`` is an optimization barrier for the relational optimizer."""
    if isinstance(node, BARRIER_TYPES):
        return True
    if isinstance(node, la.Power):
        return node.exponent != int(node.exponent) or int(node.exponent) < 1
    return False
