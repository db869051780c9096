"""RA (RPlan) expression nodes.

The node set mirrors Table 1 of the paper:

* :class:`RVar` — a named input tensor bound to a list of attributes
  (``bind`` fused into the leaf).
* :class:`RLit` — a scalar constant, i.e. a relation of arity zero.
* :class:`RJoin` — n-ary natural join ``*`` (element-wise multiply of
  multiplicities on matching attribute values).
* :class:`RAdd` — n-ary union ``+`` (addition of multiplicities).
* :class:`RSum` — group-by aggregation ``Σ_U`` over a set of attributes.
* :class:`RFused` — a fused LA operator over its operands, equal to its
  definition (Sec. 3.3); every other layer reads it through
  :attr:`RFused.definition`.

All nodes are frozen and hashable so they can live in sets, dictionaries and
the e-graph hashcons.  Joins and unions keep their arguments in a canonical
sorted order (both operators are associative and commutative — rules 6 and 7
of R_EQ) which makes structural equality insensitive to argument order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

from repro.ra.attrs import Attr


@dataclass(frozen=True)
class RExpr:
    """Base class for RA expression nodes."""

    @property
    def children(self) -> Tuple["RExpr", ...]:
        return ()

    def with_children(self, children: Sequence["RExpr"]) -> "RExpr":
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    def walk(self) -> Iterator["RExpr"]:
        """Yield this node and all descendants (pre-order, with repeats)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)


@dataclass(frozen=True)
class RVar(RExpr):
    """A named input tensor bound to attributes, e.g. ``X(i, j)``.

    ``attrs`` lists the attributes in axis order: ``(row_attr, col_attr)``
    for a matrix, a single attribute for a vector, and the empty tuple for a
    scalar input.
    """

    name: str
    attrs: Tuple[Attr, ...]
    sparsity: Optional[float] = None

    def __post_init__(self) -> None:
        names = [attr.name for attr in self.attrs]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate attribute in RVar {self.name!r}: {names}")

    def __hash__(self) -> int:
        return hash((self.name, self.attrs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RVar):
            return NotImplemented
        return self.name == other.name and self.attrs == other.attrs


@dataclass(frozen=True)
class RLit(RExpr):
    """A scalar constant: a K-relation of arity zero."""

    value: float


@dataclass(frozen=True)
class RJoin(RExpr):
    """N-ary natural join (``*``).  Arguments are kept sorted canonically."""

    args: Tuple[RExpr, ...]

    @property
    def children(self) -> Tuple[RExpr, ...]:
        return self.args

    def with_children(self, children: Sequence[RExpr]) -> RExpr:
        return rjoin(children)


@dataclass(frozen=True)
class RAdd(RExpr):
    """N-ary union (``+``).  Arguments are kept sorted canonically."""

    args: Tuple[RExpr, ...]

    @property
    def children(self) -> Tuple[RExpr, ...]:
        return self.args

    def with_children(self, children: Sequence[RExpr]) -> RExpr:
        return radd(children)


@dataclass(frozen=True)
class RSum(RExpr):
    """Group-by aggregation ``Σ_indices child``."""

    indices: FrozenSet[Attr]
    child: RExpr

    @property
    def children(self) -> Tuple[RExpr, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[RExpr]) -> RExpr:
        (child,) = children
        return rsum(self.indices, child)


#: name prefix of the placeholder leaves of a :class:`Fusion` template
PLACEHOLDER = "#"


@dataclass(frozen=True)
class Fusion:
    """What a fused node computes: the payload of :class:`RFused` and of the
    ``fused`` e-node.

    ``op`` is the LA fused operator (``WSLoss``, ``MMChain``, ``SProp``) over
    placeholder inputs; this layer never looks inside it.  ``template`` is
    its definition in RA over one placeholder leaf ``RVar("#n", attrs)`` per
    child ``n`` of the node.  ``operands[k]`` is ``(n, row, col)``: child
    ``n`` carries the LA operator's ``k``-th child with its rows and columns
    along attributes ``row`` and ``col`` (``None`` for a literal child, which
    stays inside ``op``); ``out`` names the result's row and column
    attributes the same way.
    """

    op: Hashable
    template: "RExpr"
    operands: Tuple[Optional[Tuple[int, Optional[str], Optional[str]]], ...]
    out: Tuple[Optional[str], Optional[str]]

    @property
    def name(self) -> str:
        return type(self.op).__name__.lower()

    @cached_property
    def schema(self) -> FrozenSet[Attr]:
        return free_attrs(self.template)

    @cached_property
    def bound(self) -> FrozenSet[str]:
        """Index names the definition binds around its operands."""
        return frozenset(a.name for a in all_indices(self.template)) - {
            a.name for a in self.schema
        }

    @cached_property
    def key(self) -> Tuple[str, ...]:
        """Deterministic ordering key (no hashes, no object ids)."""
        return (self.name, pretty(self.template), repr(self.operands), repr(self.out))

    def renamed(self, mapping: Dict[str, Attr]) -> "Fusion":
        def rename(name: Optional[str]) -> Optional[str]:
            return mapping[name].name if name in mapping else name

        operands = tuple(
            None if operand is None else (operand[0], rename(operand[1]), rename(operand[2]))
            for operand in self.operands
        )
        return Fusion(
            self.op,
            rename_attrs(self.template, mapping),
            operands,
            (rename(self.out[0]), rename(self.out[1])),
        )


@dataclass(frozen=True)
class RFused(RExpr):
    """A fused operator applied to its operands: the value of its definition."""

    fusion: Fusion
    args: Tuple[RExpr, ...]

    @property
    def children(self) -> Tuple[RExpr, ...]:
        return self.args

    def with_children(self, children: Sequence[RExpr]) -> RExpr:
        return RFused(self.fusion, tuple(children))

    @cached_property
    def definition(self) -> RExpr:
        """The template with the operands substituted for its placeholders."""
        args = self.args
        return substitute(
            self.fusion.template,
            lambda var: args[int(var.name[1:])] if var.name.startswith(PLACEHOLDER) else var,
        )


@dataclass(frozen=True)
class RPlanOutput:
    """A complete RPlan: an RA body plus the unbind (output orientation).

    ``row_attr`` / ``col_attr`` say which free attribute of ``body`` maps to
    the rows / columns of the LA result; ``None`` means the corresponding
    axis has extent one (the result is a vector or a scalar).
    """

    body: RExpr
    row_attr: Optional[Attr]
    col_attr: Optional[Attr]

    def free_attrs(self) -> FrozenSet[Attr]:
        return free_attrs(self.body)


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def _sort_key(node: RExpr) -> tuple:
    """A deterministic ordering key for canonicalising n-ary arguments."""
    if isinstance(node, RLit):
        return (0, repr(node.value))
    if isinstance(node, RVar):
        return (1, node.name, tuple(a.name for a in node.attrs))
    if isinstance(node, RSum):
        return (2, tuple(sorted(a.name for a in node.indices)), _sort_key(node.child))
    if isinstance(node, RJoin):
        return (3, tuple(_sort_key(a) for a in node.args))
    if isinstance(node, RAdd):
        return (4, tuple(_sort_key(a) for a in node.args))
    if isinstance(node, RFused):
        # as its definition: seeding or extracting the fused form reorders nothing
        return _sort_key(node.definition)
    raise TypeError(f"unknown RA node {type(node).__name__}")


def rjoin(args: Iterable[RExpr]) -> RExpr:
    """Build a natural join, flattening nested joins and folding literals.

    A single argument is returned unchanged; multiplying by the literal 1 is
    dropped; nested joins are flattened (rule 7: associativity).
    """
    flat: list[RExpr] = []
    literal = 1.0
    worklist = list(args)
    while worklist:
        arg = worklist.pop()
        if isinstance(arg, RJoin):
            worklist.extend(arg.args)
        elif isinstance(arg, RLit):
            literal *= arg.value
        else:
            flat.append(arg)
    if literal != 1.0 or not flat:
        flat.append(RLit(literal))
    flat.sort(key=_sort_key)
    if len(flat) == 1:
        return flat[0]
    return RJoin(tuple(flat))


def radd(args: Iterable[RExpr]) -> RExpr:
    """Build a union, flattening nested unions and folding literals."""
    flat: list[RExpr] = []
    literal = 0.0
    has_literal = False
    for arg in args:
        if isinstance(arg, RAdd):
            for inner in arg.args:
                if isinstance(inner, RLit):
                    literal += inner.value
                    has_literal = True
                else:
                    flat.append(inner)
        elif isinstance(arg, RLit):
            literal += arg.value
            has_literal = True
        else:
            flat.append(arg)
    if has_literal and (literal != 0.0 or not flat):
        flat.append(RLit(literal))
    if not flat:
        return RLit(0.0)
    flat.sort(key=_sort_key)
    if len(flat) == 1:
        return flat[0]
    return RAdd(tuple(flat))


def rsum(indices: Iterable[Attr], child: RExpr) -> RExpr:
    """Build an aggregation, merging nested sums and dropping empty ones."""
    index_set = frozenset(indices)
    if not index_set:
        return child
    if isinstance(child, RSum):
        return rsum(index_set | child.indices, child.child)
    return RSum(index_set, child)


# ---------------------------------------------------------------------------
# Schema queries
# ---------------------------------------------------------------------------


def free_attrs(node: RExpr) -> FrozenSet[Attr]:
    """The free attributes (schema) of an RA expression."""
    if isinstance(node, RVar):
        return frozenset(node.attrs)
    if isinstance(node, RLit):
        return frozenset()
    if isinstance(node, RJoin):
        result: FrozenSet[Attr] = frozenset()
        for arg in node.args:
            result |= free_attrs(arg)
        return result
    if isinstance(node, RAdd):
        result = frozenset()
        for arg in node.args:
            result |= free_attrs(arg)
        return result
    if isinstance(node, RSum):
        return free_attrs(node.child) - node.indices
    if isinstance(node, RFused):
        return node.fusion.schema
    raise TypeError(f"unknown RA node {type(node).__name__}")


def all_indices(node: RExpr) -> FrozenSet[Attr]:
    """Every attribute mentioned anywhere (free or bound by an aggregate)."""
    if isinstance(node, RVar):
        return frozenset(node.attrs)
    if isinstance(node, RLit):
        return frozenset()
    if isinstance(node, (RJoin, RAdd)):
        result: FrozenSet[Attr] = frozenset()
        for arg in node.args:
            result |= all_indices(arg)
        return result
    if isinstance(node, RSum):
        return all_indices(node.child) | node.indices
    if isinstance(node, RFused):
        result = all_indices(node.fusion.template)
        for arg in node.args:
            result |= all_indices(arg)
        return result
    raise TypeError(f"unknown RA node {type(node).__name__}")


def rename_attrs(node: RExpr, mapping: Dict[str, Attr]) -> RExpr:
    """Rename attributes throughout an RA expression (capture-naive).

    The caller is responsible for choosing a mapping that does not capture:
    this helper renames both free and bound occurrences uniformly and is used
    by the translator (which generates globally unique names) and by the
    canonicalizer (which renames bound indices apart before merging scopes).
    """
    if isinstance(node, RVar):
        new_attrs = tuple(mapping.get(a.name, a) for a in node.attrs)
        return RVar(node.name, new_attrs, node.sparsity)
    if isinstance(node, RLit):
        return node
    if isinstance(node, RJoin):
        return rjoin(rename_attrs(a, mapping) for a in node.args)
    if isinstance(node, RAdd):
        return radd(rename_attrs(a, mapping) for a in node.args)
    if isinstance(node, RSum):
        new_indices = frozenset(mapping.get(a.name, a) for a in node.indices)
        return RSum(new_indices, rename_attrs(node.child, mapping))
    if isinstance(node, RFused):
        return RFused(
            node.fusion.renamed(mapping), tuple(rename_attrs(a, mapping) for a in node.args)
        )
    raise TypeError(f"unknown RA node {type(node).__name__}")


def substitute(node: RExpr, leaf: Callable[[RVar], RExpr]) -> RExpr:
    """Replace every :class:`RVar` leaf by ``leaf(var)``, rebuilding through
    the smart constructors (a substituted join flattens into its parent)."""
    if isinstance(node, RVar):
        return leaf(node)
    if isinstance(node, RLit):
        return node
    if isinstance(node, RJoin):
        return rjoin(substitute(a, leaf) for a in node.args)
    if isinstance(node, RAdd):
        return radd(substitute(a, leaf) for a in node.args)
    if isinstance(node, RSum):
        return rsum(node.indices, substitute(node.child, leaf))
    if isinstance(node, RFused):
        return RFused(node.fusion, tuple(substitute(a, leaf) for a in node.args))
    raise TypeError(f"unknown RA node {type(node).__name__}")


def unfused(node: RExpr) -> RExpr:
    """``node`` with every fused node replaced by its definition.

    Only the ancestors of a fused node are rebuilt; a subtree without one is
    returned as is, raw nesting included.
    """
    if isinstance(node, RFused):
        return unfused(node.definition)
    children = [unfused(child) for child in node.children]
    if all(new is old for new, old in zip(children, node.children)):
        return node
    return node.with_children(children)


def pretty(node: RExpr) -> str:
    """Render an RA expression as readable text."""
    if isinstance(node, RVar):
        if not node.attrs:
            return node.name
        return f"{node.name}({', '.join(a.name for a in node.attrs)})"
    if isinstance(node, RLit):
        value = node.value
        return str(int(value)) if value == int(value) else repr(value)
    if isinstance(node, RJoin):
        return " * ".join(_wrap(a) for a in node.args)
    if isinstance(node, RAdd):
        return " + ".join(_wrap(a) for a in node.args)
    if isinstance(node, RSum):
        names = ",".join(sorted(a.name for a in node.indices))
        return f"Σ_{{{names}}}[{pretty(node.child)}]"
    if isinstance(node, RFused):
        return f"{node.fusion.name}({', '.join(pretty(a) for a in node.args)})"
    raise TypeError(f"unknown RA node {type(node).__name__}")


def _wrap(node: RExpr) -> str:
    text = pretty(node)
    if isinstance(node, (RJoin, RAdd)):
        return f"({text})"
    return text
