"""Immutable LA expression nodes.

Every node is a frozen, hashable value object.  Structural sharing is
encouraged: building an expression that uses the same sub-expression twice
keeps a single Python object, and :mod:`repro.lang.dag` exploits ``id()``
sharing to detect common subexpressions the way SystemML's HOP DAG does.

The operator set follows Table 1 of the paper plus the extra operators the
evaluation workloads need:

==============  =====================================================
node            meaning
==============  =====================================================
``Var``         a named input matrix / vector / scalar
``Literal``     a scalar constant
``MatMul``      matrix multiplication ``A %*% B``
``ElemMul``     element-wise (Hadamard) multiplication ``A * B``
``ElemPlus``    element-wise addition ``A + B``
``ElemMinus``   element-wise subtraction ``A - B``
``ElemDiv``     element-wise division ``A / B``
``Transpose``   ``t(A)``
``RowMajor``    ``A`` stored row-major (a physical layout step)
``RowSums``     row aggregation ``rowSums(A)`` (M x N -> M x 1)
``ColSums``     column aggregation ``colSums(A)`` (M x N -> 1 x N)
``Sum``         full aggregation ``sum(A)`` (M x N -> 1 x 1)
``Power``       element-wise power with a constant exponent ``A ^ k``
``Neg``         unary minus ``-A``
``UnaryFunc``   element-wise math function (exp, log, sigmoid, ...)
``CastScalar``  ``as.scalar(A)`` for 1x1 matrices
``WSLoss``      fused weighted-squared-loss ``sum(W * (X - U %*% t(V))^2)``
``SProp``       fused sample proportion ``P * (1 - P)``
``MMChain``     fused matrix-multiply chain ``t(X) %*% (w * (X %*% v))``
==============  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import (
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Type,
    get_type_hints,
)

from repro.lang.dims import (
    SCALAR_SHAPE,
    DimensionError,
    Shape,
    UNIT,
    broadcast_shapes,
    matmul_shape,
    same_dim,
)


@dataclass(frozen=True)
class LAExpr:
    """Base class for all LA expression nodes.

    A concrete node type is declared with :func:`node`: the fields typed
    ``LAExpr`` are its children, every other field is its *static payload*
    (``Power.exponent``, ``UnaryFunc.func``...).  ``children``,
    ``with_children``, ``static`` and the :data:`NODE_TYPES` entry all follow
    from that one field list.
    """

    #: names of the child fields, in declaration order
    child_fields: ClassVar[Tuple[str, ...]] = ()
    #: ``(name, type)`` of every other field, in declaration order
    static_fields: ClassVar[Tuple[Tuple[str, type], ...]] = ()

    @property
    def shape(self) -> Shape:
        raise NotImplementedError

    # :func:`node` installs the per-class readers of these two
    @property
    def children(self) -> Tuple["LAExpr", ...]:
        return ()

    @property
    def static(self) -> tuple:
        """The static payload: the values of the non-child fields."""
        return ()

    def with_children(self, children: Sequence["LAExpr"]) -> "LAExpr":
        """Rebuild this node with new children (same arity and payload)."""
        names = self.child_fields
        if len(children) != len(names):
            raise ValueError(
                f"{type(self).__name__} takes {len(names)} children, got {len(children)}"
            )
        if not names:
            return self
        payload = {name: getattr(self, name) for name, _ in self.static_fields}
        return type(self)(**dict(zip(names, children)), **payload)

    # -- convenience operators -------------------------------------------------
    def __matmul__(self, other: "LAExpr") -> "LAExpr":
        return MatMul(self, _coerce(other))

    def __mul__(self, other) -> "LAExpr":
        return ElemMul(self, _coerce(other))

    def __rmul__(self, other) -> "LAExpr":
        return ElemMul(_coerce(other), self)

    def __add__(self, other) -> "LAExpr":
        return ElemPlus(self, _coerce(other))

    def __radd__(self, other) -> "LAExpr":
        return ElemPlus(_coerce(other), self)

    def __sub__(self, other) -> "LAExpr":
        return ElemMinus(self, _coerce(other))

    def __rsub__(self, other) -> "LAExpr":
        return ElemMinus(_coerce(other), self)

    def __truediv__(self, other) -> "LAExpr":
        return ElemDiv(self, _coerce(other))

    def __rtruediv__(self, other) -> "LAExpr":
        return ElemDiv(_coerce(other), self)

    def __pow__(self, exponent) -> "LAExpr":
        if not isinstance(exponent, (int, float)):
            raise TypeError("exponent must be a Python number")
        return Power(self, float(exponent))

    def __neg__(self) -> "LAExpr":
        return Neg(self)

    @property
    def T(self) -> "LAExpr":
        return Transpose(self)

    # -- structure helpers -----------------------------------------------------
    def walk(self) -> Iterator["LAExpr"]:
        """Yield this node and all descendants, depth first, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def size(self) -> int:
        """Number of operator nodes in the expression *tree* (with repeats)."""
        return 1 + sum(child.size() for child in self.children)

    def is_scalar(self) -> bool:
        return self.shape.is_scalar

    def pretty(self) -> str:
        """Render a DML-like string for the expression."""
        from repro.lang.printer import pretty

        return pretty(self)

    def __str__(self) -> str:
        return self.pretty()


#: Concrete node classes by operator name — the registry the plan codec
#: (:mod:`repro.serialize`) resolves node-table entries against.  An unknown
#: name in a stored plan is a deserialization error, never a silent fallback.
NODE_TYPES: Dict[str, Type[LAExpr]] = {}


def node(cls: Type[LAExpr]) -> Type[LAExpr]:
    """Declare a concrete node type: freeze it, read its fields, register it.

    The class becomes a frozen dataclass; its ``LAExpr``-typed fields become
    ``child_fields`` (and what ``children`` returns), the rest
    ``static_fields``.  An operator that executes also needs its row in
    :data:`repro.runtime.optable.OP_TABLE` — nothing else.

    Nodes key dicts all over the compile path and the generated ``__hash__``
    re-walks the subtree on every probe, so the hash is kept in the
    instance's ``__dict__`` after its first use (a node is never pickled:
    string hashes differ between processes).
    """
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def cached_hash(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = field_hash(self)
            return value

    cls.__hash__ = cached_hash
    hints = get_type_hints(cls)
    names = [spec.name for spec in fields(cls)]
    cls.child_fields = tuple(name for name in names if hints[name] is LAExpr)
    cls.static_fields = tuple((name, hints[name]) for name in names if hints[name] is not LAExpr)
    cls.children = _reader(cls.child_fields)
    cls.static = _reader(name for name, _ in cls.static_fields)
    NODE_TYPES[cls.__name__] = cls
    return cls


def _reader(names: Iterable[str]) -> property:
    """``property(lambda self: (self.<name>, ...))``.  ``children`` is read on
    the compile hot path, so the attribute reads are generated from the field
    names (the way ``dataclass`` generates ``__init__``) instead of looping
    over them per call."""
    reads = "".join(f"self.{name}, " for name in names)
    return property(eval(f"lambda self: ({reads})"))


def _coerce(value) -> LAExpr:
    if isinstance(value, LAExpr):
        return value
    if isinstance(value, (int, float)):
        return Literal(float(value))
    raise TypeError(f"cannot use {value!r} in an LA expression")


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


@node
class Var(LAExpr):
    """A named input matrix, vector or scalar.

    ``sparsity`` is an optional hint in ``[0, 1]`` (fraction of non-zero
    cells, SystemML's convention) used by the cost model.  ``pinned`` marks
    an input whose value stays the same object across runs (a solver's data
    ``X``): the cost model charges work that only pinned inputs determine
    once instead of per run.
    """

    name: str
    var_shape: Shape
    sparsity: Optional[float] = field(default=None, compare=False)
    pinned: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.sparsity is not None and not (0.0 <= self.sparsity <= 1.0):
            raise ValueError(f"sparsity of {self.name!r} must be in [0, 1]")

    @property
    def shape(self) -> Shape:
        return self.var_shape


@node
class Literal(LAExpr):
    """A scalar constant."""

    value: float

    @property
    def shape(self) -> Shape:
        return SCALAR_SHAPE


@node
class FilledMatrix(LAExpr):
    """A constant-filled matrix, DML's ``matrix(value, nrow, ncol)``.

    Used for ones-matrices introduced when broadcasting scalars into unions
    and for the ``matrix(0, ...)`` results of SystemML's empty-block
    rewrites.
    """

    value: float
    fill_shape: Shape

    @property
    def shape(self) -> Shape:
        return self.fill_shape


# ---------------------------------------------------------------------------
# Binary element-wise operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Binary(LAExpr):
    left: LAExpr
    right: LAExpr

    OP = "?"

    @property
    def shape(self) -> Shape:
        return broadcast_shapes(self.left.shape, self.right.shape, self.OP)


@node
class ElemMul(_Binary):
    """Element-wise multiplication ``A * B`` (with scalar/vector broadcast)."""

    OP = "*"


@node
class ElemPlus(_Binary):
    """Element-wise addition ``A + B``."""

    OP = "+"


@node
class ElemMinus(_Binary):
    """Element-wise subtraction ``A - B``."""

    OP = "-"


@node
class ElemDiv(_Binary):
    """Element-wise division ``A / B``."""

    OP = "/"


@node
class MatMul(LAExpr):
    """Matrix multiplication ``A %*% B``."""

    left: LAExpr
    right: LAExpr

    @property
    def shape(self) -> Shape:
        return matmul_shape(self.left.shape, self.right.shape)


# ---------------------------------------------------------------------------
# Unary structural operators
# ---------------------------------------------------------------------------


@node
class Transpose(LAExpr):
    """``t(A)``."""

    child: LAExpr

    @property
    def shape(self) -> Shape:
        return self.child.shape.transposed()


@node
class RowMajor(LAExpr):
    """``A`` stored row-major: a physical layout step, never written by users.

    An executable places it under a width-1 product that would otherwise read
    a pinned sparse operand column-major (:mod:`repro.runtime.layout`)."""

    child: LAExpr

    @property
    def shape(self) -> Shape:
        return self.child.shape


@node
class RowSums(LAExpr):
    """``rowSums(A)``: sum along columns, producing an M x 1 column vector."""

    child: LAExpr

    @property
    def shape(self) -> Shape:
        return Shape(self.child.shape.rows, UNIT)


@node
class ColSums(LAExpr):
    """``colSums(A)``: sum along rows, producing a 1 x N row vector."""

    child: LAExpr

    @property
    def shape(self) -> Shape:
        return Shape(UNIT, self.child.shape.cols)


@node
class Sum(LAExpr):
    """``sum(A)``: aggregate every cell into a scalar."""

    child: LAExpr

    @property
    def shape(self) -> Shape:
        return SCALAR_SHAPE


@node
class Power(LAExpr):
    """Element-wise power with a constant exponent ``A ^ k``."""

    child: LAExpr
    exponent: float

    @property
    def shape(self) -> Shape:
        return self.child.shape


@node
class Neg(LAExpr):
    """Unary minus ``-A``."""

    child: LAExpr

    @property
    def shape(self) -> Shape:
        return self.child.shape


#: Element-wise functions the runtime knows how to evaluate.
UNARY_FUNCS = ("exp", "log", "sqrt", "abs", "sign", "sigmoid", "round")


@node
class UnaryFunc(LAExpr):
    """An element-wise math function such as ``exp`` or ``sigmoid``."""

    func: str
    child: LAExpr

    def __post_init__(self) -> None:
        if self.func not in UNARY_FUNCS:
            raise ValueError(f"unknown unary function {self.func!r}")

    @property
    def shape(self) -> Shape:
        return self.child.shape


@node
class CastScalar(LAExpr):
    """``as.scalar(A)``: reinterpret a 1x1 matrix as a scalar."""

    child: LAExpr

    @property
    def shape(self) -> Shape:
        return SCALAR_SHAPE


# ---------------------------------------------------------------------------
# Fused operators (SystemML-style)
# ---------------------------------------------------------------------------


@node
class WSLoss(LAExpr):
    """Fused weighted-squared loss: ``sum(W * (X - U %*% t(V))^2)``.

    The weight ``W`` may be ``None`` (``Literal(1.0)``) for the unweighted
    variant; SystemML's ``wsloss`` supports both.  The fused operator never
    materialises ``U %*% t(V)`` and streams over the non-zeros of ``X``.
    """

    x: LAExpr
    u: LAExpr
    v: LAExpr
    w: LAExpr

    @property
    def shape(self) -> Shape:
        return SCALAR_SHAPE


@node
class WCeMM(LAExpr):
    """Fused weighted cross-entropy: ``sum(X * log(U %*% V))``.

    SystemML's ``wcemm`` operator: because ``X`` is sparse, only the cells of
    ``U %*% V`` at ``X``'s non-zeros are ever computed, so the dense low-rank
    product is never materialised.
    """

    x: LAExpr
    u: LAExpr
    v: LAExpr

    @property
    def shape(self) -> Shape:
        return SCALAR_SHAPE


@node
class WDivMM(LAExpr):
    """Fused weighted-division matrix multiply (SystemML's ``wdivmm``).

    ``multiply_left=True`` computes ``t(U) %*% (X / (U %*% V))`` and
    ``multiply_left=False`` computes ``(X / (U %*% V)) %*% t(V)``; either
    way the dense product ``U %*% V`` is only evaluated at the non-zeros of
    the sparse matrix ``X``.
    """

    x: LAExpr
    u: LAExpr
    v: LAExpr
    multiply_left: bool

    @property
    def shape(self) -> Shape:
        if self.multiply_left:
            return Shape(self.u.shape.cols, self.v.shape.cols)
        return Shape(self.u.shape.rows, self.v.shape.rows)


@node
class SProp(LAExpr):
    """Fused sample-proportion operator: ``P * (1 - P)``."""

    child: LAExpr

    @property
    def shape(self) -> Shape:
        return self.child.shape


@node
class MMChain(LAExpr):
    """Fused matrix-multiply chain ``t(X) %*% (w * (X %*% v))``.

    ``w`` may be ``Literal(1.0)`` for the unweighted chain
    ``t(X) %*% (X %*% v)``.  SystemML executes this without materialising
    ``X %*% v`` twice and without transposing ``X``.
    """

    x: LAExpr
    v: LAExpr
    w: LAExpr

    @property
    def shape(self) -> Shape:
        x_shape = self.x.shape
        v_shape = self.v.shape
        if not same_dim(x_shape.rows, v_shape.rows) and not same_dim(x_shape.cols, v_shape.rows):
            raise DimensionError("mmchain: v must be conformable with X")
        return Shape(x_shape.cols, v_shape.cols)


def is_constant(expr: LAExpr) -> bool:
    """Whether ``expr`` is a literal scalar constant."""
    return isinstance(expr, Literal)


def literal_value(expr: LAExpr) -> Optional[float]:
    """The value of a literal, or ``None`` for non-literals."""
    if isinstance(expr, Literal):
        return expr.value
    return None
