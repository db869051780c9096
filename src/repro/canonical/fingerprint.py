"""Canonical structural fingerprints for LA expressions.

The Session API (:mod:`repro.api`) caches compiled plans across requests.
Two requests should share a plan whenever their expressions are the *same
shape of computation* — identical operator trees over inputs that may be
named differently but have the same dimension sizes and sparsity hints.
That is exactly the spirit of the canonical-form machinery in this package
(:mod:`repro.canonical.normal_form` renames bound indices apart and decides
equality up to index bijections); here we apply the same name-abstraction
idea one level up, to the LA expression itself:

* every input :class:`~repro.lang.expr.Var` is abstracted to a **slot**,
  numbered by first occurrence in a deterministic pre-order walk;
* every symbolic :class:`~repro.lang.dims.Dim` is likewise abstracted to a
  numbered dimension slot carrying only its concrete size;
* the operator structure, literal payloads, dimension sizes and sparsity
  hints are serialized into a token stream whose SHA-256 digest is the
  **fingerprint**.

Renaming inputs or dimensions therefore does not change the fingerprint
(``sum((X - u v^T)^2)`` and ``sum((A - b c^T)^2)`` collide on purpose, and
the slot metadata lets the plan cache rebind the new names), while changing
a dimension size, a sparsity hint, an exponent or any operator does.

Since the plan-template refactor the signature actually carries **two**
digests computed in one walk:

* ``digest`` — the *instance* digest described above: structure + concrete
  dimension sizes + exact sparsity hints.  This remains the exact-match
  plan-cache key.
* ``template_digest`` — the *size-free* digest: dimension slots carry no
  concrete size and each input's sparsity hint is abstracted to its
  :func:`sparsity_band` (the order-of-magnitude regime the cost model's
  decisions actually depend on).  Every point of a size ladder of the same
  workload shares one template digest; a compiled plan guarded by a
  :class:`repro.optimizer.guards.TemplateGuard` can then serve the whole
  ladder through cheap size re-pinning (:func:`rebind_dim_sizes`) instead
  of one saturation run per size.

The fingerprint is deliberately *structural*, not semantic: two expressions
that equality saturation would prove equal (e.g. ``sum(W H)`` and
``colSums(W) rowSums(H)``) keep distinct fingerprints — each compiles to
its own plan, which then converge inside the e-graph.  Deciding semantic
equality up front would require the very saturation the cache exists to
skip; :func:`repro.canonical.equivalent` remains the oracle for that.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.lang import dag
from repro.lang import expr as la
from repro.lang.dims import Dim, Shape

#: sparsity at or above which an input is considered dense for banding
DENSE_BAND_THRESHOLD = 0.5


def sparsity_band(sparsity: Optional[float]) -> str:
    """The order-of-magnitude sparsity regime a hint falls into.

    Bands — ``dense`` (no hint, or >= :data:`DENSE_BAND_THRESHOLD`),
    ``empty`` (<= 0), or ``e<k>`` for hints in ``[10^k, 10^(k+1))`` — are
    what the *template* digest keys on instead of the exact hint: the
    rewrites equality saturation picks are driven by which regime an input
    is in (dense vs. 1% vs. 0.01%), not by whether the hint reads 0.01 or
    0.02, so two size-ladder points of one workload share a template as
    long as each input stays in its band.
    """
    if sparsity is None or sparsity >= DENSE_BAND_THRESHOLD:
        return "dense"
    if sparsity <= 0.0:
        return "empty"
    return f"e{math.floor(math.log10(sparsity))}"


@dataclass(frozen=True)
class SlotSpec:
    """Metadata of one input slot of a fingerprinted expression.

    ``name`` is the variable name the *fingerprinted* expression used; it is
    not part of the digest (slots are name-free) but lets error messages and
    rebinding talk about the request's own names.  ``rows``/``cols`` are the
    concrete sizes when known, ``sparsity`` the cost-model hint the plan was
    compiled under (``None`` means "assumed dense").
    """

    index: int
    name: str
    rows: Optional[int]
    cols: Optional[int]
    sparsity: Optional[float]
    #: symbolic dimension names (``None`` for the unit dim); not part of the
    #: digest — they let binding check that inputs sharing an unsized dim
    #: agree on its runtime size
    row_dim: Optional[str] = None
    col_dim: Optional[str] = None
    #: the input is pinned (same object across runs); in the digest only when set
    pinned: bool = False

    @property
    def cells(self) -> Optional[int]:
        if self.rows is None or self.cols is None:
            return None
        return self.rows * self.cols

    @property
    def expected_nnz(self) -> Optional[float]:
        """Non-zeros the cost model assumed for this input."""
        cells = self.cells
        if cells is None:
            return None
        return cells * (self.sparsity if self.sparsity is not None else 1.0)

    def describe(self) -> str:
        rows = "?" if self.rows is None else str(self.rows)
        cols = "?" if self.cols is None else str(self.cols)
        hint = "dense" if self.sparsity is None else f"sparsity={self.sparsity:g}"
        pinned = ", pinned" if self.pinned else ""
        return f"slot {self.index} ({self.name!r}: {rows}x{cols}, {hint}{pinned})"


@dataclass(frozen=True)
class ExprSignature:
    """The canonical identity of an LA expression.

    ``digest`` is the exact-match cache key: equal digests mean "same
    computation shape, same size/sparsity regime".  ``template_digest`` is
    the size-free key one level up: equal template digests mean "same
    computation shape, same sparsity *bands*, any dimension sizes" — the
    unit a guarded plan template serves.  ``slots`` describes the inputs in
    slot order; ``var_order`` repeats their names for convenient rebinding;
    ``dim_names``/``dim_sizes`` list the expression's symbolic dimensions in
    canonical (first-occurrence) slot order, which is what guards record
    and what instance specialization re-pins.
    """

    digest: str
    slots: Tuple[SlotSpec, ...]
    #: size-free digest shared by every size-ladder point of this shape
    template_digest: str = ""
    #: this expression's own dimension names, in canonical dim-slot order
    #: (not part of any digest — they let guards and ``instantiate`` talk
    #: about dims in the request's vocabulary)
    dim_names: Tuple[str, ...] = ()
    #: concrete sizes per canonical dim slot (``None`` = symbolic)
    dim_sizes: Tuple[Optional[int], ...] = ()

    @property
    def var_order(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.slots)

    @property
    def slot_of(self) -> Dict[str, int]:
        return {spec.name: spec.index for spec in self.slots}


def signature_of(expr: la.LAExpr) -> ExprSignature:
    """Compute the canonical fingerprint and slot layout of ``expr``.

    The digest is built bottom-up over the expression *DAG*: every node's
    digest hashes its operator token and its children's digests, memoized
    by object identity.  An iteratively built expression with heavy sharing
    (``e = e * e`` k times) therefore fingerprints in O(distinct nodes) —
    the IR's own recursive ``__hash__``/``__eq__`` are never invoked, which
    matters because this is the cache-probe fast path that must stay cheap
    even for shapes the optimizer would take seconds on.  Because each
    digest is a pure function of structure, value-equal subtrees reach the
    same digest whether or not the builder shared the Python object, so
    the fingerprint is canonical across sharing styles as well as names.
    """
    dim_slots: Dict[str, int] = {}
    dim_names: List[str] = []
    dim_sizes: List[Optional[int]] = []
    var_slots: Dict[str, int] = {}
    specs: List[SlotSpec] = []
    #: per-node ``(instance, template)`` digest pairs memoized by id(); all
    #: nodes stay alive via the root's child references, so ids cannot be
    #: recycled during the walk
    memo: Dict[int, Tuple[str, str]] = {}

    def dim_tokens(dim: Dim) -> Tuple[str, str]:
        """``(instance, template)`` tokens: the template one is size-free."""
        if dim.is_unit:
            return "u", "u"
        slot = dim_slots.get(dim.name)
        if slot is None:
            slot = len(dim_slots)
            dim_slots[dim.name] = slot
            dim_names.append(dim.name)
            dim_sizes.append(dim.size)
        size = "?" if dim.size is None else str(dim.size)
        return f"d{slot}:{size}", f"d{slot}"

    def digest_of(payload: str) -> str:
        return hashlib.sha256(payload.encode()).hexdigest()

    def visit(node: la.LAExpr) -> Tuple[str, str]:
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, la.Var):
            if node.name not in var_slots:
                slot = len(var_slots)
                var_slots[node.name] = slot
                specs.append(
                    SlotSpec(
                        index=slot,
                        name=node.name,
                        rows=node.shape.rows.size,
                        cols=node.shape.cols.size,
                        sparsity=node.sparsity,
                        row_dim=None if node.shape.rows.is_unit else node.shape.rows.name,
                        col_dim=None if node.shape.cols.is_unit else node.shape.cols.name,
                        pinned=node.pinned,
                    )
                )
            slot = var_slots[node.name]
            shape = node.shape
            rows_i, rows_t = dim_tokens(shape.rows)
            cols_i, cols_t = dim_tokens(shape.cols)
            sparsity = "-" if node.sparsity is None else repr(node.sparsity)
            pinned = ",pinned" if node.pinned else ""
            result = (
                digest_of(f"V{slot}[{rows_i},{cols_i},{sparsity}{pinned}]"),
                digest_of(f"V{slot}[{rows_t},{cols_t},{sparsity_band(node.sparsity)}{pinned}]"),
            )
        elif isinstance(node, la.Literal):
            token = digest_of(f"L{node.value!r}")
            result = (token, token)
        elif isinstance(node, la.FilledMatrix):
            rows_i, rows_t = dim_tokens(node.fill_shape.rows)
            cols_i, cols_t = dim_tokens(node.fill_shape.cols)
            result = (
                digest_of(f"F{node.value!r}[{rows_i},{cols_i}]"),
                digest_of(f"F{node.value!r}[{rows_t},{cols_t}]"),
            )
        else:
            pairs = [visit(child) for child in node.children]
            op = _op_token(node)
            result = (
                digest_of(f"{op}({','.join(pair[0] for pair in pairs)})"),
                digest_of(f"{op}({','.join(pair[1] for pair in pairs)})"),
            )
        memo[id(node)] = result
        return result

    digest, template_digest = visit(expr)
    return ExprSignature(
        digest=digest,
        slots=tuple(specs),
        template_digest=template_digest,
        dim_names=tuple(dim_names),
        dim_sizes=tuple(dim_sizes),
    )


def fingerprint(expr: la.LAExpr) -> str:
    """The bare canonical digest of ``expr`` (shortcut for the cache key)."""
    return signature_of(expr).digest


def store_key(digest: str, format_version: int, config_digest: str = "") -> str:
    """Salt a canonical fingerprint into a persistent plan-store key.

    The on-disk plan store (:mod:`repro.serialize.store`) names entries by
    this key rather than the bare expression fingerprint: the serialization
    format version and the digest of the optimizer configuration are folded
    into the hash, so a codec change or a config change can never resurrect
    an incompatible artifact — the stale entry's key simply never matches
    again and the plan recompiles (and is re-stored under the new key).
    """
    payload = f"spores-plan-store:{format_version}:{config_digest}:{digest}"
    return hashlib.sha256(payload.encode()).hexdigest()


def _op_token(node: la.LAExpr) -> str:
    """Operator token including the static payload (``Power:2.0``,
    ``UnaryFunc:exp``, ``WDivMM:1``): strings bare, flags as 0/1, numbers by
    ``repr`` — the spellings every stored digest was computed with."""
    parts = [type(node).__name__]
    for value in node.static:
        if isinstance(value, str):
            parts.append(value)
        else:
            parts.append(str(int(value)) if isinstance(value, bool) else repr(value))
    return ":".join(parts)


#: prefix of slot-space variable names; kept un-parseable as an identifier on
#: purpose so slot expressions are never confused with user expressions
SLOT_PREFIX = "@"


def slot_var_name(index: int) -> str:
    """Name of the slot-space variable bound to slot ``index``."""
    return f"{SLOT_PREFIX}{index}"


def slot_dim_name(index: int) -> str:
    """Name of the canonical dimension bound to dim slot ``index``.

    Matches the numbering :func:`slot_expression` assigns (first occurrence
    over the leaves) and the order of :attr:`ExprSignature.dim_names` /
    ``dim_sizes`` — the invariant template specialization relies on when it
    re-pins a slot plan's sizes from an instance signature.
    """
    return f"{SLOT_PREFIX}d{index}"


def rebind_dim_sizes(
    expr: la.LAExpr, sizes: Mapping[str, Optional[int]]
) -> la.LAExpr:
    """Rebuild ``expr`` with the named dimensions re-pinned to new sizes.

    This is the cheap half of cross-size plan templates: a compiled (slot-
    space or named) plan is a pure function of its *structure*, so serving a
    new point of a size ladder only requires rewriting the ``Dim`` sizes
    carried by ``Var`` and ``FilledMatrix`` leaves — one linear DAG walk —
    instead of re-running saturation.  Dims not named in ``sizes`` are kept;
    structural sharing is preserved (memoized by object identity, because
    ``Dim`` equality deliberately ignores sizes and a value-equality memo
    would silently drop the resized leaves).
    """
    memo: Dict[int, la.LAExpr] = {}
    #: pins node ids for the memo's lifetime
    keep_alive: List[la.LAExpr] = []

    def new_dim(dim: Dim) -> Dim:
        if dim.is_unit or dim.name not in sizes:
            return dim
        size = sizes[dim.name]
        return dim if dim.size == size else Dim(dim.name, size)

    def visit(node: la.LAExpr) -> la.LAExpr:
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        keep_alive.append(node)
        if isinstance(node, la.Var):
            shape = Shape(new_dim(node.var_shape.rows), new_dim(node.var_shape.cols))
            result: la.LAExpr = la.Var(node.name, shape, node.sparsity, node.pinned)
        elif isinstance(node, la.FilledMatrix):
            shape = Shape(new_dim(node.fill_shape.rows), new_dim(node.fill_shape.cols))
            result = la.FilledMatrix(node.value, shape)
        elif node.children:
            result = node.with_children([visit(child) for child in node.children])
        else:
            result = node
        memo[id(node)] = result
        return result

    return visit(expr)


def slot_expression(expr: la.LAExpr, signature: Optional[ExprSignature] = None) -> la.LAExpr:
    """Rewrite ``expr`` into slot space: every name abstracted to its slot.

    The result is name-free — two renamed-but-isomorphic expressions map to
    the *same* slot expression — which is what the plan cache stores and the
    runtime executes against a positional slot vector
    (:func:`repro.runtime.execute_slots`).  Input variables are renamed to
    their slots, symbolic dimensions to numbered dims (sizes preserved, so
    ``FilledMatrix`` nodes stay executable), and sparsity hints are kept.
    """
    signature = signature or signature_of(expr)
    slot_of = signature.slot_of

    # Dim canonicalization *from the signature*: a dim always maps to its
    # signature slot (``@d<i>`` in ``dim_names`` order), so the slot plan's
    # numbering matches ``ExprSignature.dim_sizes`` even when ``expr`` is an
    # optimized plan whose rewrites reordered the leaves (e.g. a matmul
    # chain lifted as ``t(C) t(B) t(A)``) — the invariant template
    # specialization's size re-pinning depends on.  The lift only ever
    # resolves an index to a dim of the lowered expression, so a plan has
    # no dim its source's signature lacks.
    dim_map: Dict[str, Dim] = {
        name: Dim(slot_dim_name(index), size)
        for index, (name, size) in enumerate(
            zip(signature.dim_names, signature.dim_sizes)
        )
    }

    def canonical_dim(dim: Dim) -> Dim:
        if dim.is_unit:
            return dim
        if dim.name not in dim_map:
            raise ValueError(f"dim {dim.name!r} is not one of the signature's")
        return dim_map[dim.name]

    def rebuild(node: la.LAExpr) -> la.LAExpr:
        if isinstance(node, la.Var):
            shape = Shape(canonical_dim(node.var_shape.rows), canonical_dim(node.var_shape.cols))
            name = node.name
            if name in slot_of:
                name = slot_var_name(slot_of[name])
            return la.Var(name, shape, node.sparsity, node.pinned)
        if isinstance(node, la.FilledMatrix):
            shape = Shape(canonical_dim(node.fill_shape.rows), canonical_dim(node.fill_shape.cols))
            return la.FilledMatrix(node.value, shape)
        return node

    return dag.transform_bottom_up(expr, rebuild)
