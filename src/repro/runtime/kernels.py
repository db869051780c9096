"""Numeric kernels for the LA execution engine.

**Layout contract.**  An operand is a dense NumPy array or a canonical SciPy
CSR *or CSC* matrix (:mod:`repro.runtime.data`) and no kernel converts one
sparse layout into the other: SciPy's products, sums and sparse-sparse merges
run on either, and the kernels that read ``data``/``indices``/``indptr``
themselves are written against the *major* axis (rows of a CSR, columns of a
CSC).  ``t(X)`` costs nothing and whatever consumes it costs O(nnz).

**Structure preservation.**  A result with the sparsity pattern of one
operand — a sparse matrix times a scalar, a broadcast vector or a same-shape
dense operand, ``power``, the zero-preserving ``unary`` functions,
``wdivmm``'s quotient — shares that operand's ``indices``/``indptr`` and
allocates one new ``data`` array: no diagonal product, no COO round trip.
It may *store* an explicit ``0.0`` (a zero scale) where SciPy's sparse
product dropped the entry; values are equal, ``nnz`` counts it.

**Representation** is the op-table row's (:data:`~repro.runtime.optable.
OP_TABLE`, ``delivers``): a pure function of the operands' representations
and shapes, so no kernel counts the non-zeros of what it returns.  A sparse
operand of the result's shape keeps its structure (products, quotients,
zero-preserving maps), sums and reductions of a dense operand are dense,
and only sparse ⊗ sparse products and sums — whose density no rule can
know — re-pick once, by SciPy's stored count.

**Fused operators** mirror SystemML's: ``wcemm`` and ``wdivmm`` (and a
weighted ``wsloss``) evaluate ``U %*% V`` only at the stored entries of the
sparse operand through one SDDMM core, :func:`sampled_dot`; an unweighted
``wsloss`` pushes its cross term's sum through the join, ``sum(U * (X %*%
V))``; ``mmchain`` is ``t(X) %*% (w * (X %*% v))`` in two passes over
``X``; ``sprop`` is ``P * (1 - P)``.  Outputs are allocated once and
scratch per call: serving threads run kernels concurrently.

**Numeric policy.**  Elementwise results do not depend on the layout; a
reduction follows the operand's storage order, so CSR and CSC may differ by
re-association (not at all on the dyadic inputs the parity tests use).  Two
re-associations are deliberate, and every executor calls the same kernel,
so the tape, the fused tier and the interpreter stay bitwise:

* ``row_sums`` / ``col_sums`` of a dense value are a BLAS product with a
  ones vector (a thin ``8000 x 10`` reduces ~8x faster than NumPy's
  pairwise ``sum``), and ``wsloss``'s cross term is summed per row of
  ``X %*% V``;
* ``matmul`` of a layout step's value by one dense column reads its CSR
  copy (:attr:`~repro.runtime.data.MatrixValue.row_major`), whose row sums
  run in the same ascending column order as the stored CSC's scatter: this
  one is bitwise the stored layout's answer.

A plan's *pinned* variant (:meth:`repro.api.plan.CompiledPlan.run`) is
bitwise identical across the tape, the fused tier and the interpreter;
against the unpinned plan it is **ulp-bounded**, not bitwise, when it
hoists a re-association: ``(t(X) %*% X) %*% v`` re-associates
``t(X) %*% (X %*% v)``: each is within ``γ_(m+n)·|t(X)| |X| |v|`` of the
exact product, with ``γ_k = k·ε / (1 − k·ε)`` (Higham, *Accuracy and
Stability of Numerical Algorithms*, Thm. 3.5 and Lemma 3.3), so the two
differ componentwise by at most ``2·γ_(m+n+2)·|t(X)| |X| |v| + 2·ε·|c|``
once a term ``c`` is added.  ``tests/unit/test_pinned_plans.py`` checks that
bound and records the SVM gradient's error near convergence.  A pinned
variant that only adds layout steps re-associates nothing and is bitwise.

The module-level kernels implement real ``(+, ×)`` arithmetic.  The
execution engine reaches them through a :class:`KernelSet` — a flat
namespace of kernel callables bound per :class:`~repro.runtime.semiring.
Semiring`.  ``for_ring(REAL)`` binds exactly these module functions; any
other ring gets dense ring-generic kernels built from the ring's ⊕/⊗ ufuncs.
Ring kernels stay dense on purpose: a sparse matrix's implicit entries are
real ``0.0``, which is *not* the additive identity of every ring (min-plus
zero is ``+inf``), so sparse storage is only meaningful under real arithmetic.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.runtime.data import SPARSE_THRESHOLD, MatrixValue
from repro.runtime.optable import OP_TABLE, ZERO_PRESERVING
from repro.runtime.semiring import Semiring, resolve_semiring


#: stored entries per :func:`sampled_dot` block — the two ``block x rank``
#: gather scratch arrays of a rank-10 factorisation stay cache-resident
SDDMM_BLOCK = 4096


def _stored(value: MatrixValue):
    """``value``'s SciPy matrix as stored, CSR or CSC (CSR of a dense value)."""
    return value.data if value.is_sparse else value.to_sparse()


def _like(x, data: np.ndarray):
    """A matrix with ``x``'s sparsity structure — ``indices``/``indptr`` are
    shared, not copied — around a freshly computed ``data`` array."""
    out = type(x)((data, x.indices, x.indptr), shape=x.shape, copy=False)
    out.has_canonical_format = True  # x is canonical and the structure is x's
    return out


def safe_divide(left: np.ndarray, right: np.ndarray, out: Optional[np.ndarray] = None):
    """``left / right`` where a non-finite quotient (``x/0``, ``0/0``) is 0, the
    SystemML convention; allocates the output (unless given) and a mask."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(left, right, out=out)
    out[~np.isfinite(out)] = 0.0
    return out


def _repick(matrix) -> MatrixValue:
    """A sparse ⊗ sparse result, dense once its *stored* entries reach the
    threshold: SciPy keeps the count, so the re-pick reads no data."""
    rows, cols = matrix.shape
    if matrix.nnz >= SPARSE_THRESHOLD * rows * cols and rows * cols:
        return MatrixValue(matrix.toarray())
    return MatrixValue(matrix)


def _at_stored(value: MatrixValue, dense: np.ndarray) -> Optional[np.ndarray]:
    """``dense`` read at ``value``'s stored coordinates, as a fresh array —
    ``dense`` of ``value``'s shape, or a row or column vector broadcast over
    it; ``None`` when ``dense`` is wider than ``value``."""
    rows, cols = value.shape
    if dense.shape == (rows, cols):
        return dense[value.coordinates]
    if dense.shape == (rows, 1):
        return dense.ravel().take(value.coordinates[0])
    if dense.shape == (1, cols):
        return dense.ravel().take(value.coordinates[1])
    return None


def elem_mul(a: MatrixValue, b: MatrixValue) -> MatrixValue:
    """Element-wise (Hadamard) product with scalar/vector broadcasting."""
    if a.is_scalar:
        return scalar_mul(a.scalar_value(), b)
    if b.is_scalar:
        return scalar_mul(b.scalar_value(), a)
    if a.is_sparse and b.is_sparse and a.shape == b.shape:
        return MatrixValue(a.data.multiply(b.data))
    shape = np.broadcast_shapes(a.shape, b.shape)
    if a.is_sparse and a.shape == shape:
        return _sparse_mul(a, b.to_dense())
    if b.is_sparse and b.shape == shape:
        return _sparse_mul(b, a.to_dense())
    return MatrixValue(a.to_dense() * b.to_dense())


def _sparse_mul(value: MatrixValue, dense: np.ndarray) -> MatrixValue:
    """``value * dense`` on ``value``'s structure: ``dense`` (same shape, or a
    row or column vector) is read at the stored coordinates only and scaled in
    place."""
    x = value.data
    scale = _at_stored(value, dense)
    np.multiply(scale, x.data, out=scale)
    return MatrixValue(_like(x, scale))


def scalar_mul(value: float, matrix: MatrixValue) -> MatrixValue:
    if matrix.is_sparse:
        return MatrixValue(_like(matrix.data, matrix.data.data * value))
    return MatrixValue(matrix.data * value)


def elem_add(a: MatrixValue, b: MatrixValue, op: Callable = operator.add) -> MatrixValue:
    """Element-wise addition (``op=operator.sub``: subtraction) with broadcasting."""
    if a.is_scalar and b.is_scalar:
        return MatrixValue.scalar(op(a.scalar_value(), b.scalar_value()))
    if a.is_sparse and b.is_sparse and a.shape == b.shape:
        return _repick(op(a.data, b.data))
    return MatrixValue(op(a.to_dense(), b.to_dense()))


def elem_div(a: MatrixValue, b: MatrixValue) -> MatrixValue:
    """Element-wise division; 0/0 is defined as 0 (SystemML convention).

    A sparse dividend of the result's shape keeps its structure: ``0/x`` is
    0 for every ``x``, so only its stored entries are divided."""
    if a.is_sparse and not a.is_scalar:
        if b.is_scalar:
            divisor = np.full(a.data.nnz, b.scalar_value())
        else:
            divisor = _at_stored(a, b.to_dense())
        if divisor is not None:
            return MatrixValue(_like(a.data, safe_divide(a.data.data, divisor, out=divisor)))
    return MatrixValue(safe_divide(a.to_dense(), b.to_dense()))


def matmul(a: MatrixValue, b: MatrixValue) -> MatrixValue:
    """Matrix multiplication: dense unless both operands are sparse."""
    if a.is_scalar:
        return scalar_mul(a.scalar_value(), b)
    if b.is_scalar:
        return scalar_mul(b.scalar_value(), a)
    if a.is_sparse and b.is_sparse:
        return _repick(a.data @ b.data)
    if a.row_major is not None and b.shape[1] == 1:
        # a layout step's copy: rows summed in the stored (ascending) order
        return MatrixValue(a.row_major @ b.data)
    return MatrixValue(a.data @ b.data)


def row_major(a: MatrixValue) -> MatrixValue:
    """``a`` with a CSR copy of a CSC ``data`` (the layout step's kernel)."""
    if not a.is_sparse or a.data.format == "csr":
        return a
    return MatrixValue(a.data, a.data.tocsr())


def transpose(a: MatrixValue) -> MatrixValue:
    return a.transpose()


def cast(a: MatrixValue) -> MatrixValue:
    """``as.scalar``: re-wrap a 1x1 value as a dense scalar."""
    return MatrixValue.scalar(a.scalar_value())


def row_sums(a: MatrixValue) -> MatrixValue:
    if a.is_sparse:
        return MatrixValue(np.asarray(a.data.sum(axis=1)))
    return MatrixValue(a.data @ np.ones((a.shape[1], 1)))


def col_sums(a: MatrixValue) -> MatrixValue:
    if a.is_sparse:
        return MatrixValue(np.asarray(a.data.sum(axis=0)))
    return MatrixValue(np.ones((1, a.shape[0])) @ a.data)


def full_sum(a: MatrixValue) -> MatrixValue:
    return MatrixValue.scalar(float(a.data.sum()))


def power(a: MatrixValue, exponent: float) -> MatrixValue:
    if a.is_sparse and exponent > 0:
        return MatrixValue(_like(a.data, a.data.data**exponent))
    return MatrixValue(np.power(a.to_dense(), exponent))


def negate(a: MatrixValue) -> MatrixValue:
    return scalar_mul(-1.0, a)


_UNARY_KERNELS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sign": np.sign,
    "round": np.round,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
}


def unary(func: str, a: MatrixValue) -> MatrixValue:
    kernel = _UNARY_KERNELS.get(func)
    if kernel is None:
        raise ValueError(f"unknown unary function {func!r}")
    if a.is_sparse and func in ZERO_PRESERVING:
        return MatrixValue(_like(a.data, kernel(a.data.data)))
    return MatrixValue(kernel(a.to_dense()))


# ---------------------------------------------------------------------------
# Fused operators
# ---------------------------------------------------------------------------


def sampled_dot(
    x,
    u: np.ndarray,
    v_rowwise: np.ndarray,
    coordinates: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Entries of ``u @ v_rowwise.T`` at the stored coordinates of ``x`` only.

    The SDDMM core of the fused operators: one value per stored entry of the
    CSR/CSC matrix ``x``, in storage order (``coordinates``, when the caller
    has them cached on the value).  Factor rows are gathered
    :data:`SDDMM_BLOCK` entries at a time into scratch owned by this call,
    so no ``nnz x rank`` temporary exists.
    """
    rows, cols = coordinates if coordinates is not None else MatrixValue(x).coordinates
    u = np.ascontiguousarray(u, dtype=np.float64)
    v_rowwise = np.ascontiguousarray(v_rowwise, dtype=np.float64)
    out = np.empty(rows.size)
    left, right = np.empty((2, min(SDDMM_BLOCK, rows.size), u.shape[1]))
    for start in range(0, rows.size, SDDMM_BLOCK):
        chunk = out[start : start + SDDMM_BLOCK]
        n = chunk.size
        np.take(u, rows[start : start + n], axis=0, out=left[:n], mode="clip")
        np.take(v_rowwise, cols[start : start + n], axis=0, out=right[:n], mode="clip")
        np.einsum("ij,ij->i", left[:n], right[:n], out=chunk)
    return out


def wsloss(x: MatrixValue, u: MatrixValue, v: MatrixValue, w: Optional[MatrixValue]) -> MatrixValue:
    """``sum(W * (X - U %*% t(V))^2)`` without materialising ``U %*% t(V)``.

    The square is folded into three cheap terms: ``sum((U %*% t(V))^2)`` is
    ``sum((t(U)U) * (t(V)V))``, ``sum(X^2)`` is one pass over ``X``'s
    entries, and the cross term ``sum(X * (U %*% t(V)))`` is
    ``sum(U * (X %*% V))`` — one sparse × dense product, the aggregate
    pushed through the join.  With a weight matrix the kernel streams the
    residual over ``W``'s stored entries instead (SDDMM).
    """
    u_dense = u.to_dense()
    v_dense = v.to_dense()
    if w is not None:
        w_stored = _stored(w)
        if w_stored.nnz == 0:  # (an empty fancy index into SciPy is not an array)
            return MatrixValue.scalar(0.0)
        x_at = np.asarray(x.data[w.coordinates]).ravel()
        residual = sampled_dot(w_stored, u_dense, v_dense, w.coordinates)
        np.subtract(x_at, residual, out=residual)
        weighted = w_stored.data * residual
        weighted *= residual
        return MatrixValue.scalar(float(np.sum(weighted)))
    gram = float(np.sum((u_dense.T @ u_dense) * (v_dense.T @ v_dense)))
    pushed = np.asarray(x.data @ v_dense)
    pushed *= u_dense
    cross = float(np.sum(pushed))
    entries = x.data.data if x.is_sparse else x.data
    return MatrixValue.scalar(float(np.sum(entries * entries)) - 2.0 * cross + gram)


def wcemm(x: MatrixValue, u: MatrixValue, v: MatrixValue) -> MatrixValue:
    """``sum(X * log(U %*% V))`` computed only at the non-zeros of ``X``."""
    x_stored = _stored(x)
    terms = sampled_dot(x_stored, u.to_dense(), v.to_dense().T, x.coordinates)
    np.log(terms, out=terms)
    terms *= x_stored.data
    return MatrixValue.scalar(float(np.sum(terms)))


def wdivmm(
    x: MatrixValue, u: MatrixValue, v: MatrixValue, multiply_left: bool
) -> MatrixValue:
    """Fused weighted-division matrix multiplication (SystemML's ``wdivmm``).

    Computes ``t(U) %*% (X / (U %*% V))`` (``multiply_left=True``) or
    ``(X / (U %*% V)) %*% t(V)`` (``multiply_left=False``) while evaluating
    the dense product ``U %*% V`` only at the non-zeros of ``X``; the
    quotient reuses ``X``'s structure.
    """
    u_dense = u.to_dense()
    v_dense = v.to_dense()
    x_stored = _stored(x)
    quotient = sampled_dot(x_stored, u_dense, v_dense.T, x.coordinates)
    weighted = _like(x_stored, safe_divide(x_stored.data, quotient, out=quotient))
    if multiply_left:
        return MatrixValue(np.asarray((weighted.T @ u_dense).T))
    return MatrixValue(np.asarray(weighted @ v_dense.T))


def sprop(p: MatrixValue) -> MatrixValue:
    """``P * (1 - P)`` in a single pass."""
    dense = p.to_dense()
    return MatrixValue(dense * (1.0 - dense))


def mmchain(x: MatrixValue, v: MatrixValue, w: Optional[MatrixValue]) -> MatrixValue:
    """``t(X) %*% (w * (X %*% v))`` without materialising ``t(X)``."""
    inner = x.data @ v.to_dense()
    if w is not None:
        inner = np.asarray(inner) * w.to_dense()
    result = x.data.T @ np.asarray(inner)
    return MatrixValue(np.asarray(result))


# ---------------------------------------------------------------------------
# Ring-parameterized kernel sets
# ---------------------------------------------------------------------------


class RingKernelError(RuntimeError):
    """An operator with no definition under the executing semiring."""


def elem_sub(a: MatrixValue, b: MatrixValue) -> MatrixValue:
    """Element-wise subtraction (real arithmetic)."""
    return elem_add(a, b, operator.sub)


def literal(value: float) -> MatrixValue:
    """Materialize a scalar literal (real arithmetic: face value)."""
    return MatrixValue.scalar(float(value))


def fill(value: float, rows: int, cols: int) -> MatrixValue:
    """Materialize a constant-filled matrix (real arithmetic: face value)."""
    return MatrixValue.filled(value, rows, cols)


#: cells bound for the broadcast temporary of the generic ring matmul
_MATMUL_BLOCK_CELLS = 1 << 21


def _ring_scalar_mul(ring: Semiring) -> Callable[[float, MatrixValue], MatrixValue]:
    def ring_scalar_mul(value: float, matrix: MatrixValue) -> MatrixValue:
        return MatrixValue(np.asarray(ring.mul(np.float64(value), matrix.to_dense())))

    return ring_scalar_mul


def _ring_matmul(ring: Semiring) -> Callable[[MatrixValue, MatrixValue], MatrixValue]:
    smul = _ring_scalar_mul(ring)

    def ring_matmul(a: MatrixValue, b: MatrixValue) -> MatrixValue:
        if a.is_scalar:
            return smul(a.scalar_value(), b)
        if b.is_scalar:
            return smul(b.scalar_value(), a)
        left = a.to_dense()
        right = b.to_dense()
        m, inner = left.shape
        n = right.shape[1]
        out = np.empty((m, n), dtype=np.float64)
        # Row-blocked broadcast ⊗ followed by an ⊕-reduce over the shared
        # axis; the block size bounds the (block, inner, n) temporary.
        block = max(1, _MATMUL_BLOCK_CELLS // max(1, inner * n))
        for start in range(0, m, block):
            stop = min(start + block, m)
            products = ring.mul(left[start:stop, :, None], right[None, :, :])
            out[start:stop] = ring.aggregate(np.asarray(products), axis=1)
        return MatrixValue(out)

    return ring_matmul


def _ring_elemwise(
    ring_op: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> Callable[[MatrixValue, MatrixValue], MatrixValue]:
    def ring_elemwise(a: MatrixValue, b: MatrixValue) -> MatrixValue:
        return MatrixValue(np.asarray(ring_op(a.to_dense(), b.to_dense())))

    return ring_elemwise


def _ring_negate(ring: Semiring) -> Callable[[MatrixValue], MatrixValue]:
    sub = ring.sub
    assert sub is not None

    def ring_negate(a: MatrixValue) -> MatrixValue:
        return MatrixValue(np.asarray(sub(np.float64(ring.zero), a.to_dense())))

    return ring_negate


def _ring_elem_div(ring: Semiring) -> Callable[[MatrixValue, MatrixValue], MatrixValue]:
    div = ring.div
    assert div is not None

    def ring_elem_div(a: MatrixValue, b: MatrixValue) -> MatrixValue:
        left, right = np.broadcast_arrays(a.to_dense(), b.to_dense())
        # Generalized SystemML convention: division by the ring zero is the
        # ring zero (real 0/0 -> 0); substitute one to keep ufuncs quiet.
        blocked = right == ring.zero
        safe = np.where(blocked, ring.one, right)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = div(left, safe)
        return MatrixValue(np.asarray(np.where(blocked, ring.zero, out)))

    return ring_elem_div


def _ring_row_sums(ring: Semiring) -> Callable[[MatrixValue], MatrixValue]:
    def ring_row_sums(a: MatrixValue) -> MatrixValue:
        return MatrixValue(ring.aggregate(a.to_dense(), axis=1, keepdims=True))

    return ring_row_sums


def _ring_col_sums(ring: Semiring) -> Callable[[MatrixValue], MatrixValue]:
    def ring_col_sums(a: MatrixValue) -> MatrixValue:
        return MatrixValue(ring.aggregate(a.to_dense(), axis=0, keepdims=True))

    return ring_col_sums


def _ring_full_sum(ring: Semiring) -> Callable[[MatrixValue], MatrixValue]:
    def ring_full_sum(a: MatrixValue) -> MatrixValue:
        return MatrixValue.scalar(float(ring.aggregate(a.to_dense())))

    return ring_full_sum


def _ring_power(ring: Semiring) -> Callable[[MatrixValue, float], MatrixValue]:
    def ring_power(a: MatrixValue, exponent: float) -> MatrixValue:
        if exponent != int(exponent) or exponent < 0:
            raise RingKernelError(
                f"power({exponent!r}) has no ⊗-fold reading under the "
                f"{ring.name!r} semiring; only integer exponents >= 0 do"
            )
        count = int(exponent)
        dense = a.to_dense()
        if count == 0:
            return MatrixValue(np.full(dense.shape, ring.one, dtype=np.float64))
        out = dense
        for _ in range(count - 1):
            out = np.asarray(ring.mul(out, dense))
        return MatrixValue(np.asarray(out))

    return ring_power


def _ring_literal(ring: Semiring) -> Callable[[float], MatrixValue]:
    def ring_literal(value: float) -> MatrixValue:
        return MatrixValue.scalar(ring.encode_literal(value))

    return ring_literal


def _ring_fill(ring: Semiring) -> Callable[[float, int, int], MatrixValue]:
    def ring_fill(value: float, rows: int, cols: int) -> MatrixValue:
        encoded = ring.encode_literal(value)
        return MatrixValue(np.full((rows, cols), encoded, dtype=np.float64))

    return ring_fill


def _unsupported(ring: Semiring, op: str) -> Callable[..., MatrixValue]:
    def raiser(*_args, **_kwargs) -> MatrixValue:
        raise RingKernelError(
            f"operator {op!r} is not defined under the {ring.name!r} semiring"
        )

    return raiser


#: Every kernel, named once: ``name -> (real kernel, ring-generic builder)``.
#: The real kernels are the layout-aware module functions above; a builder
#: makes the dense ring-generic twin from a ring's ⊕/⊗.  ``None`` marks a
#: kernel that is real analysis or hard-codes real arithmetic — its operator's
#: row says ``needs="real"``, so no other ring ever asks for it.
KERNELS: Dict[str, Tuple[Callable, Optional[Callable[[Semiring], Callable]]]] = {
    "matmul": (matmul, _ring_matmul),
    "elem_mul": (elem_mul, lambda ring: _ring_elemwise(ring.mul)),
    "elem_add": (elem_add, lambda ring: _ring_elemwise(ring.add)),
    "elem_sub": (elem_sub, lambda ring: _ring_elemwise(ring.sub)),
    "elem_div": (elem_div, _ring_elem_div),
    "scalar_mul": (scalar_mul, _ring_scalar_mul),
    # pure layout moves: ring-independent
    "transpose": (transpose, lambda ring: transpose),
    "row_major": (row_major, lambda ring: row_major),
    "cast": (cast, lambda ring: cast),
    "row_sums": (row_sums, _ring_row_sums),
    "col_sums": (col_sums, _ring_col_sums),
    "full_sum": (full_sum, _ring_full_sum),
    "power": (power, _ring_power),
    "negate": (negate, _ring_negate),
    "unary": (unary, None),
    "literal": (literal, _ring_literal),
    "fill": (fill, _ring_fill),
    "wsloss": (wsloss, None),
    "wcemm": (wcemm, None),
    "wdivmm": (wdivmm, None),
    "sprop": (sprop, None),
    "mmchain": (mmchain, None),
}


class KernelSet:
    """Kernel callables bound to one semiring.

    Attributes are plain functions (not methods) so tape closures capture
    them once at compile time with zero dispatch overhead.  The real set
    binds exactly the module-level, layout-aware kernels; a non-real set
    binds the dense ring-generic ones.  Whether a ring can express an
    operator is its op-table row's ``needs`` — the declaration the
    compile-time gate (``check_ring_compatibility``) rejects plans by — and
    a kernel only operators the ring cannot express name raises
    :class:`RingKernelError`: validation should have rejected such a plan
    long before execution.
    """

    __slots__ = ("ring", *KERNELS)

    def __init__(self, ring: Semiring) -> None:
        self.ring = ring
        rows = list(OP_TABLE.values())
        # ``scalar_mul``/``literal``/``fill`` serve no row and always bind
        inexpressible = {spec.kernel for spec in rows} - {
            spec.kernel for spec in rows if ring.provides(spec.needs)
        }
        for name, (real, build) in KERNELS.items():
            if ring.is_real:
                kernel = real
            elif name in inexpressible:
                kernel = _unsupported(ring, name)
            else:
                kernel = build(ring)
            setattr(self, name, kernel)


_KERNEL_SETS: Dict[str, KernelSet] = {}


def for_ring(ring: Optional[object] = None) -> KernelSet:
    """The (cached) :class:`KernelSet` for ``ring`` (name, object, or None)."""
    resolved = resolve_semiring(ring)  # type: ignore[arg-type]
    cached = _KERNEL_SETS.get(resolved.name)
    if cached is None or cached.ring is not resolved:
        cached = KernelSet(resolved)
        _KERNEL_SETS[resolved.name] = cached
    return cached
