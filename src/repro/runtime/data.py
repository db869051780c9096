"""Matrix values for the execution engine.

SystemML keeps every matrix in either a dense or a sparse block and switches
representation based on the fraction of non-zeros; :class:`MatrixValue`
mirrors that on top of NumPy arrays and SciPy compressed matrices.  All
engine kernels accept and return :class:`MatrixValue` (scalars are 1x1).

**Layout contract.**  ``data`` is a 2-D float64 ``ndarray`` or a SciPy matrix
in CSR *or* CSC layout, held as it arrived (other formats become CSR at
wrap).  The layout is metadata: :meth:`MatrixValue.transpose` is a view for
sparse values as it is for dense ones — CSR buffers relabelled as CSC and
back — and nothing is converted until a caller asks
:meth:`MatrixValue.to_sparse` for CSR.

**Canonical.**  Sparse ``data`` has sorted indices and no duplicates: kernels
read ``data``/``indices`` directly, and ``sum(data**2)`` is ``sum(X**2)``
only without duplicates.  A non-canonical input is summed into a copy at
wrap; SciPy caches the check on the matrix, so pinned data pays one O(nnz)
scan ever.

**Immutable.**  The engine never writes to a value and its identity-keyed
caches rely on callers not doing so either, so ``nnz`` and the stored-entry
``coordinates`` the SDDMM kernels gather at are computed once per value.
For a sparse value ``nnz`` is the number of *stored* entries, explicit
zeros included.

**Representation is decided by the plan.**  A kernel's result is dense or
sparse by its op-table row (:data:`repro.runtime.optable.OP_TABLE`), from
its operands' representations alone: no kernel counts the non-zeros of its
output.  Only a sparse ⊗ sparse product or sum re-picks, by its stored
count.

**Row-major copy.**  A :class:`~repro.lang.expr.RowMajor` step — placed by
:mod:`repro.runtime.layout` under a width-1 product of a pinned sparse
operand, and hoisted by its executable — returns the operand with a CSR
copy of its entries in :attr:`MatrixValue.row_major`: a matrix-vector
product reads rows faster than a CSC view's columns, while a wider product
(a stacked batch) reads the stored layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple, Union

import numpy as np
from scipy import sparse

#: density threshold below which results are stored sparse (SystemML uses 0.4)
SPARSE_THRESHOLD = 0.4

ArrayLike = Union[np.ndarray, sparse.spmatrix]


@dataclass
class MatrixValue:
    """A dense or sparse two-dimensional value."""

    data: ArrayLike
    #: the entries of a sparse ``data`` as CSR, set by a ``RowMajor`` step
    row_major: Optional[sparse.csr_matrix] = None

    def __post_init__(self) -> None:
        data = self.data
        if sparse.issparse(data):
            if data.format not in ("csr", "csc"):
                data = data.tocsr()
            if not data.has_canonical_format:  # SciPy caches the flag on the object
                data = data.copy()
                data.sum_duplicates()
            self.data = data
        else:
            array = np.asarray(self.data, dtype=np.float64)
            if array.ndim == 1:
                array = array.reshape(-1, 1)
            elif array.ndim == 0:
                array = array.reshape(1, 1)
            self.data = array

    # -- constructors -----------------------------------------------------------
    @staticmethod
    def dense(array: np.ndarray) -> "MatrixValue":
        return MatrixValue(np.asarray(array, dtype=np.float64))

    @staticmethod
    def sparse_csr(matrix: sparse.spmatrix) -> "MatrixValue":
        return MatrixValue(matrix.tocsr())

    @staticmethod
    def scalar(value: float) -> "MatrixValue":
        return MatrixValue(np.array([[float(value)]]))

    @staticmethod
    def filled(value: float, rows: int, cols: int) -> "MatrixValue":
        if value == 0.0:
            return MatrixValue(sparse.csr_matrix((rows, cols)))
        return MatrixValue(np.full((rows, cols), float(value)))

    @staticmethod
    def random_sparse(
        rows: int,
        cols: int,
        sparsity: float,
        rng: Optional[np.random.Generator] = None,
        scale: float = 1.0,
    ) -> "MatrixValue":
        """A random matrix with roughly ``sparsity`` fraction of non-zeros."""
        rng = rng or np.random.default_rng(0)
        if sparsity >= SPARSE_THRESHOLD:
            dense = rng.random((rows, cols)) * scale
            mask = rng.random((rows, cols)) < sparsity
            return MatrixValue(dense * mask)
        matrix = sparse.random(
            rows, cols, density=sparsity, format="csr", random_state=np.random.RandomState(rng.integers(2**31 - 1)),
            data_rvs=lambda n: rng.random(n) * scale,
        )
        return MatrixValue(matrix)

    @staticmethod
    def random_dense(
        rows: int, cols: int, rng: Optional[np.random.Generator] = None, scale: float = 1.0
    ) -> "MatrixValue":
        rng = rng or np.random.default_rng(0)
        return MatrixValue(rng.random((rows, cols)) * scale)

    # -- queries -------------------------------------------------------------------
    @property
    def is_sparse(self) -> bool:
        return sparse.issparse(self.data)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.data.shape

    @cached_property
    def nnz(self) -> int:
        """Stored entries (sparse) or non-zero cells (dense); counted once."""
        if self.is_sparse:
            return int(self.data.nnz)
        # the same count (NaN counts, -0.0 does not), but the vectorized
        # compare plus a bool count runs 2-4x faster than counting floats
        return int(np.count_nonzero(self.data != 0))

    @cached_property
    def coordinates(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` of the stored entries in storage order; computed once.

        Held as ``intp``, the index type ``take`` and fancy indexing use, so
        no gather converts them (twice the bytes of SciPy's ``int32``).  A
        dense value's entries are those of its CSR conversion."""
        stored = self.data if self.is_sparse else self.to_sparse()
        counts = np.diff(stored.indptr)
        major = np.repeat(np.arange(counts.size, dtype=np.intp), counts)
        minor = stored.indices.astype(np.intp)
        return (major, minor) if stored.format == "csr" else (minor, major)

    @property
    def cells(self) -> int:
        rows, cols = self.shape
        return rows * cols

    @property
    def sparsity(self) -> float:
        if self.cells == 0:
            return 0.0
        return self.nnz / self.cells

    @property
    def is_scalar(self) -> bool:
        return self.shape == (1, 1)

    def scalar_value(self) -> float:
        if not self.is_scalar:
            raise ValueError(f"not a scalar value: shape {self.shape}")
        if self.is_sparse:
            return float(self.data.toarray()[0, 0])
        return float(self.data[0, 0])

    # -- conversions -----------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        if self.is_sparse:
            return self.data.toarray()
        return self.data

    def to_sparse(self) -> sparse.csr_matrix:
        """The value as CSR — a conversion unless it already is one."""
        if self.is_sparse:
            return self.data.tocsr()
        return sparse.csr_matrix(self.data)

    def transpose(self) -> "MatrixValue":
        """A view: dense strides flip, CSR relabels as CSC (and back)."""
        flipped = self.data.T
        if not self.is_sparse:
            return MatrixValue(flipped)
        flipped.has_canonical_format = True  # same entries: skip the O(nnz) re-check
        view = MatrixValue(flipped)
        if "coordinates" in self.__dict__:  # the same entries in the same order
            rows, cols = self.coordinates
            view.__dict__["coordinates"] = (cols, rows)
        return view

    def allclose(self, other: "MatrixValue", rtol: float = 1e-9, atol: float = 1e-9) -> bool:
        return np.allclose(self.to_dense(), other.to_dense(), rtol=rtol, atol=atol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "sparse" if self.is_sparse else "dense"
        return f"MatrixValue({kind}, shape={self.shape}, nnz={self.nnz})"


def as_value(value: Union[MatrixValue, np.ndarray, sparse.spmatrix, float, int]) -> MatrixValue:
    """Coerce supported inputs to :class:`MatrixValue`."""
    if isinstance(value, MatrixValue):
        return value
    if isinstance(value, (int, float, np.floating, np.integer)):
        return MatrixValue.scalar(float(value))
    return MatrixValue(value)
