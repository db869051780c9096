"""The sparse-layout contract of ``runtime/data.py`` and ``runtime/kernels.py``.

A :class:`MatrixValue` holds CSR *or* CSC natively, so a transpose is a view;
kernels are major-order-agnostic, keep an operand's structure when the result
has its pattern, and the fused operators share one allocation-lean SDDMM
core.  Numeric policy checked here: on dyadic ``k/64`` inputs every kernel
equals the dense NumPy formula **bitwise** in every operand layout — all the
arithmetic is exact, so summation order cannot show — except ``wcemm``, whose
``log`` makes the terms inexact and the comparison a stated 1e-12 relative.
"""

import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from scipy import sparse

from repro.api import Session
from repro.api.plan import bind_signature
from repro.lang import expr as la
from repro.lang.dims import UNIT, Dim, Shape
from repro.runtime import MatrixValue, kernels
from repro.serve.engine import ServingEngine
from repro.serve.worker import ShardRequest

LAYOUTS = ("dense", "csr", "csc")
REAL = kernels.for_ring("real")
RANK = 3


def wrap(array: np.ndarray, layout: str) -> MatrixValue:
    """``array`` as a value stored in ``layout`` (and really stored so)."""
    if layout == "dense":
        return MatrixValue(array)
    value = MatrixValue(getattr(sparse, f"{layout}_matrix")(array))
    assert value.is_sparse and value.data.format == layout
    return value


def dyadic(rng: np.random.Generator, rows: int, cols: int, zeros: float = 0.6) -> np.ndarray:
    values = rng.integers(-64, 65, size=(rows, cols)) / 64.0
    return values * (rng.random((rows, cols)) >= zeros)


def powers_of_two(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return np.ldexp(1.0, -rng.integers(0, 4, size=(rows, cols)))


class Operands:
    """``X`` (m x n, mostly zeros) and dense partners of every shape a kernel needs."""

    def __init__(self, rows: int, cols: int, x_zeros: float = 0.6) -> None:
        rng = np.random.default_rng(1000 * rows + cols)
        self.X = dyadic(rng, rows, cols, x_zeros)
        self.same = dyadic(rng, rows, cols, 0.3)
        self.col = dyadic(rng, rows, 1, 0.2)
        self.row = dyadic(rng, 1, cols, 0.2)
        self.right = dyadic(rng, cols, 4, 0.0)
        self.left = dyadic(rng, 4, rows, 0.0)
        self.U = dyadic(rng, rows, RANK, 0.0)
        self.V = dyadic(rng, cols, RANK, 0.0)
        # one power of two per row of U and powers of two in H make every
        # entry of U @ H a power of two (or 0 on the zeroed first row), so
        # wdivmm's quotient and the products after it stay exact
        self.U_hot = np.zeros((rows, RANK))
        self.U_hot[np.arange(rows), np.arange(rows) % RANK] = powers_of_two(rng, rows, 1).ravel()
        self.U_hot[:1] = 0.0
        self.H = powers_of_two(rng, RANK, cols)
        self.U_pos = (rng.integers(1, 65, size=(rows, RANK))) / 64.0
        self.v = dyadic(rng, cols, 1, 0.0)
        self.w = dyadic(rng, rows, 1, 0.0)


def quotient(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        q = x / p
    return np.where(np.isfinite(q), q, 0.0)


def mv(array: np.ndarray) -> MatrixValue:
    return MatrixValue(array)


#: id -> (kernel call on the laid-out ``x``, the dense NumPy formula on ``X``);
#: ``lay`` is ``x``'s layout, for cases that store a second operand the same way
CASES = {
    "matmul": (lambda x, o, lay: REAL.matmul(x, mv(o.right)), lambda X, o: X @ o.right),
    "matmul_from_left": (lambda x, o, lay: REAL.matmul(mv(o.left), x), lambda X, o: o.left @ X),
    "matmul_gram": (lambda x, o, lay: REAL.matmul(x.transpose(), x), lambda X, o: X.T @ X),
    "elem_mul_same": (lambda x, o, lay: REAL.elem_mul(x, mv(o.same)), lambda X, o: X * o.same),
    "elem_mul_same_reversed": (
        lambda x, o, lay: REAL.elem_mul(mv(o.same), x), lambda X, o: o.same * X,
    ),
    "elem_mul_same_layout": (
        lambda x, o, lay: REAL.elem_mul(x, wrap(o.same, lay)), lambda X, o: X * o.same,
    ),
    "elem_mul_col": (lambda x, o, lay: REAL.elem_mul(x, mv(o.col)), lambda X, o: X * o.col),
    "elem_mul_row": (lambda x, o, lay: REAL.elem_mul(x, mv(o.row)), lambda X, o: X * o.row),
    "elem_mul_col_reversed": (
        lambda x, o, lay: REAL.elem_mul(mv(o.col), x), lambda X, o: o.col * X,
    ),
    "elem_mul_sparse_col": (
        lambda x, o, lay: REAL.elem_mul(x, wrap(o.col, lay)), lambda X, o: X * o.col,
    ),
    "elem_mul_scalar": (
        lambda x, o, lay: REAL.elem_mul(x, MatrixValue.scalar(0.375)), lambda X, o: X * 0.375,
    ),
    "elem_add_same": (lambda x, o, lay: REAL.elem_add(x, mv(o.same)), lambda X, o: X + o.same),
    "elem_add_same_layout": (
        lambda x, o, lay: REAL.elem_add(x, wrap(o.same, lay)), lambda X, o: X + o.same,
    ),
    "elem_add_row": (lambda x, o, lay: REAL.elem_add(x, mv(o.row)), lambda X, o: X + o.row),
    "elem_sub_same": (lambda x, o, lay: REAL.elem_sub(x, mv(o.same)), lambda X, o: X - o.same),
    "elem_sub_same_layout": (
        lambda x, o, lay: REAL.elem_sub(x, wrap(o.same, lay)), lambda X, o: X - o.same,
    ),
    "elem_sub_col": (lambda x, o, lay: REAL.elem_sub(mv(o.col), x), lambda X, o: o.col - X),
    "elem_div": (lambda x, o, lay: REAL.elem_div(x, mv(o.same)), lambda X, o: quotient(X, o.same)),
    "elem_div_by_x": (
        lambda x, o, lay: REAL.elem_div(mv(o.same), x), lambda X, o: quotient(o.same, X),
    ),
    "scalar_mul": (lambda x, o, lay: REAL.scalar_mul(-0.625, x), lambda X, o: X * -0.625),
    "negate": (lambda x, o, lay: REAL.negate(x), lambda X, o: -X),
    "transpose": (lambda x, o, lay: REAL.transpose(x), lambda X, o: X.T),
    "transpose_twice": (lambda x, o, lay: REAL.transpose(REAL.transpose(x)), lambda X, o: X),
    "row_sums": (lambda x, o, lay: REAL.row_sums(x), lambda X, o: X.sum(axis=1, keepdims=True)),
    "col_sums": (lambda x, o, lay: REAL.col_sums(x), lambda X, o: X.sum(axis=0, keepdims=True)),
    "full_sum": (lambda x, o, lay: REAL.full_sum(x), lambda X, o: X.sum().reshape(1, 1)),
    "row_sums_of_transpose": (
        lambda x, o, lay: REAL.row_sums(x.transpose()),
        lambda X, o: X.T.sum(axis=1, keepdims=True),
    ),
    "power_2": (lambda x, o, lay: REAL.power(x, 2.0), lambda X, o: np.power(X, 2.0)),
    "power_3": (lambda x, o, lay: REAL.power(x, 3.0), lambda X, o: np.power(X, 3.0)),
    "power_0": (lambda x, o, lay: REAL.power(x, 0.0), lambda X, o: np.power(X, 0.0)),
    "unary_abs": (lambda x, o, lay: REAL.unary("abs", x), lambda X, o: np.abs(X)),
    "unary_sign": (lambda x, o, lay: REAL.unary("sign", x), lambda X, o: np.sign(X)),
    "unary_round": (lambda x, o, lay: REAL.unary("round", x), lambda X, o: np.round(X)),
    "unary_sqrt": (
        lambda x, o, lay: REAL.unary("sqrt", REAL.unary("abs", x)), lambda X, o: np.sqrt(np.abs(X)),
    ),
    "unary_exp": (lambda x, o, lay: REAL.unary("exp", x), lambda X, o: np.exp(X)),
    "unary_sigmoid": (
        lambda x, o, lay: REAL.unary("sigmoid", x), lambda X, o: 1.0 / (1.0 + np.exp(-X)),
    ),
    "sprop": (lambda x, o, lay: REAL.sprop(x), lambda X, o: X * (1.0 - X)),
    "mmchain": (
        lambda x, o, lay: REAL.mmchain(x, mv(o.v), None), lambda X, o: X.T @ (X @ o.v),
    ),
    "mmchain_weighted": (
        lambda x, o, lay: REAL.mmchain(x, mv(o.v), mv(o.w)), lambda X, o: X.T @ (o.w * (X @ o.v)),
    ),
    "wsloss": (
        lambda x, o, lay: REAL.wsloss(x, mv(o.U), mv(o.V), None),
        lambda X, o: np.sum((X - o.U @ o.V.T) ** 2).reshape(1, 1),
    ),
    "wsloss_weighted": (
        lambda x, o, lay: REAL.wsloss(x, mv(o.U), mv(o.V), wrap(o.same, lay)),
        lambda X, o: np.sum(o.same * (X - o.U @ o.V.T) ** 2).reshape(1, 1),
    ),
    "wsloss_weighted_by_dense_x": (
        lambda x, o, lay: REAL.wsloss(mv(o.same), mv(o.U), mv(o.V), x),
        lambda X, o: np.sum(X * (o.same - o.U @ o.V.T) ** 2).reshape(1, 1),
    ),
    "wdivmm_left": (
        lambda x, o, lay: REAL.wdivmm(x, mv(o.U_hot), mv(o.H), True),
        lambda X, o: o.U_hot.T @ quotient(X, o.U_hot @ o.H),
    ),
    "wdivmm_right": (
        lambda x, o, lay: REAL.wdivmm(x, mv(o.U_hot), mv(o.H), False),
        lambda X, o: quotient(X, o.U_hot @ o.H) @ o.H.T,
    ),
    "wcemm": (
        lambda x, o, lay: REAL.wcemm(x, mv(o.U_pos), mv(o.H)),
        lambda X, o: np.sum(X * np.log(o.U_pos @ o.H)).reshape(1, 1),
    ),
}

#: regular, one row, one column, no stored entry, zero-size either way, 1 x 1
SHAPES = ((9, 7, 0.6), (1, 6, 0.5), (6, 1, 0.5), (5, 4, 1.0), (0, 4, 0.6), (5, 0, 0.6), (1, 1, 0.0))


class TestTransposeIsAView:
    def test_dense_csr_and_csc_share_their_buffers(self):
        array = dyadic(np.random.default_rng(0), 6, 4)
        dense = MatrixValue(array)
        assert np.shares_memory(dense.transpose().data, dense.data)
        for layout, flipped in (("csr", "csc"), ("csc", "csr")):
            value = wrap(array, layout)
            transposed = value.transpose()
            assert transposed.data.format == flipped
            assert transposed.shape == (4, 6)
            for buffer in ("data", "indices", "indptr"):
                assert np.shares_memory(
                    getattr(transposed.data, buffer), getattr(value.data, buffer)
                )

    def test_double_transpose_is_csr_with_the_original_buffers(self):
        original = sparse.csr_matrix(dyadic(np.random.default_rng(1), 6, 4))
        value = MatrixValue(original)
        assert value.data is original  # canonical CSR is adopted, not copied
        back = value.transpose().transpose()
        assert back.data.format == "csr"
        for buffer in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(back.data, buffer), getattr(original, buffer))
        assert back.to_sparse() is back.data  # already CSR: nothing to convert

    def test_to_sparse_is_where_csc_converts(self):
        value = wrap(dyadic(np.random.default_rng(2), 6, 4), "csc")
        converted = value.to_sparse()
        assert converted.format == "csr"
        assert np.array_equal(converted.toarray(), value.to_dense())

    def test_other_formats_are_stored_as_csr(self):
        array = dyadic(np.random.default_rng(3), 6, 4)
        for convert in (sparse.coo_matrix, sparse.lil_matrix, sparse.dok_matrix):
            value = MatrixValue(convert(array))
            assert value.data.format == "csr"
            assert np.array_equal(value.to_dense(), array)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_equals_dense_formula_in_every_layout(case, layout):
    run, formula = CASES[case]
    for rows, cols, zeros in SHAPES:
        operands = Operands(rows, cols, zeros)
        x = operands.X
        if case in ("sprop", "unary_exp", "unary_sigmoid") or (rows, cols) == (1, 1):
            x = np.abs(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            got = run(wrap(x, layout), operands, layout).to_dense()
            expected = np.asarray(formula(x, operands), dtype=np.float64)
        assert got.shape == expected.shape, (case, rows, cols)
        if case == "wcemm":
            assert np.allclose(got, expected, rtol=1e-12, atol=0.0), (rows, cols)
        else:
            assert np.array_equal(got, expected), (case, layout, rows, cols)


@pytest.mark.parametrize("layout", ("csr", "csc"))
def test_cast_reads_a_stored_scalar(layout):
    assert REAL.cast(wrap(np.array([[0.625]]), layout)).scalar_value() == 0.625


class TestStructurePreservation:
    @pytest.mark.parametrize("layout", ("csr", "csc"))
    def test_pattern_preserving_results_share_the_operands_structure(self, layout):
        operands = Operands(40, 30, 0.9)
        x = wrap(operands.X, layout)
        results = {
            "elem_mul col": kernels.elem_mul(x, mv(operands.col)),
            "elem_mul row": kernels.elem_mul(mv(operands.row), x),
            "elem_mul same": kernels.elem_mul(x, mv(operands.same)),
            "scalar_mul": kernels.scalar_mul(2.5, x),
            "negate": kernels.negate(x),
            "power": kernels.power(x, 2.0),
            "abs": kernels.unary("abs", x),
        }
        for name, result in results.items():
            assert result.data.format == layout, name
            assert np.shares_memory(result.data.indices, x.data.indices), name
            assert np.shares_memory(result.data.indptr, x.data.indptr), name
            assert not np.shares_memory(result.data.data, x.data.data), name
            assert result.data.has_canonical_format, name

    @pytest.mark.parametrize("layout", ("csr", "csc"))
    def test_wdivmm_quotient_is_built_on_x(self, layout, monkeypatch):
        operands = Operands(40, 30, 0.9)
        x = wrap(operands.X, layout)
        built = []
        like = kernels._like

        def spy(matrix, data):
            built.append(like(matrix, data))
            return built[-1]

        monkeypatch.setattr(kernels, "_like", spy)
        kernels.wdivmm(x, mv(operands.U_hot), mv(operands.H), True)
        (weighted,) = built
        assert np.shares_memory(weighted.indices, x.data.indices)
        assert np.shares_memory(weighted.indptr, x.data.indptr)

    def test_a_zero_scale_is_stored_not_dropped(self):
        """The one representational difference to SciPy's sparse product."""
        array = np.zeros((6, 5))
        array[0, 0], array[1, 0], array[1, 3] = 1.0, 0.5, 2.0
        x = wrap(array, "csr")
        scale = np.array([[0.0], [3.0], [1.0], [1.0], [1.0], [1.0]])
        scaled = kernels.elem_mul(x, mv(scale))
        assert scaled.is_sparse and scaled.nnz == x.nnz == 3
        assert np.array_equal(scaled.to_dense(), array * scale)


class TestSampledDot:
    @pytest.mark.parametrize("layout", ("csr", "csc"))
    @pytest.mark.parametrize(
        "nnz",
        [0, 1, kernels.SDDMM_BLOCK - 1, kernels.SDDMM_BLOCK, kernels.SDDMM_BLOCK + 1,
         3 * kernels.SDDMM_BLOCK + 7],
    )
    def test_equals_the_full_gather_bitwise(self, nnz, layout):
        rng = np.random.default_rng(nnz)
        rows, cols, rank = 200, 100, 10
        flat = rng.choice(rows * cols, size=nnz, replace=False)
        coo = sparse.coo_matrix(
            (rng.random(nnz) + 0.5, (flat // cols, flat % cols)), shape=(rows, cols)
        )
        x = coo.asformat(layout)
        u, v = rng.random((rows, rank)), rng.random((cols, rank))
        stored = x.tocoo()  # storage order of the compressed layout
        expected = np.einsum("ij,ij->i", u[stored.row], v[stored.col])
        assert np.array_equal(kernels.sampled_dot(x, u, v), expected)
        # a transposed (Fortran-ordered) factor, as wcemm/wdivmm pass it
        assert np.array_equal(kernels.sampled_dot(x, u, np.asfortranarray(v)), expected)


def _traced_peak(call) -> int:
    call()  # warm caches so only the call's own allocations are traced
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocationBudget:
    """Machine-independent: counts bytes, not milliseconds."""

    ROWS, COLS, RANK, NNZ = 8000, 1000, 10, 40_000

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(5)
        flat = rng.choice(self.ROWS * self.COLS, size=self.NNZ, replace=False)
        x = sparse.csr_matrix(
            (rng.random(self.NNZ) + 0.5, (flat // self.COLS, flat % self.COLS)),
            shape=(self.ROWS, self.COLS),
        )
        assert x.nnz == self.NNZ
        return (
            MatrixValue(x),
            mv(rng.random((self.ROWS, self.RANK)) + 0.5),
            mv(rng.random((self.RANK, self.COLS)) + 0.5),
            mv(rng.random((self.COLS, self.RANK)) + 0.5),
            mv(rng.random((self.ROWS, 1))),
        )

    def test_fused_operators_never_hold_an_nnz_by_rank_gather(self, problem):
        x, u, h, v, _ = problem
        gather_bytes = self.NNZ * self.RANK * 8  # one (nnz x r) float64 temporary
        calls = {
            "wdivmm left": lambda: kernels.wdivmm(x, u, h, True),
            "wdivmm right": lambda: kernels.wdivmm(x, u, h, False),
            "wcemm": lambda: kernels.wcemm(x, u, h),
            "wsloss": lambda: kernels.wsloss(x, u, v, None),
            "wsloss weighted": lambda: kernels.wsloss(x, u, v, x),
        }
        for name, call in calls.items():
            assert _traced_peak(call) < gather_bytes, name

    def test_broadcast_scaling_allocates_one_data_array(self, problem):
        x, _, _, _, column = problem
        row = mv(np.random.default_rng(6).random((1, self.COLS)))
        # scaling along the major axis: one nnz-sized float64 array plus the
        # per-row counts.  The diagonal product this replaced peaked at ~1.85
        # arrays (data + indices + indptr of a second matrix), so the bound
        # is tighter than two.
        budget = 1.5 * self.NNZ * 8
        assert _traced_peak(lambda: kernels.elem_mul(x, column)) < budget
        assert _traced_peak(lambda: kernels.elem_mul(x.transpose(), column.transpose())) < budget
        # along the minor axis NumPy widens the int32 ``indices`` it gathers
        # by to intp for the duration of the gather: one more transient array
        assert _traced_peak(lambda: kernels.elem_mul(x, row)) < budget + self.NNZ * 8


class TestNonCanonicalInput:
    """A sparse input with duplicate entries is canonicalised once, at wrap."""

    DATA, INDICES, INDPTR = [1.0, 2.0, 4.0], [1, 1, 0], [0, 2, 3]
    DENSE = np.array([[0.0, 3.0], [4.0, 0.0]])
    U = np.array([[0.5], [0.25]])
    V = np.array([[0.5], [2.0]])

    def _duplicated(self, layout):
        csr = sparse.csr_matrix((self.DATA, self.INDICES, self.INDPTR), shape=(2, 2))
        if layout == "csr":
            return csr
        # the same duplicate, column-major: entries (1,0)=4 and (0,1)=1+2
        return sparse.csc_matrix(([4.0, 1.0, 2.0], [1, 0, 0], [0, 1, 3]), shape=(2, 2))

    @pytest.mark.parametrize("layout", ("csr", "csc"))
    def test_wrap_sums_duplicates_on_a_copy(self, layout):
        raw = self._duplicated(layout)
        assert not raw.has_canonical_format
        value = MatrixValue(raw)
        assert value.data is not raw and raw.nnz == 3  # the caller's matrix is untouched
        assert value.data.format == layout and value.nnz == 2
        assert np.array_equal(value.to_dense(), self.DENSE)

    @pytest.mark.parametrize("layout", ("csr", "csc"))
    def test_kernels_agree_with_the_dense_formula(self, layout):
        x = MatrixValue(self._duplicated(layout))
        u, v, h = mv(self.U), mv(self.V), mv(self.V.T)
        prediction = self.U @ self.V.T
        assert kernels.wsloss(x, u, v, None).scalar_value() == 19.328125
        assert kernels.wsloss(x, u, v, None).scalar_value() == np.sum(
            (self.DENSE - prediction) ** 2
        )
        assert kernels.wcemm(x, u, h).scalar_value() == pytest.approx(
            np.sum(self.DENSE * np.log(prediction)), rel=1e-12
        )
        assert np.array_equal(
            kernels.wdivmm(x, u, h, True).to_dense(), self.U.T @ (self.DENSE / prediction)
        )
        assert np.array_equal(kernels.power(x, 2.0).to_dense(), self.DENSE**2)
        column = np.array([[2.0], [0.5]])
        assert np.array_equal(kernels.elem_mul(x, mv(column)).to_dense(), self.DENSE * column)


class TestNnzIsCountedOnce:
    def test_dense_count_is_memoised_on_the_value(self, monkeypatch):
        value = MatrixValue(np.array([[1.0, 0.0], [0.0, 2.0]]))
        counts = []
        real = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", lambda a: counts.append(1) or real(a))
        assert value.nnz == 2 and value.sparsity == 0.5
        value.compacted()
        assert value.nnz == 2
        assert len(counts) == 1

    def test_plan_statistics_reuse_the_count(self, monkeypatch):
        m, n = Dim("m", 12), Dim("n", 8)
        expr = la.MatMul(la.Var("A", Shape(m, n)), la.Var("q", Shape(n, UNIT)))
        plan = Session().compile(expr)
        rng = np.random.default_rng(0)
        inputs = {"A": mv(rng.random((12, 8))), "q": mv(rng.random((8, 1)))}
        plan.run(inputs)
        counted = []
        real = np.count_nonzero

        def counting(array):
            counted.append(array.shape)
            return real(array)

        monkeypatch.setattr(np, "count_nonzero", counting)
        plan.run(inputs)
        assert (12, 8) not in counted and (8, 1) not in counted
        assert plan.stats.observed_sparsity == {0: 1.0, 1: 1.0}


class TestSparseFormatsThroughThePlan:
    """CSC and COO inputs bind and give the CSR input's values on every path."""

    ROWS, COLS = 60, 40

    def _problem(self, stackable):
        m, n = Dim("m", self.ROWS), Dim("n", self.COLS)
        A = la.Var("A", Shape(m, n), sparsity=0.1)
        q = la.Var("q", Shape(n, UNIT), sparsity=1.0)
        activation = la.UnaryFunc("sigmoid", la.MatMul(A, q))
        if stackable:  # columnwise in q: a sparse matvec and a transposed one
            expr = la.MatMul(la.Transpose(A), activation)
        else:  # plus a row scaling of A itself
            expr = la.MatMul(la.Transpose(la.ElemMul(A, activation)), la.MatMul(A, q))
        rng = np.random.default_rng(9)
        matrix = sparse.csr_matrix(dyadic(rng, self.ROWS, self.COLS, 0.9))
        vectors = [rng.integers(1, 65, size=(self.COLS, 1)) / 64.0 for _ in range(4)]
        return expr, matrix, vectors

    @pytest.mark.parametrize("stackable", (False, True))
    def test_compiled_plan_run(self, stackable):
        expr, matrix, vectors = self._problem(stackable)
        plan = Session().compile(expr)
        expected = plan.run(A=matrix, q=vectors[0]).value
        for convert in (sparse.csc_matrix, sparse.coo_matrix):
            got = plan.run(A=convert(matrix), q=vectors[0]).value
            assert got.is_sparse == expected.is_sparse
            assert np.array_equal(got.to_dense(), expected.to_dense())

    def test_serving_engine_unstacked_and_stacked(self):
        expr, matrix, vectors = self._problem(stackable=True)
        expected = None
        for convert in (sparse.csr_matrix, sparse.csc_matrix, sparse.coo_matrix):
            pinned = MatrixValue(convert(matrix))
            engine = ServingEngine(shards=1)
            try:
                unstacked = [
                    engine.run(expr, {"A": pinned, "q": mv(vector)}).value.to_dense()
                    for vector in vectors
                ]
                plan = engine.plan_for(expr)
                tape = plan.executable()
                local = engine._local_state(plan._entry, tape)
                requests = []
                for vector in vectors:
                    inputs = {"A": pinned, "q": mv(vector)}
                    requests.append(ShardRequest(
                        signature=plan.signature,
                        expr=expr,
                        future=Future(),
                        enqueued=time.perf_counter(),
                        values=tuple(bind_signature(plan.signature, inputs)),
                    ))
                prestacked = engine._serve_stacked(tape, local, requests)
                assert local.status == "on"
                assert engine.counters.stacked_requests == len(requests)
                stacked = [prestacked[id(r)].value.to_dense() for r in requests]
            finally:
                engine.close()
            if expected is None:
                expected = unstacked
            for got_unstacked, got_stacked, want in zip(unstacked, stacked, expected):
                assert np.array_equal(got_unstacked, want)
                assert np.array_equal(got_stacked, want)
