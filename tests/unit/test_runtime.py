"""Unit tests for the execution engine: values, kernels, fusion, stats."""

import numpy as np
import pytest
from scipy import sparse

from repro.lang import Sum
from repro.lang import expr as la
from repro.lang.builder import log, sigmoid
from repro.runtime import MatrixValue, execute, fuse_operators
from repro.runtime import kernels
from repro.runtime.engine import ExecutionError
from tests.helpers import numeric_inputs, run_la, standard_symbols


RNG = np.random.default_rng(11)


class TestMatrixValue:
    def test_dense_and_sparse_roundtrip(self):
        dense = MatrixValue.dense(RNG.random((5, 4)))
        assert not dense.is_sparse
        sparse = dense.to_sparse()
        assert MatrixValue.sparse_csr(sparse).allclose(dense)

    def test_scalar_value(self):
        assert MatrixValue.scalar(2.5).scalar_value() == 2.5
        with pytest.raises(ValueError):
            MatrixValue.dense(RNG.random((2, 2))).scalar_value()

    def test_random_sparse_density(self):
        value = MatrixValue.random_sparse(200, 100, 0.05, RNG)
        assert value.is_sparse
        assert 0.01 < value.sparsity < 0.12

    def test_filled_zero_is_sparse(self):
        zero = MatrixValue.filled(0.0, 10, 10)
        assert zero.nnz == 0
        ones = MatrixValue.filled(1.0, 4, 4)
        assert ones.nnz == 16

    def test_dense_nnz_counts_nan_and_inf_but_not_negative_zero(self):
        data = np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 1e-300]])
        assert MatrixValue(data).nnz == np.count_nonzero(data) == 4
        assert MatrixValue(data.T).nnz == 4

    def test_vector_input_reshaped_to_column(self):
        value = MatrixValue(np.arange(3.0))
        assert value.shape == (3, 1)

    def test_a_sparse_sum_repicks_by_its_stored_density(self):
        filled, empty = np.zeros((50, 50)), np.zeros((50, 50))
        filled[:30] = 1.0
        empty[0, 0] = 1.0
        wide, narrow = (MatrixValue(sparse.csr_matrix(a)) for a in (filled, empty))
        assert not kernels.elem_add(wide, narrow).is_sparse
        assert kernels.elem_add(narrow, narrow).is_sparse


class TestKernels:
    def test_elem_mul_broadcast_matches_numpy(self):
        a = MatrixValue.dense(RNG.random((4, 3)))
        v = MatrixValue.dense(RNG.random((4, 1)))
        assert np.allclose(kernels.elem_mul(a, v).to_dense(), a.to_dense() * v.to_dense())

    def test_elem_mul_sparse_broadcast(self):
        a = MatrixValue.random_sparse(30, 20, 0.1, RNG)
        v = MatrixValue.dense(RNG.random((30, 1)))
        assert np.allclose(kernels.elem_mul(a, v).to_dense(), a.to_dense() * v.to_dense())

    def test_elem_div_zero_by_zero_is_zero(self):
        a = MatrixValue.dense(np.array([[0.0, 2.0]]))
        b = MatrixValue.dense(np.array([[0.0, 4.0]]))
        assert np.allclose(kernels.elem_div(a, b).to_dense(), [[0.0, 0.5]])

    def test_matmul_sparse_dense(self):
        a = MatrixValue.random_sparse(20, 30, 0.2, RNG)
        b = MatrixValue.dense(RNG.random((30, 5)))
        assert np.allclose(kernels.matmul(a, b).to_dense(), a.to_dense() @ b.to_dense())

    def test_aggregations(self):
        a = MatrixValue.dense(RNG.random((6, 4)))
        assert np.allclose(kernels.row_sums(a).to_dense().ravel(), a.to_dense().sum(axis=1))
        assert np.allclose(kernels.col_sums(a).to_dense().ravel(), a.to_dense().sum(axis=0))
        assert kernels.full_sum(a).scalar_value() == pytest.approx(a.to_dense().sum())

    def test_unary_functions(self):
        a = MatrixValue.dense(RNG.random((3, 3)) + 0.1)
        assert np.allclose(kernels.unary("log", a).to_dense(), np.log(a.to_dense()))
        assert np.allclose(kernels.unary("sigmoid", a).to_dense(), 1 / (1 + np.exp(-a.to_dense())))
        with pytest.raises(ValueError):
            kernels.unary("nope", a)

    def test_wsloss_matches_definition(self):
        x = MatrixValue.random_sparse(40, 30, 0.1, RNG)
        u = MatrixValue.dense(RNG.random((40, 3)))
        v = MatrixValue.dense(RNG.random((30, 3)))
        expected = float(np.sum((x.to_dense() - u.to_dense() @ v.to_dense().T) ** 2))
        assert kernels.wsloss(x, u, v, None).scalar_value() == pytest.approx(expected)

    def test_weighted_wsloss_matches_definition(self):
        x = MatrixValue.random_sparse(20, 10, 0.2, RNG)
        w = MatrixValue.random_sparse(20, 10, 0.2, RNG)
        u = MatrixValue.dense(RNG.random((20, 2)))
        v = MatrixValue.dense(RNG.random((10, 2)))
        expected = float(np.sum(w.to_dense() * (x.to_dense() - u.to_dense() @ v.to_dense().T) ** 2))
        assert kernels.wsloss(x, u, v, w).scalar_value() == pytest.approx(expected)

    def test_wcemm_matches_definition(self):
        x = MatrixValue.random_sparse(25, 15, 0.2, RNG)
        w = MatrixValue.dense(RNG.random((25, 4)) + 0.5)
        h = MatrixValue.dense(RNG.random((4, 15)) + 0.5)
        expected = float(np.sum(x.to_dense() * np.log(w.to_dense() @ h.to_dense())))
        assert kernels.wcemm(x, w, h).scalar_value() == pytest.approx(expected)

    def test_wdivmm_matches_definition(self):
        x = MatrixValue.random_sparse(25, 15, 0.2, RNG)
        w = MatrixValue.dense(RNG.random((25, 4)) + 0.5)
        h = MatrixValue.dense(RNG.random((4, 15)) + 0.5)
        quotient = np.where(x.to_dense() != 0, x.to_dense() / (w.to_dense() @ h.to_dense()), 0.0)
        left = kernels.wdivmm(x, w, h, multiply_left=True).to_dense()
        right = kernels.wdivmm(x, w, h, multiply_left=False).to_dense()
        assert np.allclose(left, w.to_dense().T @ quotient)
        assert np.allclose(right, quotient @ h.to_dense().T)

    def test_mmchain_matches_definition(self):
        x = MatrixValue.random_sparse(30, 8, 0.3, RNG)
        v = MatrixValue.dense(RNG.random((8, 1)))
        w = MatrixValue.dense(RNG.random((30, 1)))
        expected = x.to_dense().T @ (w.to_dense() * (x.to_dense() @ v.to_dense()))
        assert np.allclose(kernels.mmchain(x, v, w).to_dense(), expected)

    def test_sprop(self):
        p = MatrixValue.dense(RNG.random((6, 1)))
        assert np.allclose(kernels.sprop(p).to_dense(), p.to_dense() * (1 - p.to_dense()))


class TestExecutor:
    def setup_method(self):
        self.symbols = standard_symbols()
        self.inputs = numeric_inputs(5)

    def test_executes_arithmetic_correctly(self):
        X, Y, u = self.symbols["X"], self.symbols["Y"], self.symbols["u"]
        expr = Sum((X + Y) * u) - Sum(X * u)
        expected = float(np.sum((self.inputs["X"] + self.inputs["Y"]) * self.inputs["u"]) - np.sum(self.inputs["X"] * self.inputs["u"]))
        assert run_la(expr, self.inputs)[0, 0] == pytest.approx(expected)

    def test_missing_input_raises(self):
        with pytest.raises(ExecutionError):
            execute(self.symbols["X"], {})

    def test_shared_subexpression_executed_once(self):
        X, u = self.symbols["X"], self.symbols["u"]
        shared = X @ self.symbols["v"]
        expr = Sum(shared) + Sum(shared * u)
        result = execute(expr, {k: MatrixValue.dense(v) for k, v in self.inputs.items()})
        assert result.stats.operator_counts.get("matmul", 0) == 1

    def test_stats_track_intermediates_and_fusion(self):
        X, u, v = self.symbols["X"], self.symbols["u"], self.symbols["v"]
        fused = la.WSLoss(X, u, v, la.Literal(1.0))
        result = execute(fused, {k: MatrixValue.dense(val) for k, val in self.inputs.items()})
        assert result.stats.fused_operators == 1
        unfused = Sum((X - u @ v.T) ** 2)
        plain = execute(unfused, {k: MatrixValue.dense(val) for k, val in self.inputs.items()})
        assert plain.stats.intermediates > 0
        assert plain.stats.peak_intermediate_cells >= 7 * 5

    def test_unary_and_division(self):
        X, Y = self.symbols["X"], self.symbols["Y"]
        expr = Sum(sigmoid(X) / (Y + 1.0))
        expected = float(np.sum((1 / (1 + np.exp(-self.inputs["X"]))) / (self.inputs["Y"] + 1.0)))
        assert run_la(expr, self.inputs)[0, 0] == pytest.approx(expected)


class TestFusion:
    def setup_method(self):
        self.symbols = standard_symbols()
        self.inputs = numeric_inputs(9)

    def test_wsloss_pattern_fused(self):
        X, u, v = self.symbols["X"], self.symbols["u"], self.symbols["v"]
        expr = Sum((X - u @ v.T) ** 2)
        fused = fuse_operators(expr)
        assert isinstance(fused, la.WSLoss)

    def test_wcemm_pattern_fused_only_without_sharing(self):
        X, A, B = self.symbols["X"], self.symbols["A"], self.symbols["B"]
        product = A @ B
        alone = Sum(X * log(product))
        assert isinstance(fuse_operators(alone), la.WCeMM)
        shared = Sum(product) - Sum(X * log(product))
        fused_shared = fuse_operators(shared)
        assert not any(isinstance(node, la.WCeMM) for node in fused_shared.walk())

    def test_sprop_pattern_fused(self):
        P = self.symbols["u"]
        expr = P * (la.Literal(1.0) - P)
        assert isinstance(fuse_operators(expr), la.SProp)

    def test_mmchain_pattern_fused(self):
        X, v, u = self.symbols["X"], self.symbols["v"], self.symbols["u"]
        expr = X.T @ (u * (X @ v))
        fused = fuse_operators(expr)
        assert isinstance(fused, la.MMChain)

    def test_wdivmm_pattern_fused(self):
        X, A, B = self.symbols["X"], self.symbols["A"], self.symbols["B"]
        expr = A.T @ (X / (A @ B))
        fused = fuse_operators(expr)
        assert isinstance(fused, la.WDivMM) and fused.multiply_left

    def test_fusion_preserves_semantics(self):
        X, u, v = self.symbols["X"], self.symbols["u"], self.symbols["v"]
        for expr in (
            Sum((X - u @ v.T) ** 2),
            X.T @ (u * (X @ v)),
            u * (la.Literal(1.0) - u),
        ):
            fused = fuse_operators(expr)
            np.testing.assert_allclose(run_la(fused, self.inputs), run_la(expr, self.inputs), rtol=1e-9)
