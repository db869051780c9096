"""Representation and layout are fixed when an executable is built.

* every op-table row declares the representation its real kernel returns
  (``delivers``), and the kernel returns exactly that;
* no kernel output is re-counted: ``np.count_nonzero`` is never called;
* a width-1 product over a pinned sparse operand read transposed gets a
  hoisted ``RowMajor`` step, whose CSR copy sums every output entry in the
  stored CSC's order — bitwise at every width the rule can meet.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.api import Session
from repro.lang import dag
from repro.lang import expr as la
from repro.lang.dims import UNIT, Dim, Shape
from repro.optimizer import OptimizerConfig
from repro.runtime import MatrixValue, kernels
from repro.runtime.optable import DENSE, OP_TABLE, REPICK, SPARSE
from repro.workloads import get_workload

REAL = kernels.for_ring("real")
WIDTHS = (1, 2, 8, 32)


def _matrix(rng, rows, cols, density=0.3, stored_zeros=True):
    """A canonical CSR matrix with empty rows and columns and, optionally,
    explicitly stored zeros among its entries."""
    mask = rng.random((rows, cols)) < density
    mask[rng.random(rows) < 0.2, :] = False
    mask[:, rng.random(cols) < 0.2] = False
    values = rng.standard_normal((rows, cols))
    if stored_zeros:
        values[rng.random((rows, cols)) < 0.1] = 0.0
    r, c = np.nonzero(mask)
    matrix = sparse.csr_matrix((values[r, c], (r, c)), shape=(rows, cols))
    matrix.sort_indices()
    return matrix


class TestRowMajorCopy:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(2, 60),
        cols=st.integers(2, 40),
        density=st.sampled_from([0.02, 0.2, 0.7]),
    )
    def test_every_layout_pair_answers_bitwise(self, seed, rows, cols, density):
        rng = np.random.default_rng(seed)
        x = MatrixValue(_matrix(rng, rows, cols, density))
        stored = x.transpose()  # t(X): a CSC view
        copied = REAL.row_major(stored)
        assert stored.data.format == "csc" and copied.row_major.format == "csr"
        assert copied.row_major.nnz == stored.data.nnz  # stored zeros kept
        for width in WIDTHS:
            v = MatrixValue(rng.standard_normal((rows, width)))
            want = REAL.matmul(stored, v).data
            # the rule's pick (the copy at width 1, the stored CSC wider) and
            # the copy at every width
            for got in (REAL.matmul(copied, v).data, copied.row_major @ v.data):
                assert isinstance(got, np.ndarray) and got.shape == (cols, width)
                assert np.array_equal(got, want), width
                assert np.array_equal(np.signbit(got), np.signbit(want)), width

    def test_a_csr_value_needs_no_copy(self):
        value = MatrixValue(_matrix(np.random.default_rng(0), 8, 5))
        assert REAL.row_major(value) is value
        dense = MatrixValue(np.ones((3, 2)))
        assert REAL.row_major(dense) is dense


def _operand(shape, is_sparse, rng):
    array = np.where(rng.random(shape) < 0.5, rng.random(shape) + 0.5, 0.0)
    return MatrixValue(sparse.csr_matrix(array)) if is_sparse else MatrixValue(array)


class TestDeclaredRepresentation:
    """A row's ``delivers`` is what its real kernel returns, for every
    representation of its operands and every broadcast shape."""

    m, n = Dim("m", 6), Dim("n", 4)

    def _nodes(self):
        m, n = self.m, self.n
        A = la.Var("A", Shape(m, n))
        B = la.Var("B", Shape(m, n))
        col = la.Var("c", Shape(m, UNIT))
        row = la.Var("r", Shape(UNIT, n))
        s = la.Var("s", Shape(UNIT, UNIT))
        q = la.Var("q", Shape(n, UNIT))
        binary = [(A, B), (A, col), (col, A), (A, row), (row, col), (A, s), (s, A), (s, s)]
        nodes = []
        for kind in (la.ElemMul, la.ElemPlus, la.ElemMinus, la.ElemDiv):
            nodes += [kind(left, right) for left, right in binary]
        nodes += [
            la.MatMul(A, q), la.MatMul(la.Transpose(A), B), la.MatMul(s, A),
            la.Power(A, 2.0), la.Power(A, 0.0), la.Neg(A),
            la.UnaryFunc("abs", A), la.UnaryFunc("exp", A),
            la.RowSums(A), la.ColSums(A), la.Sum(A), la.Transpose(A),
            la.RowMajor(la.Transpose(A)), la.SProp(A),
        ]
        return nodes

    def test_kernels_deliver_what_their_rows_declare(self):
        rng = np.random.default_rng(7)
        checked = set()
        for node in self._nodes():
            spec = OP_TABLE[type(node)]
            operands = spec.operands(node)
            for flags in itertools.product((False, True), repeat=len(operands)):
                values = []
                for operand, is_sparse in zip(operands, flags):
                    value = _operand((operand.shape.rows.size or 1, operand.shape.cols.size or 1),
                                     is_sparse, rng)
                    values.append(value if not isinstance(operand, la.Transpose)
                                  else _operand(value.shape[::-1], is_sparse, rng).transpose())
                declared = spec.delivers(node, flags)
                with np.errstate(divide="ignore", invalid="ignore"):
                    got = spec.bind(node, REAL)(*values)
                if declared == REPICK:
                    assert got.is_sparse == (got.nnz < 0.4 * got.cells), node
                else:
                    assert got.is_sparse == (declared == SPARSE), (node, flags)
                checked.add(declared)
        assert checked == {DENSE, SPARSE, REPICK}


class TestNoOutputIsRecounted:
    def test_no_kernel_or_executable_calls_count_nonzero(self, monkeypatch):
        workload = get_workload("GLM", "S")
        session = Session(OptimizerConfig.sampling_greedy())
        inputs = workload.inputs(0)
        runs = []
        for root, expr in workload.roots.items():
            plan = session.compile(expr)
            names = [var.name for var in dag.variables(expr)]
            values = [inputs[plan.input_names[i]] for i in range(len(names))]
            runs.append((plan.executable(), values))
        counted = []
        real = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", lambda *a, **k: counted.append(1) or real(*a, **k))
        for executable, values in runs:
            executable.execute(values)
        rng = np.random.default_rng(3)
        x = MatrixValue(_matrix(rng, 30, 20))
        dense = MatrixValue(rng.random((30, 20)))
        u, v = MatrixValue(rng.random((30, 3)) + 0.5), MatrixValue(rng.random((20, 3)) + 0.5)
        for a, b in itertools.product((x, dense, x.transpose().transpose()), repeat=2):
            for kernel in (REAL.elem_mul, REAL.elem_add, REAL.elem_sub, REAL.elem_div):
                with np.errstate(divide="ignore", invalid="ignore"):
                    kernel(a, b)
            REAL.matmul(a.transpose(), b)
            for unary in (REAL.row_sums, REAL.col_sums, REAL.full_sum, REAL.negate, REAL.sprop):
                unary(a)
            REAL.power(a, 2.0)
            REAL.unary("abs", a)
            REAL.wsloss(a, u, v, None)
            REAL.wcemm(x, u, MatrixValue(v.data.T))
            REAL.wdivmm(x, u, MatrixValue(v.data.T), True)
            REAL.mmchain(a, MatrixValue(rng.random((20, 1))), None)
        assert counted == []


class TestPinnedHessianVectorReadsRowMajor:
    def test_adopts_within_n_star_runs_and_answers_bitwise(self):
        workload = get_workload("GLM", "S")
        expr = workload.roots["hessian_vector"]
        inputs = workload.inputs(0)
        names = [var.name for var in dag.variables(expr)]
        plan = Session(OptimizerConfig.sampling_greedy()).compile(expr)
        reference = Session(OptimizerConfig.sampling_greedy()).compile(expr)
        original = plan._entry
        rng = np.random.default_rng(11)
        adopted_at = None
        for run in range(12):
            fresh = {
                name: MatrixValue(rng.uniform(0.05, 0.95, inputs[name].shape))
                for name in names if name != "X"
            }
            got = plan.run({"X": inputs["X"], **fresh}).value
            x_copy = MatrixValue(inputs["X"].data.copy())  # the reference never pins
            want = reference.run({"X": x_copy, **fresh}).value
            assert got.is_sparse == want.is_sparse and np.array_equal(got.data, want.data), run
            if adopted_at is None and plan._entry is not original:
                adopted_at = run + 1
        (n_star,) = [n for context, (_, n) in plan._contexts.items() if context.pinned]
        assert np.isfinite(n_star) and adopted_at is not None and adopted_at <= n_star + 1
        executable = plan.executable()
        labels = [executable.step_label(i) for i in sorted(executable.hoisted.steps)]
        assert "RowMajor" in labels
        assert executable.hoisted.hits >= 12 - adopted_at - 1
