"""Integration tests: the full SPORES pipeline on realistic expressions."""

import pytest

from repro.cost import LACostModel
from repro.lang import ColSums, Dim, Matrix, RowSums, Sum, Vector
from repro.lang import expr as la
from repro.lang.builder import log
from repro.optimizer import OptimizerConfig, compile_expression
from repro.runtime import fuse_operators
from tests.helpers import assert_same_result, numeric_inputs, run_la, standard_symbols


COST = LACostModel()


def spores(expr, extractor="greedy", **runner_overrides):
    config = (
        OptimizerConfig.sampling_greedy() if extractor == "greedy" else OptimizerConfig.sampling_ilp()
    )
    for key, value in runner_overrides.items():
        setattr(config.runner, key, value)
    return compile_expression(expr, config).report


class TestPipelineBasics:
    def setup_method(self):
        self.symbols = standard_symbols()
        self.inputs = numeric_inputs(13)

    def test_report_contains_costs_and_times(self):
        expr = Sum(self.symbols["X"] * self.symbols["Y"])
        report = spores(expr)
        assert report.original_cost > 0
        assert report.optimized_cost <= report.original_cost
        assert report.phase_times.total >= 0
        assert report.regions >= 1

    def test_leaf_expression_is_left_alone(self):
        report = spores(self.symbols["X"])
        assert report.optimized == self.symbols["X"]

    def test_barrier_children_are_still_optimized(self):
        X, A, B = self.symbols["X"], self.symbols["A"], self.symbols["B"]
        expr = log(Sum(A @ B) + la.Literal(1.0))
        report = spores(expr)
        assert isinstance(report.optimized, la.UnaryFunc)
        assert not any(isinstance(node, la.MatMul) for node in report.optimized.walk())

    def test_never_regresses_estimated_cost(self):
        for build in (
            lambda s: Sum((s["X"] - s["u"] @ s["v"].T) ** 2),
            lambda s: ColSums(s["X"] * s["u"]),
            lambda s: s["A"] @ s["B"] @ s["v"],
        ):
            expr = build(self.symbols)
            report = spores(expr)
            assert report.optimized_cost <= report.original_cost + 1e-9

    @pytest.mark.parametrize("extractor", ["greedy", "ilp"])
    def test_optimized_plans_preserve_semantics(self, extractor):
        expressions = [
            Sum((self.symbols["X"] - self.symbols["u"] @ self.symbols["v"].T) ** 2),
            (self.symbols["u"] @ self.symbols["v"].T - self.symbols["X"]) @ self.symbols["v"],
            Sum(self.symbols["A"] @ self.symbols["B"]),
            self.symbols["X"] - self.symbols["Y"] * self.symbols["X"],
            ColSums(self.symbols["X"] * self.symbols["u"]),
        ]
        for expr in expressions:
            report = spores(expr, extractor=extractor)
            assert_same_result(run_la(expr, self.inputs), run_la(report.optimized, self.inputs))


class TestPaperCaseStudies:
    """The concrete optimizations Sec. 4.2 credits SPORES with finding."""

    def test_intro_example_sum_of_squared_residual(self):
        m, n = Dim("m", 10_000), Dim("n", 5_000)
        X = Matrix("X", m, n, sparsity=1e-3)
        u = Vector("u", m)
        v = Vector("v", n)
        expr = Sum((X - u @ v.T) ** 2)
        # With fusion disabled the optimizer must discover the paper's
        # three-term expansion sum(X^2) - 2 sum(X*u*v^T) + sum(u^2) sum(v^2)
        # and avoid the dense m-by-n outer product entirely.
        config = OptimizerConfig.sampling_greedy(fusion_aware=False)
        report = compile_expression(expr, config).report
        assert report.optimized_cost < 0.05 * report.original_cost
        assert report.speedup_estimate > 20
        assert not any(
            isinstance(node, la.MatMul) and node.shape.rows.size == 10_000 and node.shape.cols.size == 5_000
            for node in report.optimized.walk()
        )
        # With fusion awareness on (the default), the chosen plan after the
        # fusion pass must be at least as cheap as the expanded form.
        default_report = spores(expr)
        fused_cost = COST.total(fuse_operators(default_report.optimized))
        assert fused_cost <= COST.total(report.optimized) + 1e-6

    def test_als_gradient_distributes_to_exploit_sparsity(self):
        m, n, r = Dim("m", 20_000), Dim("n", 5_000), Dim("r", 10)
        X = Matrix("X", m, n, sparsity=1e-3)
        U = Matrix("U", m, r)
        V = Matrix("V", n, r)
        expr = (U @ V.T - X) @ V
        report = spores(expr)
        optimized = report.optimized
        # The paper's rewrite: (UV^T - X)V -> U(V^T V) - XV; the m-by-n dense
        # intermediate must be gone and the small r-by-r product must appear.
        assert report.optimized_cost < 0.05 * report.original_cost
        matmuls = [node for node in optimized.walk() if isinstance(node, la.MatMul)]
        assert any(
            node.left.shape.cols.size == 10 and node.right.shape.cols.size == 10 for node in matmuls
        )

    def test_pnmf_sum_of_product_avoids_dense_intermediate(self):
        m, n, r = Dim("m", 20_000), Dim("n", 10_000), Dim("r", 10)
        W = Matrix("W", m, r)
        H = Matrix("H", r, n)
        expr = Sum(W @ H)
        report = spores(expr)
        assert not any(isinstance(node, la.MatMul) and node.shape.rows.size == 20_000 and node.shape.cols.size == 10_000
                       for node in report.optimized.walk())
        assert report.optimized_cost < 0.01 * report.original_cost

    def test_pnmf_objective_breaks_sharing_and_enables_wcemm(self):
        m, n, r = Dim("m", 5_000), Dim("n", 2_000), Dim("r", 10)
        X = Matrix("X", m, n, sparsity=1e-3)
        W = Matrix("W", m, r)
        H = Matrix("H", r, n)
        product = W @ H
        objective = Sum(product) - Sum(X * log(product))
        report = spores(objective)
        fused = fuse_operators(report.optimized)
        assert any(isinstance(node, la.WCeMM) for node in fused.walk())
        # The dense product must no longer be materialised anywhere.
        assert not any(isinstance(node, la.MatMul) and node == product for node in fused.walk())

    def test_mlr_factoring_enables_sprop(self):
        n, d = Dim("n", 50_000), Dim("d", 100)
        X = Matrix("X", n, d, sparsity=0.05)
        P = Vector("P", n)
        expr = P * X - P * RowSums(P) * X
        report = spores(expr)
        fused = fuse_operators(report.optimized)
        assert any(isinstance(node, la.SProp) for node in fused.walk())
        assert report.optimized_cost <= 0.6 * report.original_cost

    def test_wsloss_form_is_not_destroyed(self):
        m, n, r = Dim("m", 5_000), Dim("n", 2_000), Dim("r", 10)
        X = Matrix("X", m, n, sparsity=1e-3)
        U = Matrix("U", m, r)
        V = Matrix("V", n, r)
        expr = Sum((X - U @ V.T) ** 2)
        report = spores(expr)
        fused = fuse_operators(report.optimized)
        assert COST.total(fused) <= COST.total(fuse_operators(expr)) + 1e-6


class TestModuleLevelHelpers:
    def test_optimize_shortcut(self):
        symbols = standard_symbols()
        report = compile_expression(Sum(symbols["X"]), OptimizerConfig.sampling_greedy()).report
        assert report.optimized is not None

    def test_config_presets(self):
        assert OptimizerConfig.sampling_ilp().extractor == "ilp"
        assert OptimizerConfig.sampling_greedy().extractor == "greedy"
        assert OptimizerConfig.dfs_greedy().runner.strategy == "dfs"
        with pytest.raises(ValueError):
            OptimizerConfig(extractor="magic")

    def test_callable_interface(self):
        symbols = standard_symbols()
        artifact = compile_expression(
            Sum(symbols["X"] * symbols["Y"]), OptimizerConfig.sampling_greedy()
        )
        assert isinstance(artifact.optimized, la.LAExpr)
