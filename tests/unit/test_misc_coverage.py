"""Additional coverage: RA interpreter, derivation records, reports, printing."""

import dataclasses

import numpy as np
import pytest

from repro.egraph.runner import RunnerConfig
from repro.lang import Dim, Matrix, Sum
from repro.lang import expr as la
from repro.lang.printer import pretty
from repro.optimizer import OptimizerConfig, compile_expression, derive
from repro.optimizer.pipeline import PhaseTimes
from repro.ra.attrs import Attr
from repro.ra.rexpr import RLit, RVar, radd, rjoin, rsum
from repro.runtime import MatrixValue, execute
from repro.runtime.ra_interp import RAInterpError, evaluate
from repro.translate import simplify
from repro.translate.lower import alpha_normalize, lower
from tests.helpers import numeric_inputs, run_la, standard_symbols


class TestRAInterpreter:
    def setup_method(self):
        self.i = Attr("i", 3)
        self.j = Attr("j", 2)
        self.rng = np.random.default_rng(2)
        self.inputs = {"X": self.rng.random((3, 2)), "u": self.rng.random(3)}
        self.sizes = {"i": 3, "j": 2}

    def test_join_is_pointwise_product(self):
        expr = rjoin([RVar("X", (self.i, self.j)), RVar("u", (self.i,))])
        value, axes = evaluate(expr, self.inputs, self.sizes)
        assert axes == ("i", "j")
        np.testing.assert_allclose(value, self.inputs["X"] * self.inputs["u"][:, None])

    def test_union_is_addition(self):
        expr = radd([RVar("X", (self.i, self.j)), RVar("X", (self.i, self.j))])
        value, _ = evaluate(expr, self.inputs, self.sizes)
        np.testing.assert_allclose(value, 2 * self.inputs["X"])

    def test_aggregate_sums_axes(self):
        expr = rsum({self.i}, RVar("X", (self.i, self.j)))
        value, axes = evaluate(expr, self.inputs, self.sizes)
        assert axes == ("j",)
        np.testing.assert_allclose(value, self.inputs["X"].sum(axis=0))

    def test_aggregate_of_unused_index_scales(self):
        expr = rsum({self.j}, RVar("u", (self.i,)))
        value, _ = evaluate(expr, self.inputs, self.sizes)
        np.testing.assert_allclose(value, 2 * self.inputs["u"])

    def test_scalar_literal(self):
        value, axes = evaluate(RLit(4.0), {}, {})
        assert axes == () and float(value) == 4.0

    def test_missing_input_raises(self):
        with pytest.raises(RAInterpError):
            evaluate(RVar("missing", (self.i,)), {}, self.sizes)


class TestAlphaNormalization:
    def test_independent_scopes_share_names(self):
        symbols = standard_symbols()
        lowered = lower(Sum(symbols["X"]) + Sum(symbols["Y"]))
        names = {
            attr.name
            for node in lowered.plan.body.walk()
            if hasattr(node, "indices")
            for attr in node.indices
        }
        assert names == {"m", "n"}

    def test_live_output_attribute_is_never_captured(self):
        symbols = standard_symbols()
        lowered = lower((symbols["A"] @ symbols["B"]) * (symbols["A"] @ symbols["B"]))
        from repro.ra import schema

        schema.validate(lowered.plan.body)

    def test_normalization_is_idempotent(self):
        symbols = standard_symbols()
        body = lower(Sum(symbols["A"] @ symbols["B"])).plan.body
        assert alpha_normalize(body) == body


class TestDerivationAndReports:
    def test_derive_reports_failure_for_inequivalent_expressions(self):
        symbols = standard_symbols()
        result = derive(
            Sum(symbols["X"]),
            Sum(symbols["Y"]),
            config=RunnerConfig(iter_limit=3, node_limit=500, time_limit=2.0),
            extra_iterations=1,
        )
        assert not result.derived

    def test_derive_never_stops_on_a_plateau_and_forwards_the_whole_config(self, monkeypatch):
        """A proof is wanted, not a cheaper plan: both runs get ``plateau=0``,
        and the second run differs from the first in budget and seed only
        (it used to be rebuilt field by field and dropped ``incremental``)."""
        from repro.optimizer import derivation

        seen = []

        class Recording(derivation.Runner):
            def __init__(self, config):
                seen.append(config)
                super().__init__(config)

        monkeypatch.setattr(derivation, "Runner", Recording)
        symbols = standard_symbols()
        config = RunnerConfig(
            iter_limit=2, node_limit=500, time_limit=2.0, incremental=False, plateau=3, seed=5
        )
        derive(Sum(symbols["X"]), Sum(symbols["Y"]), config=config, extra_iterations=1)
        first, second = seen
        assert config.plateau == 3  # the caller's object is not edited
        assert first == dataclasses.replace(config, plateau=0)
        assert second == dataclasses.replace(first, iter_limit=1, seed=6)
        assert not second.incremental

    def test_derive_handles_barrier_expressions_gracefully(self):
        symbols = standard_symbols()
        barrier = la.UnaryFunc("exp", symbols["X"])
        result = derive(barrier, barrier)
        assert result.method == "lowering-failed"
        assert not result.derived

    def test_phase_times_accumulate(self):
        a = PhaseTimes(translate=1.0, saturate=2.0, extract=3.0)
        b = PhaseTimes(translate=0.5, saturate=0.5, extract=0.5)
        a += b
        assert a.total == pytest.approx(7.5)

    def test_optimizer_report_speedup_and_saturation_flags(self):
        symbols = standard_symbols()
        config = OptimizerConfig.sampling_greedy()
        config.runner = RunnerConfig(iter_limit=4, node_limit=2_000, time_limit=2.0)
        report = compile_expression(Sum(symbols["A"] @ symbols["B"]), config).report
        assert report.speedup_estimate >= 1.0
        assert isinstance(report.saturated, bool)
        assert report.regions == 1


class TestPrinterAndSimplifyExtras:
    def test_fused_operators_print_readably(self):
        symbols = standard_symbols()
        X, u, v = symbols["X"], symbols["u"], symbols["v"]
        assert pretty(la.WSLoss(X, u, v, la.Literal(1.0))) == "wsloss(X, u, v, 1)"
        assert pretty(la.WCeMM(X, u, v.T)) == "wcemm(X, u, t(v))"
        assert "wdivmm" in pretty(la.WDivMM(X, u, v.T, multiply_left=True))
        assert pretty(la.SProp(u)) == "sprop(u)"
        assert "mmchain" in pretty(la.MMChain(X, v, la.Literal(1.0)))

    def test_filled_matrix_demoted_to_scalar_in_elementwise_ops(self):
        symbols = standard_symbols()
        P = symbols["u"]
        filled = la.FilledMatrix(1.0, P.shape)
        simplified = simplify(la.ElemMinus(filled, P))
        assert simplified == la.ElemMinus(la.Literal(1.0), P)

    def test_simplified_filled_matrix_preserves_semantics(self):
        symbols = standard_symbols()
        inputs = numeric_inputs(8)
        P = symbols["u"]
        expr = P * la.ElemMinus(la.FilledMatrix(1.0, P.shape), P)
        np.testing.assert_allclose(run_la(simplify(expr), inputs), run_la(expr, inputs))


class TestExecutorFusedNodes:
    def test_wdivmm_node_executes_both_sides(self):
        m, r, n = Dim("m", 30), Dim("r", 4), Dim("n", 20)
        X = Matrix("X", m, n, sparsity=0.2)
        W = Matrix("W", m, r)
        H = Matrix("H", r, n)
        rng = np.random.default_rng(5)
        inputs = {
            "X": MatrixValue.random_sparse(30, 20, 0.2, rng),
            "W": MatrixValue.random_dense(30, 4, rng, scale=0.5),
            "H": MatrixValue.random_dense(4, 20, rng, scale=0.5),
        }
        dense_x = inputs["X"].to_dense()
        quotient = np.where(dense_x != 0, dense_x / (inputs["W"].to_dense() @ inputs["H"].to_dense()), 0.0)
        left = execute(la.WDivMM(X, W, H, multiply_left=True), inputs).to_dense()
        np.testing.assert_allclose(left, inputs["W"].to_dense().T @ quotient, rtol=1e-9)
        right = execute(la.WDivMM(X, W, H, multiply_left=False), inputs).to_dense()
        np.testing.assert_allclose(right, quotient @ inputs["H"].to_dense().T, rtol=1e-9)

    def test_wdivmm_shape_inference(self):
        m, r, n = Dim("m", 30), Dim("r", 4), Dim("n", 20)
        X, W, H = Matrix("X", m, n), Matrix("W", m, r), Matrix("H", r, n)
        assert la.WDivMM(X, W, H, True).shape.rows.name == "r"
        assert la.WDivMM(X, W, H, False).shape.cols.name == "r"


class TestWorkloadMediumSizes:
    @pytest.mark.parametrize("name", ["ALS", "MLR"])
    def test_medium_ladder_builds_and_scales(self, name):
        from repro.workloads import WORKLOADS

        small = WORKLOADS[name].build("S")
        medium = WORKLOADS[name].build("M")
        assert medium.size.rows > small.size.rows
        assert medium.roots.keys() == small.roots.keys()
