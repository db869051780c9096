"""Unit tests for lowering (R_LR), lifting, and LA simplification."""

import numpy as np
import pytest

from repro.api import Session
from repro.lang import ColSums, Dim, Matrix, RowSums, Scalar, Sum
from repro.lang import expr as la
from repro.optimizer import OptimizerConfig
from repro.runtime import MatrixValue, execute
from repro.ra.rexpr import RJoin, RSum, RVar, free_attrs
from repro.ra import schema
from repro.translate import LoweringError, Lifter, lift, lower, simplify
from repro.translate.lower import is_barrier, expand_fused
from repro.ra.rexpr import RPlanOutput
from tests.helpers import assert_same_result, numeric_inputs, run_la, run_ra_of, standard_symbols


@pytest.fixture
def symbols():
    return standard_symbols()


@pytest.fixture
def inputs():
    return numeric_inputs(3)


class TestLowering:
    def test_var_gets_attrs_named_after_dims(self, symbols):
        lowered = lower(symbols["X"])
        body = lowered.plan.body
        assert isinstance(body, RVar)
        assert [a.name for a in body.attrs] == ["m", "n"]
        assert body.attrs[0].size == 7

    def test_transpose_swaps_output_attrs(self, symbols):
        lowered = lower(symbols["X"].T)
        assert lowered.plan.row_attr.name == "n"
        assert lowered.plan.col_attr.name == "m"

    def test_matmul_lowered_to_aggregated_join(self, symbols):
        lowered = lower(symbols["A"] @ symbols["B"])
        body = lowered.plan.body
        assert isinstance(body, RSum)
        assert {a.name for a in body.indices} == {"k"}
        assert isinstance(body.child, RJoin)

    def test_sum_aggregates_both_dims(self, symbols):
        lowered = lower(Sum(symbols["X"]))
        assert isinstance(lowered.plan.body, RSum)
        assert len(lowered.plan.body.indices) == 2
        assert lowered.plan.row_attr is None and lowered.plan.col_attr is None

    def test_rowsums_of_column_vector_is_identity(self, symbols):
        lowered = lower(RowSums(symbols["u"]))
        assert isinstance(lowered.plan.body, RVar)

    def test_elemminus_uses_minus_one_coefficient(self, symbols):
        lowered = lower(symbols["X"] - symbols["Y"])
        assert free_attrs(lowered.plan.body) == free_attrs(lower(symbols["X"]).plan.body)

    def test_broadcast_addition_pads_with_ones(self, symbols):
        lowered = lower(symbols["X"] + Scalar("eps"))
        names = {sub.name for sub in lowered.plan.body.walk() if isinstance(sub, RVar)}
        assert any(name.startswith("__ones__") for name in names)

    def test_power_expands_to_repeated_join(self, symbols):
        lowered = lower(symbols["X"] ** 2)
        assert isinstance(lowered.plan.body, RJoin)
        assert len(lowered.plan.body.args) == 2

    def test_non_integer_power_is_barrier(self, symbols):
        assert is_barrier(symbols["X"] ** 0.5)
        with pytest.raises(LoweringError):
            lower(symbols["X"] ** 0.5)

    @pytest.mark.parametrize(
        "dims",
        [(Dim("a", 5), Dim("a.b", 7)), (Dim("p", 5), Dim("a.b", 7)), (Dim("a", 5), Dim("a", 7))],
        ids=["dotted-name-with-prefix-dim", "dotted-name", "one-name-two-sizes"],
    )
    def test_dims_attribute_names_cannot_identify_are_refused(self, dims):
        """The lift reads an attribute's dim back from its name, so a dim whose
        attributes would name another dim sends the region to the fallback:
        the compiled plan still answers ``sum(X) + 2·5·7``."""
        X = Matrix("X", *dims)
        expr = Sum(X + 2.0)
        with pytest.raises(LoweringError):
            lower(expr)
        inputs = {"X": MatrixValue.random_dense(5, 7, np.random.default_rng(0))}
        plan = Session(OptimizerConfig.sampling_greedy()).compile(expr)
        assert plan.run(inputs).scalar() == pytest.approx(execute(expr, inputs).scalar(), rel=1e-12)

    def test_division_and_unary_functions_are_barriers(self, symbols):
        assert is_barrier(symbols["X"] / symbols["Y"])
        assert is_barrier(la.UnaryFunc("exp", symbols["X"]))
        assert not is_barrier(symbols["X"] * symbols["Y"])

    def test_fused_operators_expand_to_definitions(self, symbols):
        X, u, v = symbols["X"], symbols["u"], symbols["v"]
        wsloss = la.WSLoss(X, u, v, la.Literal(1.0))
        assert expand_fused(wsloss) == Sum((X - u @ la.Transpose(v)) ** 2)
        sprop = la.SProp(u)
        assert expand_fused(sprop) == u * (la.Literal(1.0) - u)

    def test_lowered_plans_are_schema_valid(self, symbols):
        for expr in (
            Sum((symbols["X"] - symbols["u"] @ symbols["v"].T) ** 2),
            ColSums(symbols["X"] * symbols["u"]),
            symbols["A"] @ symbols["B"] @ symbols["v"],
        ):
            lowered = lower(expr)
            schema.validate(lowered.plan.body)

    @pytest.mark.parametrize(
        "build",
        [
            lambda s: Sum(s["X"]),
            lambda s: Sum(s["X"] * s["Y"]),
            lambda s: RowSums(s["X"] * s["u"]),
            lambda s: ColSums(s["X"]),
            lambda s: s["A"] @ s["B"],
            lambda s: s["X"].T @ s["u"],
            lambda s: Sum((s["X"] - s["u"] @ s["v"].T) ** 2),
            lambda s: (s["u"] @ s["v"].T - s["X"]) @ s["v"],
            lambda s: s["X"] - s["Y"] * s["X"],
        ],
    )
    def test_lowering_preserves_semantics(self, symbols, inputs, build):
        expr = build(symbols)
        assert_same_result(run_la(expr, inputs), run_ra_of(expr, inputs))


class TestLifting:
    def _roundtrip(self, expr, inputs):
        lowered = lower(expr)
        lifted = lift(lowered.plan, lowered.symbols, lowered.ones_dims)
        assert_same_result(run_la(expr, inputs), run_la(lifted, inputs))
        return lifted

    @pytest.mark.parametrize(
        "build",
        [
            lambda s: s["X"],
            lambda s: s["X"].T,
            lambda s: Sum(s["X"]),
            lambda s: s["A"] @ s["B"],
            lambda s: Sum(s["X"] * s["Y"]),
            lambda s: RowSums(s["X"]),
            lambda s: ColSums(s["X"] * s["u"]),
            lambda s: s["X"] * s["u"],
            lambda s: s["u"] @ s["v"].T,
            lambda s: Sum((s["X"] - s["u"] @ s["v"].T) ** 2),
            lambda s: (s["u"] @ s["v"].T - s["X"]) @ s["v"],
            lambda s: s["X"] - s["Y"],
        ],
    )
    def test_lower_lift_roundtrip_preserves_semantics(self, symbols, inputs, build):
        self._roundtrip(build(symbols), inputs)

    def test_lift_orients_transposed_leaves(self, symbols, inputs):
        lowered = lower(symbols["X"].T)
        lifted = lift(lowered.plan, lowered.symbols, lowered.ones_dims)
        assert_same_result(run_la(symbols["X"].T, inputs), run_la(lifted, inputs))

    def test_lift_aggregated_three_attr_join_uses_matmul(self, symbols):
        lowered = lower(symbols["A"] @ symbols["B"])
        lifted = lift(lowered.plan, lowered.symbols, lowered.ones_dims)
        assert any(isinstance(node, la.MatMul) for node in lifted.walk())

    def test_lifter_reports_unknown_tensor(self):
        i = RVar("mystery", ())
        plan = RPlanOutput(i, None, None)
        with pytest.raises(Exception):
            Lifter({}).lift_plan(plan)


class TestSimplify:
    def test_constant_folding(self, symbols):
        expr = la.ElemMul(la.Literal(2.0), la.Literal(3.0))
        assert simplify(expr) == la.Literal(6.0)

    def test_minus_one_becomes_neg_and_subtraction(self, symbols):
        X, Y = symbols["X"], symbols["Y"]
        expr = la.ElemPlus(X, la.ElemMul(la.Literal(-1.0), Y))
        assert simplify(expr) == la.ElemMinus(X, Y)

    def test_double_transpose_removed(self, symbols):
        assert simplify(la.Transpose(la.Transpose(symbols["X"]))) == symbols["X"]

    def test_square_detection(self, symbols):
        X = symbols["X"]
        assert simplify(la.ElemMul(X, X)) == la.Power(X, 2.0)

    def test_multiply_by_one_dropped(self, symbols):
        assert simplify(la.ElemMul(la.Literal(1.0), symbols["X"])) == symbols["X"]

    def test_add_zero_dropped(self, symbols):
        assert simplify(la.ElemPlus(symbols["X"], la.Literal(0.0))) == symbols["X"]

    def test_x_plus_x_becomes_two_x(self, symbols):
        X = symbols["X"]
        assert simplify(la.ElemPlus(X, X)) == la.ElemMul(la.Literal(2.0), X)

    def test_simplify_preserves_semantics(self, symbols, inputs):
        X, Y, u, v = symbols["X"], symbols["Y"], symbols["u"], symbols["v"]
        expr = Sum(la.ElemPlus(la.ElemMul(la.Literal(-1.0), X), X * la.Literal(1.0))) + Sum(
            la.Transpose(la.Transpose(Y))
        )
        assert_same_result(run_la(expr, inputs), run_la(simplify(expr), inputs))
