"""Unit tests for the DML-like parser and the pretty-printer."""

import pytest

from repro.lang import Scalar, parse_expr, ParseError
from repro.lang import expr as la
from tests.helpers import standard_symbols


@pytest.fixture
def env():
    symbols = standard_symbols()
    symbols["s"] = Scalar("s")
    return symbols


class TestParser:
    def test_matmul_vs_elemmul_precedence(self, env):
        expr = parse_expr("X * A %*% B", env)
        assert isinstance(expr, la.ElemMul)
        assert isinstance(expr.right, la.MatMul)

    def test_add_precedence(self, env):
        expr = parse_expr("X + Y * X", env)
        assert isinstance(expr, la.ElemPlus)
        assert isinstance(expr.right, la.ElemMul)

    def test_parentheses(self, env):
        expr = parse_expr("(X + Y) * X", env)
        assert isinstance(expr, la.ElemMul)
        assert isinstance(expr.left, la.ElemPlus)

    def test_unary_minus(self, env):
        expr = parse_expr("-X + Y", env)
        assert isinstance(expr, la.ElemPlus)
        assert isinstance(expr.left, la.Neg)

    def test_power(self, env):
        expr = parse_expr("X ^ 2", env)
        assert isinstance(expr, la.Power) and expr.exponent == 2.0

    def test_power_requires_literal_exponent(self, env):
        with pytest.raises(ParseError):
            parse_expr("X ^ Y", env)

    def test_functions(self, env):
        assert isinstance(parse_expr("t(X)", env), la.Transpose)
        assert isinstance(parse_expr("sum(X)", env), la.Sum)
        assert isinstance(parse_expr("rowSums(X)", env), la.RowSums)
        assert isinstance(parse_expr("colSums(X)", env), la.ColSums)
        assert isinstance(parse_expr("as.scalar(sum(X))", env), la.CastScalar)
        assert isinstance(parse_expr("exp(X)", env), la.UnaryFunc)
        assert isinstance(parse_expr("sprop(u)", env), la.SProp)

    def test_fused_function_arities(self, env):
        assert isinstance(parse_expr("wsloss(X, u, v, 1)", env), la.WSLoss)
        assert isinstance(parse_expr("mmchain(X, v)", env), la.MMChain)
        with pytest.raises(ParseError):
            parse_expr("wsloss(X, u)", env)

    def test_numbers(self, env):
        assert parse_expr("2.5", env) == la.Literal(2.5)
        assert parse_expr("0.5 * X", env).left == la.Literal(0.5)

    def test_unbound_name_raises(self, env):
        with pytest.raises(ParseError):
            parse_expr("Q + X", env)

    def test_unknown_function_raises(self, env):
        with pytest.raises(ParseError):
            parse_expr("foo(X)", env)

    def test_trailing_tokens_raise(self, env):
        with pytest.raises(ParseError):
            parse_expr("X + Y )", env)

    def test_unexpected_character_raises(self, env):
        with pytest.raises(ParseError):
            parse_expr("X ? Y", env)


class TestPrinterRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "sum((X - u %*% t(v)) ^ 2)",
            "t(X) %*% (u - u)",
            "colSums(X * Y) + colSums(X)",
            "rowSums(X) * u",
            "sum(A %*% B)",
            "X * 2 - Y / 3",
            "-(X * Y)",
            "sigmoid(X %*% v)",
        ],
    )
    def test_parse_print_parse_fixpoint(self, env, text):
        first = parse_expr(text, env)
        printed = str(first)
        second = parse_expr(printed, env)
        assert first == second

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    def test_non_finite_constants_print(self, env, text):
        # ``value == int(value)`` raised OverflowError / ValueError here
        X, value = env["X"], float(text)
        assert str(la.Literal(value)) == text
        assert str(la.FilledMatrix(value, X.shape)) == f"matrix({text}, 7, 5)"
        assert str(la.Power(X, value)) == f"X ^ {text}"
        assert str(la.Literal(-3.0)) == "-3" and str(la.Literal(0.25)) == "0.25"

    def test_printer_parenthesises_correctly(self, env):
        expr = parse_expr("(X + Y) * X", env)
        assert str(expr) == "(X + Y) * X"
        expr = parse_expr("X + Y * X", env)
        assert str(expr) == "X + Y * X"
