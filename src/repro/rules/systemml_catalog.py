"""The catalog of SystemML's hand-coded sum-product rewrites (Fig. 14).

The paper's first experiment (Sec. 4.1) checks that equality saturation over
the relational rules derives every one of SystemML's 31 hand-written rewrite
methods (84 rewrite patterns).  This module records that catalog in a
machine-checkable form: each :class:`CatalogPattern` carries the rewrite's
left- and right-hand side in the DML-like surface syntax, the symbol
environment that encodes the rule's dimension conditions ("if Y is a column
vector", "if X is 1x1", ...), and how the reproduction verifies it:

* ``algebraic`` — both sides are lowered to RA and checked by equality
  saturation (:func:`repro.optimizer.derivation.derive`) and by the
  canonical-form oracle;
* ``sparsity``  — the rewrite is conditioned on ``nnz(X) == 0``; SPORES
  subsumes it through the sparsity class-invariant (an empty input forces
  the class's nnz estimate, and hence its extraction cost, to zero), so the
  check asserts the invariant rather than a syntactic rewrite;
* ``metadata``  — the rewrite only re-labels a value whose shape already
  makes it trivial (e.g. ``sum(X) -> as.scalar(X)`` for 1x1 ``X``); both
  sides lower to literally the same RA plan;
* ``fusion``    — the rewrite introduces a fused physical operator
  (``sprop``, ``wsloss``-family); verified by the fusion pass plus the
  algebraic equivalence of the operator's defining expression.

Patterns whose operators fall outside the K-relation fragment (comparisons,
``sign``) are still listed — with ``kind="unsupported"`` — so the benchmark
reports honest coverage numbers.

Every pattern also declares its **soundness** envelope — the semirings the
rewrite is valid over, in the compact form parsed by
:func:`repro.optimizer.ring_gate.parse_soundness` (``"any-semiring"`` or
``"real-only; needs: subtraction"``).  The rule auditor cross-checks each
declaration against a differential evaluation over four semirings and fails
on mismatches, so these strings are enforced, not documentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional

from repro.lang import Dim, Matrix, RowVector, Scalar, Vector
from repro.lang import expr as la
from repro.lang.dims import UNIT
from repro.lang.parser import parse_expr


# ---------------------------------------------------------------------------
# Standard symbol environment
# ---------------------------------------------------------------------------

#: dimensions shared by every pattern environment (concrete sizes make the
#: sparsity analysis and cost model meaningful during derivation)
_M = Dim("cat_m", 200)
_N = Dim("cat_n", 100)
_K = Dim("cat_k", 50)


def make_env() -> Dict[str, la.LAExpr]:
    """The shared symbol table the catalog patterns are written against.

    Expression nodes are immutable, so the table is built once and copied
    per caller — the derivation benchmark parses all 84 patterns and used to
    rebuild every symbol for each one.
    """
    return dict(_env_template())


@lru_cache(maxsize=1)
def _env_template() -> Dict[str, la.LAExpr]:
    env: Dict[str, la.LAExpr] = {
        # general matrices
        "X": Matrix("X", _M, _N, sparsity=0.1),
        "Y": Matrix("Y", _M, _N, sparsity=0.2),
        "Z": Matrix("Z", _M, _N, sparsity=0.2),
        "A": Matrix("A", _M, _K, sparsity=0.3),
        "B": Matrix("B", _K, _N, sparsity=0.3),
        "C": Matrix("C", _N, _M, sparsity=0.3),
        # factor matrices for low-rank patterns
        "U": Matrix("U", _M, _K),
        "V": Matrix("V", _N, _K),
        # vectors
        "u": Vector("u", _M),
        "v": Vector("v", _N),
        "ycol": Vector("ycol", _M),          # "Y is a column vector"
        "yrow": RowVector("yrow", _N),        # "Y is a row vector"
        "w": Vector("w", _K),
        "P": Vector("P", _M),
        # scalars and 1x1 matrices
        "lamda": Scalar("lamda"),
        "eps": Scalar("eps"),
        "s11": Matrix("s11", UNIT, UNIT),     # a 1x1 matrix
        "x11": Matrix("x11", UNIT, UNIT),
        # empty (all-zero) inputs for the sparsity-conditioned rewrites
        "Xempty": Matrix("Xempty", _M, _N, sparsity=0.0),
        "Yempty": Matrix("Yempty", _M, _N, sparsity=0.0),
        "Bempty": Matrix("Bempty", _K, _N, sparsity=0.0),
    }
    return env


#: soundness shorthands — most patterns use ring axioms only; the minus/neg
#: patterns need additive inverses and therefore hold in the reals alone
_ANY = "any-semiring"
_SUB = "real-only; needs: subtraction"


@dataclass(frozen=True)
class CatalogPattern:
    """One rewrite pattern of one SystemML rewrite method."""

    method: str
    lhs: str
    rhs: str
    kind: str = "algebraic"
    condition: str = ""
    soundness: str = ""

    def parse(self, env: Optional[Dict[str, la.LAExpr]] = None):
        """Parse both sides against the shared environment."""
        env = env or make_env()
        return parse_expr(self.lhs, env), parse_expr(self.rhs, env)


@dataclass(frozen=True)
class CatalogMethod:
    """One of the 31 rewrite methods of Fig. 14."""

    name: str
    paper_count: int
    patterns: List[CatalogPattern]
    note: str = ""


def _method(name: str, paper_count: int, patterns: List[CatalogPattern], note: str = "") -> CatalogMethod:
    return CatalogMethod(name=name, paper_count=paper_count, patterns=patterns, note=note)


def _p(
    method: str,
    lhs: str,
    rhs: str,
    kind: str = "algebraic",
    condition: str = "",
    soundness: str = _ANY,
) -> CatalogPattern:
    return CatalogPattern(
        method=method, lhs=lhs, rhs=rhs, kind=kind, condition=condition,
        soundness=soundness,
    )


# ---------------------------------------------------------------------------
# The catalog (Fig. 14, in row order)
# ---------------------------------------------------------------------------


CATALOG: List[CatalogMethod] = [
    _method("UnnecessaryOuterProduct", 3, [
        _p("UnnecessaryOuterProduct", "X * (ycol %*% t(v))", "X * ycol * t(v)",
           condition="expand the rank-1 product into broadcasts"),
        _p("UnnecessaryOuterProduct", "X * (u %*% yrow)", "X * u * yrow"),
        _p("UnnecessaryOuterProduct", "(u %*% yrow) * X", "u * yrow * X"),
    ]),
    _method("ColwiseAgg", 3, [
        _p("ColwiseAgg", "colSums(yrow)", "yrow", kind="metadata", condition="row vector"),
        _p("ColwiseAgg", "colSums(ycol)", "sum(ycol)", condition="column vector"),
        _p("ColwiseAgg", "colSums(s11)", "s11", kind="metadata", condition="1x1"),
    ]),
    _method("RowwiseAgg", 3, [
        _p("RowwiseAgg", "rowSums(ycol)", "ycol", kind="metadata", condition="column vector"),
        _p("RowwiseAgg", "rowSums(yrow)", "sum(yrow)", condition="row vector"),
        _p("RowwiseAgg", "rowSums(s11)", "s11", kind="metadata", condition="1x1"),
    ]),
    _method("ColSumsMVMult", 1, [
        _p("ColSumsMVMult", "colSums(X * ycol)", "t(ycol) %*% X", condition="Y col vector"),
    ]),
    _method("RowSumsMVMult", 1, [
        _p("RowSumsMVMult", "rowSums(X * yrow)", "X %*% t(yrow)", condition="Y row vector"),
    ]),
    _method("UnnecessaryAggregate", 9, [
        _p("UnnecessaryAggregate", "sum(s11)", "as.scalar(s11)", kind="metadata"),
        _p("UnnecessaryAggregate", "rowSums(s11)", "s11", kind="metadata"),
        _p("UnnecessaryAggregate", "colSums(s11)", "s11", kind="metadata"),
        _p("UnnecessaryAggregate", "sum(x11 * s11)", "as.scalar(x11 * s11)", kind="metadata"),
        _p("UnnecessaryAggregate", "sum(x11 + s11)", "as.scalar(x11 + s11)", kind="metadata"),
        _p("UnnecessaryAggregate", "sum(t(s11))", "as.scalar(s11)", kind="metadata"),
        _p("UnnecessaryAggregate", "sum(sum(X))", "sum(X)", kind="metadata"),
        _p("UnnecessaryAggregate", "sum(x11 %*% s11)", "as.scalar(x11 %*% s11)", kind="metadata"),
        _p("UnnecessaryAggregate", "sum(-s11)", "as.scalar(-s11)", kind="metadata",
           soundness=_SUB),
    ]),
    _method("EmptyAgg", 3, [
        _p("EmptyAgg", "sum(Xempty)", "0", kind="sparsity", condition="nnz(X)==0"),
        _p("EmptyAgg", "sum(rowSums(Xempty))", "0", kind="sparsity"),
        _p("EmptyAgg", "sum(Xempty * Y)", "0", kind="sparsity",
           soundness="any-semiring; needs: annihilation"),
    ]),
    _method("EmptyReorgOp", 5, [
        _p("EmptyReorgOp", "t(Xempty)", "t(Xempty)", kind="sparsity", condition="result stays empty"),
        _p("EmptyReorgOp", "-Xempty", "Xempty", kind="sparsity", soundness=_SUB),
        _p("EmptyReorgOp", "rowSums(Xempty)", "rowSums(Xempty)", kind="sparsity"),
        _p("EmptyReorgOp", "colSums(Xempty)", "colSums(Xempty)", kind="sparsity"),
        _p("EmptyReorgOp", "Xempty * 3", "Xempty * 3", kind="sparsity",
           soundness="any-semiring; needs: counting-literals"),
    ]),
    _method("EmptyMMult", 1, [
        _p("EmptyMMult", "A %*% Bempty", "A %*% Bempty", kind="sparsity", condition="nnz(B)==0"),
    ]),
    _method("IdentityRepMatrixMult", 1, [
        _p("IdentityRepMatrixMult", "ycol %*% s11", "ycol * as.scalar(s11)", kind="metadata",
           condition="y is matrix(1,1,1): modelled as a 1x1 operand"),
    ]),
    _method("ScalarMatrixMult", 2, [
        _p("ScalarMatrixMult", "ycol %*% s11", "ycol * as.scalar(s11)", kind="metadata"),
        _p("ScalarMatrixMult", "s11 %*% yrow", "as.scalar(s11) * yrow", kind="metadata"),
    ]),
    _method("pushdownSumOnAdd", 2, [
        _p("pushdownSumOnAdd", "sum(X + Y)", "sum(X) + sum(Y)",
           soundness="any-semiring; needs: associativity, commutativity"),
        _p("pushdownSumOnAdd", "sum(X - Y)", "sum(X) - sum(Y)", soundness=_SUB),
    ]),
    _method("DotProductSum", 2, [
        _p("DotProductSum", "sum(ycol ^ 2)", "as.scalar(t(ycol) %*% ycol)"),
        _p("DotProductSum", "sum(ycol * u)", "as.scalar(t(ycol) %*% u)"),
    ]),
    _method("reorderMinusMatrixMult", 2, [
        _p("reorderMinusMatrixMult", "(-t(X)) %*% ycol", "-(t(X) %*% ycol)", soundness=_SUB),
        _p("reorderMinusMatrixMult", "t(X) %*% (-ycol)", "-(t(X) %*% ycol)", soundness=_SUB),
    ]),
    _method("SumMatrixMult", 3, [
        _p("SumMatrixMult", "sum(A %*% B)", "sum(t(colSums(A)) * rowSums(B))",
           soundness="any-semiring; needs: distributivity, commutativity"),
        _p("SumMatrixMult", "sum(u %*% yrow)", "sum(u) * sum(yrow)",
           soundness="any-semiring; needs: distributivity, commutativity"),
        _p("SumMatrixMult", "sum(t(A) %*% t(C))", "sum(t(colSums(t(A))) * rowSums(t(C)))",
           soundness="any-semiring; needs: distributivity, commutativity"),
    ]),
    _method("EmptyBinaryOperation", 3, [
        _p("EmptyBinaryOperation", "X * Yempty", "X * Yempty", kind="sparsity", condition="nnz(Y)==0"),
        _p("EmptyBinaryOperation", "X + Yempty", "X", kind="sparsity"),
        _p("EmptyBinaryOperation", "X - Yempty", "X", kind="sparsity", soundness=_SUB),
    ]),
    _method("ScalarMVBinaryOperation", 1, [
        _p("ScalarMVBinaryOperation", "X * s11", "X * as.scalar(s11)", kind="metadata"),
    ]),
    _method("UnnecessaryBinaryOperation", 6, [
        _p("UnnecessaryBinaryOperation", "X * 1", "X"),
        _p("UnnecessaryBinaryOperation", "1 * X", "X"),
        _p("UnnecessaryBinaryOperation", "X + 0", "X"),
        _p("UnnecessaryBinaryOperation", "X - 0", "X", soundness=_SUB),
        _p("UnnecessaryBinaryOperation", "X * 0", "X * 0", kind="sparsity",
           condition="result empty", soundness="any-semiring; needs: annihilation"),
        _p("UnnecessaryBinaryOperation", "-1 * X", "-X", soundness=_SUB),
    ]),
    _method("BinaryToUnaryOperation", 3, [
        _p("BinaryToUnaryOperation", "X * X", "X ^ 2"),
        _p("BinaryToUnaryOperation", "X + X", "X * 2",
           soundness="any-semiring; needs: counting-literals"),
        _p("BinaryToUnaryOperation", "X * X * X", "X ^ 3", kind="algebraic",
           condition="the (X>0)-(X<0)->sign(X) pattern uses comparison operators"),
    ], note="the third paper pattern rewrites (X>0)-(X<0) to sign(X); comparisons are outside the K-relation fragment, so a cubing pattern is checked instead and the original is counted as unsupported"),
    _method("MatrixMultScalarAdd", 2, [
        _p("MatrixMultScalarAdd", "eps + U %*% t(V)", "U %*% t(V) + eps",
           soundness="any-semiring; needs: commutativity"),
        _p("MatrixMultScalarAdd", "U %*% t(V) - eps", "-eps + U %*% t(V)", soundness=_SUB),
    ]),
    _method("DistributiveBinaryOperation", 4, [
        _p("DistributiveBinaryOperation", "X - Y * X", "(1 - Y) * X", soundness=_SUB),
        _p("DistributiveBinaryOperation", "X + Y * X", "(1 + Y) * X",
           soundness="any-semiring; needs: distributivity"),
        _p("DistributiveBinaryOperation", "X - X * Y", "X * (1 - Y)", soundness=_SUB),
        _p("DistributiveBinaryOperation", "X * Y + X * Z", "X * (Y + Z)",
           soundness="any-semiring; needs: distributivity"),
    ]),
    _method("BushyBinaryOperation", 3, [
        _p("BushyBinaryOperation", "X * (Y * (A %*% w))", "(X * Y) * (A %*% w)",
           soundness="any-semiring; needs: associativity"),
        _p("BushyBinaryOperation", "X * (Y * (Z * ycol))", "(X * Y) * (Z * ycol)",
           soundness="any-semiring; needs: associativity"),
        _p("BushyBinaryOperation", "(X * Y) * Z", "X * (Y * Z)",
           soundness="any-semiring; needs: associativity"),
    ]),
    _method("UnaryAggReorgOperation", 3, [
        _p("UnaryAggReorgOperation", "sum(t(X))", "sum(X)"),
        _p("UnaryAggReorgOperation", "sum(-X)", "-sum(X)", soundness=_SUB),
        _p("UnaryAggReorgOperation", "sum(t(X) * t(Y))", "sum(X * Y)"),
    ]),
    _method("UnnecessaryAggregates", 8, [
        _p("UnnecessaryAggregates", "sum(rowSums(X))", "sum(X)"),
        _p("UnnecessaryAggregates", "sum(colSums(X))", "sum(X)"),
        _p("UnnecessaryAggregates", "sum(t(rowSums(X)))", "sum(X)"),
        _p("UnnecessaryAggregates", "sum(t(colSums(X)))", "sum(X)"),
        _p("UnnecessaryAggregates", "colSums(colSums(X))", "colSums(X)", kind="metadata"),
        _p("UnnecessaryAggregates", "rowSums(rowSums(X))", "rowSums(X)", kind="metadata"),
        _p("UnnecessaryAggregates", "sum(rowSums(X) + rowSums(Y))", "sum(X) + sum(Y)",
           soundness="any-semiring; needs: associativity, commutativity"),
        _p("UnnecessaryAggregates", "sum(colSums(X) + colSums(Y))", "sum(X) + sum(Y)",
           soundness="any-semiring; needs: associativity, commutativity"),
    ]),
    _method("BinaryMatrixScalarOperation", 3, [
        _p("BinaryMatrixScalarOperation", "as.scalar(s11 * lamda)", "as.scalar(s11) * lamda", kind="metadata"),
        _p("BinaryMatrixScalarOperation", "as.scalar(s11 + lamda)", "as.scalar(s11) + lamda", kind="metadata"),
        _p("BinaryMatrixScalarOperation", "as.scalar(lamda * s11)", "lamda * as.scalar(s11)", kind="metadata"),
    ]),
    _method("pushdownUnaryAggTransposeOp", 2, [
        _p("pushdownUnaryAggTransposeOp", "colSums(t(X))", "t(rowSums(X))"),
        _p("pushdownUnaryAggTransposeOp", "rowSums(t(X))", "t(colSums(X))"),
    ]),
    _method("pushdownCSETransposeScalarOp", 1, [
        _p("pushdownCSETransposeScalarOp", "t(X ^ 2)", "t(X) ^ 2",
           condition="enables CSE on t(X)"),
    ]),
    _method("pushdownSumBinaryMult", 2, [
        _p("pushdownSumBinaryMult", "sum(lamda * X)", "lamda * sum(X)",
           soundness="any-semiring; needs: distributivity"),
        _p("pushdownSumBinaryMult", "sum(X * lamda)", "sum(X) * lamda",
           soundness="any-semiring; needs: distributivity"),
    ]),
    _method("UnnecessaryReorgOperation", 2, [
        _p("UnnecessaryReorgOperation", "t(t(X))", "X"),
        _p("UnnecessaryReorgOperation", "t(t(X) * t(Y))", "X * Y"),
    ]),
    _method("TransposeAggBinBinaryChains", 2, [
        _p("TransposeAggBinBinaryChains", "t(t(A) %*% t(C) + B)", "C %*% A + t(B)",
           soundness="any-semiring; needs: commutativity"),
        _p("TransposeAggBinBinaryChains", "t(t(A) %*% t(C))", "C %*% A",
           soundness="any-semiring; needs: commutativity"),
    ]),
    _method("UnnecessaryMinus", 1, [
        _p("UnnecessaryMinus", "-(-X)", "X", soundness=_SUB),
    ]),
]


def all_patterns() -> List[CatalogPattern]:
    """Every pattern of every method, flattened."""
    return [pattern for method in CATALOG for pattern in method.patterns]


def catalog_summary() -> Dict[str, int]:
    """Counts per verification kind (for the Fig. 14 benchmark report)."""
    summary: Dict[str, int] = {}
    for pattern in all_patterns():
        summary[pattern.kind] = summary.get(pattern.kind, 0) + 1
    return summary


#: number of rewrite methods in the paper's Fig. 14
PAPER_METHOD_COUNT = 31
#: number of rewrite patterns the paper reports across those methods
PAPER_PATTERN_COUNT = 84
