"""Sec. 4.2 case studies — the individual optimizations the paper credits SPORES with.

For each case study the harness reports the estimated cost of the original
expression, of SystemML opt2's plan, and of the SPORES plan (all after the
shared fusion pass), plus the concrete rewritten expression, mirroring the
narrative of Sec. 4.2:

* intro / wsloss: ``sum((X - U V^T)^2)``
* ALS:  ``(U V^T - X) V``        → ``U (V^T V) - X V``
* PNMF: ``sum(W H) - sum(X*log(W H))`` → ``colSums/rowSums dot product + wcemm``
* MLR:  ``P*X - P*rowSums(P)*X`` → ``sprop(P) * X``
"""

from __future__ import annotations


from repro.cost import LACostModel
from repro.lang import Dim, Matrix, RowSums, Sum, Vector
from repro.lang.builder import log
from repro.optimizer import OptimizerConfig, compile_expression
from repro.runtime import fuse_operators
from repro.systemml import optimize_opt2

from benchmarks.reporting import format_table, write_report

COST = LACostModel()


def _case_studies():
    cases = {}

    m, n, r = Dim("m", 100_000), Dim("n", 50_000), Dim("r", 10)
    X = Matrix("X", m, n, sparsity=1e-4)
    U = Matrix("U", m, r)
    V = Matrix("V", n, r)
    cases["wsloss (intro)"] = Sum((X - U @ V.T) ** 2)
    cases["ALS gradient"] = (U @ V.T - X) @ V

    W = Matrix("W", m, r)
    H = Matrix("H", r, n)
    product = W @ H
    cases["PNMF objective"] = Sum(product) - Sum(X * log(product))

    nn, d = Dim("nn", 200_000), Dim("d", 200)
    Xm = Matrix("Xm", nn, d, sparsity=0.01)
    P = Vector("P", nn)
    cases["MLR sprop"] = P * Xm - P * RowSums(P) * Xm
    return cases


def run_case(expr):
    opt2 = fuse_operators(optimize_opt2(expr).optimized)
    spores = fuse_operators(compile_expression(expr, OptimizerConfig.sampling_greedy()).optimized)
    return {
        "original": COST.total(expr),
        "opt2": COST.total(opt2),
        "spores": COST.total(spores),
        "plan": str(spores),
    }


def test_case_studies(benchmark):
    cases = _case_studies()
    results = benchmark.pedantic(lambda: {name: run_case(expr) for name, expr in cases.items()},
                                 rounds=1, iterations=1)
    rows = []
    for name, info in results.items():
        rows.append([
            name,
            info["original"],
            info["opt2"],
            info["spores"],
            round(info["original"] / max(info["spores"], 1e-9), 1),
            round(info["opt2"] / max(info["spores"], 1e-9), 1),
        ])
    table = format_table(
        ["case", "original cost", "opt2 cost", "SPORES cost", "x vs original", "x vs opt2"], rows
    )
    plans = [f"  {name}: {info['plan']}" for name, info in results.items()]
    write_report(
        "case_studies",
        "Sec. 4.2 case studies — estimated plan costs and rewritten expressions",
        table + ["", "SPORES plans:"] + plans,
    )
    for name, info in results.items():
        assert info["spores"] <= info["opt2"] * 1.01, name
    assert results["ALS gradient"]["spores"] < 0.2 * results["ALS gradient"]["opt2"]
    assert results["PNMF objective"]["spores"] < 0.2 * results["PNMF objective"]["opt2"]
