"""Unit tests for the cost models and the greedy / ILP extractors."""

import os
import subprocess
import sys

import pytest

from repro.cost import LACostModel, RACostModel, admissible_node, estimate_nnz, estimate_sparsity
from repro.egraph import EGraph, OP_JOIN
from repro.extract import ExtractionError, GreedyExtractor, ILPExtractor
from repro.lang import ColSums, Matrix, RowSums, Sum, Vector, Dim
from repro.lang import expr as la
from repro.ra.attrs import Attr
from repro.ra.rexpr import RLit, RVar, radd, rjoin, rsum


class TestSparsityEstimation:
    """Fig. 12: S[X*Y]=min, S[X+Y]=min(1, sum), S[Σ_i X]=min(1, |i|·S[X])."""

    def setup_method(self):
        m, n = Dim("m", 100), Dim("n", 50)
        self.X = Matrix("X", m, n, sparsity=0.01)
        self.Y = Matrix("Y", m, n, sparsity=0.2)
        self.u = Vector("u", m)

    def test_elemmul_is_min(self):
        assert estimate_sparsity(self.X * self.Y) == pytest.approx(0.01)

    def test_elemplus_saturates_at_one(self):
        assert estimate_sparsity(self.X + self.Y) == pytest.approx(0.21)
        dense = Matrix("D", Dim("m", 100), Dim("n", 50), sparsity=0.9)
        assert estimate_sparsity(dense + dense) == 1.0

    def test_aggregate_scales_by_extent(self):
        assert estimate_sparsity(RowSums(self.X)) == pytest.approx(min(1.0, 50 * 0.01))
        assert estimate_sparsity(ColSums(self.X)) == pytest.approx(min(1.0, 100 * 0.01))

    def test_matmul_scales_by_inner_extent(self):
        A = Matrix("A", Dim("m", 100), Dim("k", 10), sparsity=0.05)
        B = Matrix("B", Dim("k", 10), Dim("n", 50), sparsity=0.5)
        assert estimate_sparsity(A @ B) == pytest.approx(min(1.0, 10 * 0.05))

    def test_literal_and_zero(self):
        assert estimate_sparsity(la.Literal(0.0)) == 0.0
        assert estimate_sparsity(la.Literal(3.0)) == 1.0

    def test_nnz_estimate_uses_concrete_sizes(self):
        assert estimate_nnz(self.X) == pytest.approx(0.01 * 100 * 50)


class TestLACostModel:
    def setup_method(self):
        self.model = LACostModel()
        m, n = Dim("m", 1000), Dim("n", 500)
        self.X = Matrix("X", m, n, sparsity=0.01)
        self.u = Vector("u", m)
        self.v = Vector("v", n)

    def test_dense_outer_product_costs_more_than_sparse_sum(self):
        dense = Sum((self.u @ self.v.T) ** 2)
        sparse = Sum(self.X ** 2)
        assert self.model.total(dense) > self.model.total(sparse)

    def test_shared_subexpression_charged_once(self):
        product = self.u @ self.v.T
        shared = Sum(product) + Sum(product * self.X)
        unshared = Sum(self.u @ self.v.T) + Sum((self.u @ self.v.T) * self.X)
        assert self.model.total(shared) == pytest.approx(self.model.total(unshared))

    def test_report_counts_intermediates(self):
        report = self.model.cost(Sum(self.X * self.X))
        assert report.intermediates >= 1
        assert report.total == pytest.approx(report.memory + report.compute)

    def test_fused_wsloss_is_cheaper_than_unfused(self):
        unfused = Sum((self.X - self.u @ self.v.T) ** 2)
        fused = la.WSLoss(self.X, self.u, self.v, la.Literal(1.0))
        assert self.model.total(fused) < self.model.total(unfused)


def build_cse_graph():
    """The Fig. 10 pathology: greedy picks a locally cheap child that cannot
    share, while the globally optimal choice shares an expensive node."""
    i = Attr("i", 10)
    egraph = EGraph()
    egraph.add_term(RVar("base", (i,), 1.0))
    cheap = egraph.add_term(rjoin([RLit(3.0), RVar("cheap", (i,), 1.0)]))
    shared = egraph.add_term(rjoin([RLit(5.0), RVar("shared", (i,), 1.0)]))
    egraph.merge(cheap, shared)  # the middle class has a cheap and a shared member
    egraph.rebuild()
    root = egraph.add_term(
        radd([
            rjoin([RLit(5.0), RVar("shared", (i,), 1.0)]),
            rjoin([RLit(3.0), RVar("cheap", (i,), 1.0)]),
        ])
    )
    egraph.rebuild()
    return egraph, root


class TestExtractors:
    def setup_method(self):
        self.i = Attr("i", 4)
        self.j = Attr("j", 3)
        self.X = RVar("X", (self.i, self.j), 0.5)
        self.u = RVar("u", (self.i,))

    def test_greedy_extracts_original_when_nothing_better(self):
        egraph = EGraph()
        root = egraph.add_term(rjoin([self.X, self.u]))
        egraph.rebuild()
        result = GreedyExtractor().extract(egraph, root)
        assert result.cost > 0
        assert result.expr == rjoin([self.X, self.u])

    def test_greedy_prefers_cheaper_member(self):
        egraph = EGraph()
        expensive = egraph.add_term(rsum({self.j}, rjoin([self.X, RVar("Y", (self.i, self.j), 1.0)])))
        cheap = egraph.add_term(rjoin([self.u, RLit(2.0)]))
        egraph.merge(expensive, cheap)
        egraph.rebuild()
        result = GreedyExtractor().extract(egraph, expensive)
        assert result.expr == rjoin([RLit(2.0), self.u])

    def test_leaves_cost_nothing(self):
        egraph = EGraph()
        leaf = egraph.add_term(self.X)
        egraph.rebuild()
        assert GreedyExtractor().extract(egraph, leaf).cost == 0.0

    def test_admissible_node_prunes_wide_schemas(self):
        egraph = EGraph()
        egraph.add_term(
            rjoin([self.X, RVar("Y", (self.j, Attr("k", 2)), 1.0), RVar("Z", (Attr("k", 2), Attr("l", 5)), 1.0)])
        )
        egraph.rebuild()
        data_nodes = [
            (cid, node)
            for cid in egraph.class_ids()
            for node in egraph.nodes(cid)
            if len(egraph.data(cid).schema) == 4
        ]
        assert data_nodes
        for cid, node in data_nodes:
            assert not admissible_node(egraph, cid, node)

    def test_three_attr_join_admissible_only_as_join(self):
        egraph = EGraph()
        wide = egraph.add_term(rjoin([self.X, RVar("Y", (self.j, Attr("k", 2)), 1.0)]))
        egraph.rebuild()
        for node in egraph.nodes(wide):
            assert admissible_node(egraph, wide, node) == (node.op == OP_JOIN)

    def test_ilp_matches_or_beats_greedy_on_cse(self):
        egraph, root = build_cse_graph()
        cost_fn = RACostModel()
        greedy = GreedyExtractor(cost_fn).extract(egraph, root)
        ilp = ILPExtractor(cost_fn).extract(egraph, root)
        assert ilp.cost <= greedy.cost + 1e-9

    def test_ilp_and_greedy_agree_on_simple_graph(self):
        egraph = EGraph()
        root = egraph.add_term(rsum({self.j}, rjoin([self.X, self.u])))
        egraph.rebuild()
        greedy = GreedyExtractor().extract(egraph, root)
        ilp = ILPExtractor().extract(egraph, root)
        assert ilp.cost == pytest.approx(greedy.cost)

    def test_ilp_keeps_a_time_limited_incumbent(self, monkeypatch):
        """HiGHS stopped by its time limit (status 1) still returns a feasible
        ``x``: that incumbent is the plan, not a reason to fall back."""
        import scipy.optimize

        solve = scipy.optimize.milp

        def time_limited(*args, **kwargs):
            result = solve(*args, **kwargs)
            result.status, result.success = 1, False
            return result

        monkeypatch.setattr(scipy.optimize, "milp", time_limited)
        egraph, root = build_cse_graph()
        extractor = ILPExtractor(RACostModel())
        ilp = extractor.extract(egraph, root)
        assert extractor.last_stats.solver_status == "time_limit"
        assert not extractor.last_stats.used_fallback
        assert ilp.cost == pytest.approx(extractor.last_stats.objective)

    def test_the_solver_is_imported_by_the_solve_not_by_the_package(self):
        """Every benchmark workload runs the greedy preset; ``scipy.optimize``
        is a third of ``import repro`` and loads with the first ILP solve."""
        script = (
            "import sys, repro\n"
            "assert 'scipy.optimize' not in sys.modules, 'loaded by import repro'\n"
            "from repro.egraph import EGraph\n"
            "from repro.extract import ILPExtractor\n"
            "from repro.ra.rexpr import RVar\n"
            "from repro.ra.attrs import Attr\n"
            "egraph = EGraph()\n"
            "root = egraph.add_term(RVar('x', (Attr('i', 3),)))\n"
            "ILPExtractor().extract(egraph, root)\n"
            "assert 'scipy.optimize' in sys.modules\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        )
        assert result.returncode == 0, result.stderr

    def test_extraction_error_for_unextractable_root(self):
        egraph = EGraph()
        wide = egraph.add_term(
            rjoin([self.X, RVar("Y", (self.j, Attr("k", 2)), 1.0), RVar("Z", (Attr("k", 2), Attr("l", 5)), 1.0)])
        )
        egraph.rebuild()
        with pytest.raises(ExtractionError):
            GreedyExtractor().extract(egraph, wide)
