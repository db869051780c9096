"""The anytime stop (``RunnerConfig.plateau`` → ``StopReason.PLATEAU``).

The rule itself is exercised with a scripted rule, so *when* the extractable
cost falls is the test's choice; what it does to the paper roots, the other
strategy and the other rings is pinned on the real rule set; and the
"plans lost to early stop" number is taken on seeded random expressions.
"""

import math
import random

import pytest

from repro.egraph import EGraph, ENode, OP_VAR, Match, Rule, Runner, RunnerConfig, StopReason
from repro.extract import GreedyExtractor
from repro.extract.greedy import BestCostTable
from repro.optimizer import OptimizerConfig
from repro.optimizer.pipeline import compile_expression
from repro.ra import Attr, RVar, radd, rjoin
from repro.rules import relational_rules
from repro.workloads import get_workload

from tests.helpers import (
    benchmark_roots,
    early_stop_outcomes,
    lowerable_bodies,
    random_la_expression,
    with_runner,
    without_plateau,
)

I, J = Attr("i", 30), Attr("j", 20)
ADDENDS = 4
#: what one computed ``X * Y_k`` addend costs: its 30 x 20 output
JOIN_COST = 600.0


class Scripted(Rule):
    """Grows the graph every iteration (so it never saturates) and, on the
    iterations in ``cheapen_at``, proves the next ``X * Y_k`` addend of the
    root equal to a stored input — the root's best cost falls by 600."""

    name = "scripted"

    def __init__(self, addends, cheapen_at):
        self.addends = list(addends)
        self.cheapen_at = set(cheapen_at)
        self.iteration = -1

    def search(self, egraph, dirty=None):
        self.iteration += 1
        return [Match(self, (self.iteration,), egraph.find(0), (self.iteration,))]

    def rewrite(self, egraph, iteration):
        egraph.add(ENode(OP_VAR, (f"grown{iteration}", (I, J)), ()))
        if iteration in self.cheapen_at:
            stored = egraph.add(ENode(OP_VAR, (f"stored{iteration}", (I, J)), ()))
            egraph.merge(self.addends.pop(), stored)
        return None


def scripted_run(cheapen_at=(), **config):
    X = RVar("X", (I, J))
    egraph = EGraph()
    addends = [rjoin([X, RVar(f"Y{k}", (I, J))]) for k in range(ADDENDS)]
    egraph.add_term(radd(addends))
    classes = [egraph.add_term(addend) for addend in addends]
    del egraph.roots[1:]  # the sum is the plan; its addends were only looked up
    report = Runner(RunnerConfig(**config)).run(egraph, [Scripted(classes, cheapen_at)])
    return egraph, report


class TestPlateauRule:
    @pytest.mark.parametrize("plateau", [1, 2, 3, 5])
    def test_never_stops_before_plateau_iterations(self, plateau):
        _, report = scripted_run(plateau=plateau)
        assert report.stop_reason is StopReason.PLATEAU
        assert report.num_iterations == report.stale_iterations == plateau
        assert not report.saturated

    def test_zero_disables_the_stop_and_the_probe(self):
        _, report = scripted_run(plateau=0, iter_limit=9)
        assert report.stop_reason is StopReason.ITERATION_LIMIT
        assert report.num_iterations == 9
        assert report.best_cost is None and report.stale_iterations == 0
        assert all(stats.best_cost is None for stats in report.iterations)

    def test_negative_patience_rejected(self):
        with pytest.raises(ValueError):
            RunnerConfig(plateau=-1)

    def test_a_strict_decrease_resets_the_count(self):
        top = (ADDENDS + 1) * JOIN_COST  # four products and their sum
        _, report = scripted_run(cheapen_at=(2, 4))
        assert [stats.best_cost for stats in report.iterations] == [
            top, top, top - 600, top - 600, top - 1200, top - 1200, top - 1200, top - 1200,
        ]  # fmt: skip
        assert report.stop_reason is StopReason.PLATEAU
        assert report.stale_iterations == 3
        assert report.best_cost == report.iterations[-1].best_cost

    def test_probe_cost_is_what_the_extractor_charges(self):
        egraph, report = scripted_run(cheapen_at=(0, 1, 2, 3))
        assert report.best_cost == JOIN_COST  # only the sum itself is left to compute
        assert GreedyExtractor().extract(egraph, egraph.roots[0]).cost == JOIN_COST

    def test_time_limit_still_wins(self):
        _, report = scripted_run(plateau=1, time_limit=0.0)
        assert report.stop_reason is StopReason.TIME_LIMIT

    def test_node_limit_still_wins(self):
        _, report = scripted_run(plateau=1, node_limit=5)
        assert report.stop_reason is StopReason.NODE_LIMIT
        assert report.num_iterations == 1

    def test_saturation_still_wins(self):
        egraph = EGraph()
        egraph.add_term(rjoin([RVar("u", (I,)), RVar("X", (I, J))]))
        report = Runner(RunnerConfig(plateau=1)).run(egraph, [])
        assert report.stop_reason is StopReason.SATURATED
        assert report.stale_iterations == 1

    def test_graph_without_a_recorded_root_never_plateaus(self):
        egraph = EGraph()
        egraph.add(ENode(OP_VAR, ("X", (I, J)), ()))
        assert egraph.roots == []
        report = Runner(RunnerConfig(iter_limit=5)).run(egraph, [Scripted([], ())])
        assert report.stop_reason is StopReason.ITERATION_LIMIT
        assert report.best_cost is None


class TestRoots:
    def test_add_term_records_only_the_top_level_class(self):
        egraph = EGraph()
        X, Y = RVar("X", (I, J)), RVar("Y", (I, J))
        first = egraph.add_term(rjoin([X, Y]))
        second = egraph.add_term(radd([X, Y]))
        assert egraph.roots == [first, second]

    def test_roots_survive_merges(self):
        egraph = EGraph()
        X, Y = RVar("X", (I, J)), RVar("Y", (I, J))
        root = egraph.add_term(rjoin([X, Y]))
        table = BestCostTable(egraph)
        assert table.root_cost() == JOIN_COST
        # Union by size: merged into a larger set, the recorded id loses.
        stored = [egraph.add(ENode(OP_VAR, (name, (I, J)), ())) for name in ("Z1", "Z2")]
        egraph.merge(*stored)
        egraph.merge(root, stored[0])
        egraph.rebuild()
        assert egraph.roots == [root] and egraph.find(root) != root
        assert table.root_cost() == 0.0  # the root is now a stored input
        assert GreedyExtractor().extract(egraph, egraph.roots[0]).cost == 0.0


def test_incremental_table_equals_the_full_fixpoint_after_every_iteration():
    """``BestCostTable`` re-relaxes only touched classes and their ancestors;
    the extractor's own fixpoint recomputes everything.  They must agree on
    every class, iteration by iteration, on the heavy roots and on random
    expressions."""
    bodies = [
        body
        for family, root in (("ALS", "loss"), ("ALS", "gradient_u"), ("SVM", "objective"))
        for body in lowerable_bodies(get_workload(family, "S").roots[root])
    ]
    rng = random.Random(7)
    for _ in range(10):
        bodies.extend(lowerable_bodies(random_la_expression(rng, depth=3)))
    checked = 0
    for body in bodies:
        egraph = EGraph()
        root = egraph.add_term(body)
        table = BestCostTable(egraph)
        rules = relational_rules()
        for iteration in range(6):
            Runner(RunnerConfig(iter_limit=1, plateau=0, seed=iteration)).run(egraph, rules)
            full = GreedyExtractor().extract(egraph, root)
            assert table.root_cost() == full.cost
            for class_id in egraph.class_ids():
                assert table.costs.get(class_id, math.inf) == full.class_costs[class_id]
            checked += 1
    assert checked >= 6 * 13


class TestOnTheBenchmarkRoots:
    def test_als_gradient_keeps_its_rewrite_and_still_saturates(self):
        """The one root whose plan improves late: cost 2.31e7 until the fourth
        iteration, 520,100 after — a patience of 1 would lose it."""
        expr = get_workload("ALS", "S").roots["gradient_u"]
        report = compile_expression(expr, OptimizerConfig.sampling_greedy()).report
        assert report.optimized_cost == 520_100
        assert round(report.speedup_estimate, 2) == 44.43
        (run,) = report.saturation_reports
        assert (run.stop_reason, run.num_iterations) == (StopReason.SATURATED, 7)
        costs = [stats.best_cost for stats in run.iterations]
        assert costs[2] > 40 * costs[3] and costs[3] == costs[-1]

        impatient = with_runner(OptimizerConfig.sampling_greedy(), plateau=1)
        assert compile_expression(expr, impatient).report.optimized_cost > 2.3e7

    def test_the_four_iteration_limit_roots_now_plateau(self):
        stops = {}
        for kind, expr, semiring in benchmark_roots():
            report = compile_expression(expr, OptimizerConfig.sampling_greedy(semiring=semiring)).report
            for run in report.saturation_reports:
                assert run.stop_reason is not StopReason.ITERATION_LIMIT, kind
                if run.stop_reason is StopReason.PLATEAU:
                    assert run.stale_iterations == 3, kind
                    stops[kind] = run.num_iterations
        assert {
            kind: stops[kind]
            for kind in ("ALS/loss", "SVM/objective", "MLR/weighted_rows", "GLM/deviance")
        } == {"ALS/loss": 4, "SVM/objective": 3, "MLR/weighted_rows": 5, "GLM/deviance": 3}

    @pytest.mark.parametrize("preset", ["sampling_greedy", "dfs_greedy"])
    @pytest.mark.parametrize(
        "kind", ["GLM/hessian_vector", "SSSP/two_hop", "REACH/two_hop", "SSSP/relax"]
    )
    def test_dfs_and_the_other_rings_extract_the_plateau_0_plan(self, preset, kind):
        expr, semiring = next((e, ring) for k, e, ring in benchmark_roots() if k == kind)
        config = getattr(OptimizerConfig, preset)(semiring=semiring)
        stopped = compile_expression(expr, config)
        reference = compile_expression(expr, without_plateau(config))
        assert str(stopped.fused) == str(reference.fused)
        assert stopped.report.optimized_cost == reference.report.optimized_cost
        for run in stopped.report.saturation_reports:
            assert run.best_cost is not None and math.isfinite(run.best_cost)


def test_plans_lost_to_the_early_stop():
    """The tracked number: of 100 seeded random expressions, how many compile
    to a costlier plan because saturation stopped on a plateau.  On seeds
    0-1199 (``benchmarks/bench_saturation_convergence.py``) it is 7 costlier,
    3 cheaper, 6 equal-cost with another text, at 9x less compile time.
    The counts are deterministic: a change here is a change of trajectory."""
    outcomes = early_stop_outcomes(range(300, 400))
    assert outcomes["expressions"] == 100
    assert outcomes["above_input"] == 0
    assert outcomes["costlier"] <= 2  # the contract: at most 2 %
    assert (outcomes["costlier"], outcomes["cheaper"], outcomes["equal_cost_other_text"]) == (1, 1, 3)
    assert outcomes["seconds_default"] < outcomes["seconds_plateau_0"]
