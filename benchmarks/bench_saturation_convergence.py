"""Sec. 4.3 convergence study — sampling vs depth-first saturation.

The paper reports that saturation converges for ALS, MLR and PNMF but not
for GLM and SVM (whose DAGs nest ``*`` and ``+`` deeply), and that sampling
the matches keeps the e-graph from blowing up while still converging
whenever full saturation would.  This harness saturates every workload root
under both schedules with the same budget and records iterations, e-graph
size and whether a fixpoint was reached.

It also keeps the books of the anytime stop (``RunnerConfig.plateau``, which
the grid above turns off): per benchmark root, where the default run stops
against the last iteration that still changed the plan; and on 1,200 seeded
random expressions, how many plans the stop made costlier — the "plans lost
to early stop" number, sampled in tier-1 by ``tests/unit/test_anytime_stop.py``.
"""

from __future__ import annotations

import pytest

from repro.egraph import EGraph, Runner, RunnerConfig
from repro.optimizer import OptimizerConfig
from repro.optimizer.pipeline import baseline_artifact, compile_expression
from repro.rules import relational_rules
from repro.translate import lower
from repro.translate.lower import is_barrier
from repro.lang import dag
from repro.workloads import get_workload, workload_names

from benchmarks.reporting import format_table, write_report
from tests.helpers import benchmark_roots, early_stop_outcomes, with_runner, without_plateau

#: ``plateau=0``: the study asks whether a fixpoint is reached, so no anytime stop
BUDGET = dict(iter_limit=12, node_limit=6_000, time_limit=5.0, plateau=0)

_results = {}


def saturate_workload(name: str, strategy: str):
    workload = get_workload(name, "S")
    totals = {"iterations": 0, "enodes": 0, "classes": 0, "saturated": True, "seconds": 0.0}
    for root in workload.roots.values():
        if any(is_barrier(node) for node in dag.postorder(root)):
            # benchmark the largest barrier-free sub-regions like the optimizer does
            continue
        lowered = lower(root)
        egraph = EGraph()
        egraph.add_term(lowered.plan.body)
        report = Runner(RunnerConfig(strategy=strategy, **BUDGET)).run(egraph, relational_rules())
        totals["iterations"] += report.num_iterations
        totals["enodes"] += report.final_enodes
        totals["classes"] += report.final_classes
        totals["saturated"] = totals["saturated"] and report.saturated
        totals["seconds"] += report.total_time
    return totals


@pytest.mark.parametrize("strategy", ["sampling", "dfs"])
@pytest.mark.parametrize("workload", workload_names())
def test_saturation_convergence(benchmark, workload, strategy):
    result = benchmark.pedantic(lambda: saturate_workload(workload, strategy), rounds=1, iterations=1)
    _results[(workload, strategy)] = result


def test_convergence_report(benchmark):
    # uses the benchmark fixture so --benchmark-only does not skip the report
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _results:
        pytest.skip("run the convergence grid first")
    rows = []
    for workload in workload_names():
        for strategy in ("sampling", "dfs"):
            result = _results.get((workload, strategy))
            if result is None:
                continue
            rows.append([
                workload,
                strategy,
                result["iterations"],
                result["enodes"],
                result["classes"],
                "yes" if result["saturated"] else "no",
                result["seconds"],
            ])
    table = format_table(
        ["workload", "strategy", "iterations", "e-nodes", "e-classes", "converged", "seconds"], rows
    )
    write_report(
        "saturation_convergence",
        "Sec. 4.3 — saturation convergence under sampling vs depth-first scheduling",
        table
        + [
            "",
            "paper: depth-first saturation explodes (times out) on the deeply nested GLM/SVM",
            "expressions while sampling stays within budget; both converge on the others.",
        ],
    )
    # Sampling must never build a larger graph than depth-first under the same budget.
    for workload in workload_names():
        sampled = _results.get((workload, "sampling"))
        dfs = _results.get((workload, "dfs"))
        if sampled and dfs:
            assert sampled["enodes"] <= dfs["enodes"] * 1.2


def _anytime_rows():
    """Per benchmark root: where the default run stops, the last iteration
    that changed the fused plan (``plateau=0``, ``iter_limit`` 1 … 12; 0 when
    it stays the fused input), and whether both runs end at the same cost."""
    rows = []
    for kind, expr, semiring in benchmark_roots():
        config = OptimizerConfig.sampling_greedy(semiring=semiring)
        stopped = compile_expression(expr, config)
        full = without_plateau(config)
        reference = compile_expression(expr, full)
        last_change, previous = 0, str(baseline_artifact(expr, config).fused)
        for limit in range(1, full.runner.iter_limit + 1):
            text = str(compile_expression(expr, with_runner(full, iter_limit=limit)).fused)
            if text != previous:
                last_change, previous = limit, text
        runs = stopped.report.saturation_reports
        rows.append([
            kind,
            "+".join(run.stop_reason.value for run in runs),
            sum(run.num_iterations for run in runs),
            sum(run.num_iterations for run in reference.report.saturation_reports),
            last_change,
            "yes" if stopped.report.optimized_cost == reference.report.optimized_cost else "NO",
            "yes" if str(stopped.fused) == str(reference.fused) else "NO",
        ])
    return rows


def test_anytime_stop_report(benchmark):
    rows, outcomes = benchmark.pedantic(
        lambda: (_anytime_rows(), early_stop_outcomes(range(1200))), rounds=1, iterations=1
    )
    speedup = outcomes["seconds_plateau_0"] / outcomes["seconds_default"]
    write_report(
        "anytime_stop",
        "Anytime saturation — where the default run stops, and the plans it loses",
        format_table(
            ["root", "stop", "iterations", "plateau=0", "last plan change", "cost equal", "plan equal"],
            rows,
        )
        + ["", "seeded random expressions (depth 2-4, sampling_greedy), default vs plateau=0:"]
        + format_table(["outcome", "count"], [[key, value] for key, value in outcomes.items()])
        + [f"compile time, plateau=0 / default: {speedup:.1f}x"],
    )
    assert all(row[-1] == row[-2] == "yes" for row in rows)
    assert all(row[4] <= row[2] for row in rows)  # never stops before the plan settles
    assert outcomes["above_input"] == 0
    assert outcomes["costlier"] <= 0.02 * outcomes["expressions"]
