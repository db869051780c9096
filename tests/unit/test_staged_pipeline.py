"""The contract the traced ``compile_cold`` benchmark relies on.

The traced run re-drives the pipeline through its public stages — ``lower``,
``EGraph().add_term``, ``relational_rules(indexed, ring)``,
``Runner(config.runner).run`` — and fails if its exact counts differ from
``Session.compile``'s.  So anything that steers saturation (the rule set,
the fused e-nodes, the anytime stop) must live behind those calls, never in a
judge only ``optimizer/pipeline.py`` passes.  This pins it per region of all
18 benchmark roots, where the benchmark only sees the sums.

The benchmark compiles ``sampling_greedy`` (``fusion_aware`` on), where
``OptimizerConfig.rules()`` is exactly its ``relational_rules(indexed, ring)``
call.  With ``fusion_aware`` off the rule set drops ``fuse``; that decision
lives in ``rules()`` alone, so a staged run stays equal by calling it.
"""

import pytest

from repro.egraph import EGraph, Runner
from repro.optimizer import OptimizerConfig
from repro.optimizer.pipeline import compile_expression
from repro.rules import relational_rules
from repro.translate import lower

from tests.helpers import benchmark_roots, sum_product_regions

ROOTS = list(benchmark_roots())


def counts(report):
    """Iterations, e-nodes, found and applied — per iteration."""
    return [
        (stats.iteration, stats.enodes, stats.matches_found, stats.matches_applied)
        for stats in report.iterations
    ]


@pytest.mark.parametrize("fusion_aware", [True, False])
@pytest.mark.parametrize("kind, expr, semiring", ROOTS, ids=[kind for kind, _, _ in ROOTS])
def test_compile_runs_equal_the_hand_driven_stages(kind, expr, semiring, fusion_aware):
    config = OptimizerConfig.sampling_greedy(semiring=semiring, fusion_aware=fusion_aware)
    compiled = compile_expression(expr, config).report.saturation_reports
    staged = []
    for region in sum_product_regions(expr):
        egraph = EGraph()
        egraph.add_term(lower(region).plan.body)
        if fusion_aware:  # the benchmark's own call
            rules = relational_rules(indexed=config.indexed_matching, ring=config.ring())
            assert [rule.name for rule in rules] == [rule.name for rule in config.rules()]
        else:
            rules = config.rules()
            assert "fuse" not in {rule.name for rule in rules}
        staged.append(Runner(config.runner).run(egraph, rules))
    assert [counts(run) for run in compiled] == [counts(run) for run in staged]
    assert [run.stop_reason for run in compiled] == [run.stop_reason for run in staged]
