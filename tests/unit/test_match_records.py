"""The match-record contract: matches are data, search is pure, rewrites are lazy.

``search`` emits flat ``Match(rule, key, root, args)`` records whose
pre-assembled sampling bytes must equal ``repr(key).encode()``; it must not
touch the e-graph; ``Rule.rewrite`` runs only for the matches the scheduler
keeps; and every match is attributed to its rule in ``RunReport.rule_stats``.
"""

import pytest

from repro import obs
from repro.egraph import EGraph, Runner, RunnerConfig
from repro.optimizer import OptimizerConfig
from repro.optimizer.pipeline import compile_expression
from repro.rules import relational_rules
from repro.workloads import get_workload
from tests.helpers import benchmark_roots, lowerable_bodies


def seeded_egraph(family: str, root: str) -> EGraph:
    egraph = EGraph()
    for body in lowerable_bodies(get_workload(family, "S").roots[root]):
        egraph.add_term(body)
    return egraph


def saturated_egraph(family: str, root: str, iterations: int) -> EGraph:
    """The root's e-graph after exactly ``iterations`` runner iterations
    (``plateau=0``: a graph of that age is wanted, not a plan), rebuilt."""
    egraph = seeded_egraph(family, root)
    Runner(RunnerConfig(iter_limit=iterations, plateau=0)).run(egraph, relational_rules())
    assert egraph.is_clean
    return egraph


@pytest.mark.parametrize(
    "family, root", [("ALS", "loss"), ("GLM", "deviance"), ("PNMF", "objective")]
)
@pytest.mark.parametrize("indexed", [True, False])
def test_sort_bytes_equal_the_encoded_key(family, root, indexed):
    egraph = saturated_egraph(family, root, 3)
    found = 0
    for rule in relational_rules(indexed=indexed):
        for match in rule.search(egraph):
            assert match.rule is rule
            assert match.sort_bytes == repr(match.key).encode(), rule.name
            found += 1
    assert found > 0


def test_search_is_pure():
    egraph = saturated_egraph("GLM", "deviance", 8)

    def state():
        return (
            egraph.num_enodes(),
            egraph.num_classes(),
            egraph.touch_position(),
            egraph.merges_performed,
            egraph.is_clean,
        )

    before = state()
    assert sum(len(rule.search(egraph)) for rule in relational_rules()) > 1000
    assert state() == before


def test_rewrites_run_only_for_scheduled_matches():
    egraph = saturated_egraph("GLM", "deviance", 8)
    rules = relational_rules()
    calls = []
    for rule in rules:
        def spy(*args, _rewrite=rule.rewrite, _name=rule.name):
            calls.append(_name)
            return _rewrite(*args)

        rule.rewrite = spy
    report = Runner(RunnerConfig(iter_limit=1)).run(egraph, rules)
    stats = report.rule_stats
    assert len(calls) == sum(s.scheduled for s in stats.values())
    for rule in rules:
        assert calls.count(rule.name) == stats[rule.name].scheduled <= 25
    # The point of the record: never one rewrite per found match.
    assert len(calls) < report.iterations[0].matches_found / 2


def test_rule_stats_account_for_every_match():
    for kind, expr, semiring in benchmark_roots():
        report = compile_expression(expr, OptimizerConfig.sampling_greedy(semiring=semiring)).report
        for run in report.saturation_reports:
            stats = run.rule_stats.values()
            assert sum(s.found for s in stats) == sum(it.matches_found for it in run.iterations), kind
            assert sum(s.applied for s in stats) == sum(it.matches_applied for it in run.iterations), kind
            assert all(s.applied <= s.scheduled <= s.found for s in stats), kind
            assert all(s.searches == run.num_iterations for s in stats), kind


def test_rule_funnel_is_mirrored_into_the_metrics_registry():
    obs.reset()
    obs.enable()
    try:
        report = Runner(RunnerConfig()).run(seeded_egraph("GLM", "gradient"), relational_rules())
        for name, stats in report.rule_stats.items():
            for outcome in ("found", "scheduled", "applied"):
                counter = obs.registry().counter(
                    "saturation_rule_matches_total", rule=name, outcome=outcome
                )
                assert counter.value == getattr(stats, outcome)
        assert sum(stats.applied for stats in report.rule_stats.values()) > 0
    finally:
        obs.reset()
