"""Property-based tests (hypothesis) for the core invariants.

The invariants checked here are the load-bearing ones:

* lowering preserves semantics (LA execution == K-relation oracle);
* the optimizer pipeline preserves semantics and never increases the
  estimated cost;
* canonicalization preserves the equivalence relation: an expression and a
  saturated/extracted rewrite of it always have isomorphic canonical forms;
* the e-graph's class invariants (schema) survive arbitrary rule schedules;
* union-find never splits classes it has merged.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.canonical import canonicalize, polyterms_isomorphic
from repro.cost import LACostModel
from repro.egraph import EGraph, Runner, RunnerConfig, UnionFind
from repro.extract import GreedyExtractor
from repro.optimizer import OptimizerConfig, compile_expression
from repro.rules import relational_rules
from repro.translate import lower
from tests.helpers import (
    assert_same_result,
    numeric_inputs,
    random_la_expression,
    run_la,
    run_ra_of,
)

import random


SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

COST = LACostModel()
FAST = OptimizerConfig.sampling_greedy()
FAST.runner = RunnerConfig(iter_limit=6, node_limit=3_000, time_limit=3.0)


@st.composite
def la_expressions(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    depth = draw(st.integers(min_value=1, max_value=3))
    return random_la_expression(random.Random(seed), depth=depth)


class TestLoweringProperties:
    @SETTINGS
    @given(expr=la_expressions(), seed=st.integers(0, 100))
    def test_lowering_preserves_semantics(self, expr, seed):
        inputs = numeric_inputs(seed)
        assert_same_result(run_la(expr, inputs), run_ra_of(expr, inputs))

    @SETTINGS
    @given(expr=la_expressions())
    def test_lowering_is_deterministic(self, expr):
        first = lower(expr).plan.body
        second = lower(expr).plan.body
        assert first == second


class TestOptimizerProperties:
    @SETTINGS
    @given(expr=la_expressions(), seed=st.integers(0, 100))
    def test_optimizer_preserves_semantics(self, expr, seed):
        inputs = numeric_inputs(seed)
        report = compile_expression(expr, FAST).report
        assert_same_result(run_la(expr, inputs), run_la(report.optimized, inputs))

    @SETTINGS
    @given(expr=la_expressions())
    def test_optimizer_never_increases_estimated_cost(self, expr):
        report = compile_expression(expr, FAST).report
        assert COST.total(report.optimized) <= COST.total(expr) * (1 + 1e-9)

    @SETTINGS
    @given(expr=la_expressions())
    def test_extracted_plan_has_isomorphic_canonical_form(self, expr):
        lowered = lower(expr)
        egraph = EGraph()
        root = egraph.add_term(lowered.plan.body)
        Runner(RunnerConfig(iter_limit=4, node_limit=2_000, time_limit=2.0)).run(
            egraph, relational_rules()
        )
        extracted = GreedyExtractor().extract(egraph, root).expr
        assert polyterms_isomorphic(canonicalize(lowered.plan.body), canonicalize(extracted))


class TestEGraphProperties:
    @SETTINGS
    @given(expr=la_expressions(), seed=st.integers(0, 10))
    def test_schema_invariant_holds_after_saturation(self, expr, seed):
        lowered = lower(expr)
        egraph = EGraph()
        egraph.add_term(lowered.plan.body)
        config = RunnerConfig(iter_limit=4, node_limit=2_000, time_limit=2.0, seed=seed)
        Runner(config).run(egraph, relational_rules())
        for class_id in egraph.class_ids():
            data = egraph.data(class_id)
            assert 0.0 <= data.sparsity <= 1.0
            # every member of the class has the class's schema
            for node in egraph.nodes(class_id):
                recomputed = egraph.analysis.make(egraph, node)
                assert recomputed.schema_names == data.schema_names

    @given(
        operations=st.lists(
            st.tuples(st.integers(0, 19), st.integers(0, 19)), min_size=1, max_size=60
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_unionfind_never_separates_merged_sets(self, operations):
        uf = UnionFind()
        ids = [uf.make_set() for _ in range(20)]
        merged = []
        for a, b in operations:
            uf.union(ids[a], ids[b])
            merged.append((a, b))
            for x, y in merged:
                assert uf.same(ids[x], ids[y])


class TestCanonicalFormProperties:
    @SETTINGS
    @given(expr=la_expressions())
    def test_canonicalization_is_idempotent_up_to_isomorphism(self, expr):
        body = lower(expr).plan.body
        first = canonicalize(body)
        second = canonicalize(body)
        assert polyterms_isomorphic(first, second)

    @SETTINGS
    @given(expr=la_expressions(), seed=st.integers(0, 100))
    def test_equal_canonical_forms_imply_equal_results(self, expr, seed):
        # Self-consistency: the canonical form of a sum-expression wrapped in
        # an extra no-op (multiply by 1) stays isomorphic, and both evaluate
        # to the same values.
        from repro.lang import expr as la

        wrapped = la.ElemMul(la.Literal(1.0), expr)
        assert polyterms_isomorphic(
            canonicalize(lower(expr).plan.body), canonicalize(lower(wrapped).plan.body)
        )
        inputs = numeric_inputs(seed)
        assert_same_result(run_la(expr, inputs), run_la(wrapped, inputs))
