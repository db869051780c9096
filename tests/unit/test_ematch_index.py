"""Tests for the incremental operator-indexed e-matching subsystem.

Covers the invariants the index must keep in lockstep with the hash-cons
(property-style, over random terms, random merges and random rule
applications), the equivalence of indexed and full-scan search on real
workloads (ALS, PNMF), the dirty-class tracking contract, and the O(1)
counters.
"""

import random

import pytest

from repro.egraph import EGraph, ENode, OP_JOIN, OP_SUM, OP_VAR
from repro.egraph.analysis import SchemaMismatchError
from repro.egraph.runner import Runner, RunnerConfig
from repro.ra.attrs import Attr
from repro.ra.rexpr import RLit, RVar, radd, rjoin, rsum
from repro.rules import relational_rules
from repro.translate import lower
from repro.workloads import get_workload
from tests.helpers import lowerable_bodies

I = Attr("i", 4)
J = Attr("j", 3)
K = Attr("k", 2)

LEAVES = [
    RVar("X", (I, J), 0.5),
    RVar("Y", (J, K), 0.5),
    RVar("u", (I,)),
    RVar("v", (J,)),
    RLit(2.0),
    RLit(1.0),
]


def random_expr(rng: random.Random, depth: int = 3):
    """A random RA expression; unions always combine schema-compatible arms."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(LEAVES)
    kind = rng.choice(("join", "add", "sum"))
    child = random_expr(rng, depth - 1)
    if kind == "join":
        return rjoin([child, random_expr(rng, depth - 1)])
    if kind == "add":
        # join with a scalar keeps the schema, so the union is well-typed
        return radd([child, rjoin([RLit(float(rng.randint(2, 5))), child])])
    attrs = _free_attrs(child)
    if not attrs:
        return child
    picked = rng.sample(sorted(attrs, key=lambda a: a.name), rng.randint(1, len(attrs)))
    return rsum(set(picked), child)


def _free_attrs(expr):
    from repro.ra.rexpr import RAdd, RJoin, RSum

    if isinstance(expr, RVar):
        return set(expr.attrs)
    if isinstance(expr, RLit):
        return set()
    if isinstance(expr, (RJoin, RAdd)):
        result = set()
        for arg in expr.args:
            result |= _free_attrs(arg)
        return result
    if isinstance(expr, RSum):
        return _free_attrs(expr.child) - set(expr.indices)
    raise TypeError(type(expr))


class TestIndexInvariants:
    """The operator index stays consistent with the hash-cons."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_terms_and_merges(self, seed):
        rng = random.Random(seed)
        egraph = EGraph()
        for _ in range(8):
            egraph.add_term(random_expr(rng))
        egraph.rebuild()
        egraph.check_invariants()
        # Random merges of schema-compatible classes stress merge + repair.
        for _ in range(10):
            ids = egraph.class_ids()
            a, b = rng.choice(ids), rng.choice(ids)
            if egraph.data(a).schema_names != egraph.data(b).schema_names:
                continue
            try:
                egraph.merge(a, b)
            except SchemaMismatchError:  # pragma: no cover - filtered above
                continue
            egraph.rebuild()
            egraph.check_invariants()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_rule_applications(self, seed):
        """Invariants hold after every batched apply-and-rebuild round."""
        rng = random.Random(100 + seed)
        egraph = EGraph()
        egraph.add_term(random_expr(rng, depth=4))
        egraph.rebuild()
        rules = relational_rules()
        for _ in range(4):
            for rule in rules:
                matches = rule.search(egraph)
                for match in rng.sample(matches, min(len(matches), 10)):
                    match.apply(egraph)
            egraph.rebuild()
            egraph.check_invariants()

    def test_counters_track_canonical_counts(self):
        egraph = EGraph()
        x = egraph.add_term(rjoin([LEAVES[0], LEAVES[2]]))
        y = egraph.add_term(rjoin([LEAVES[0], LEAVES[0], LEAVES[2]]))
        egraph.rebuild()
        recomputed = len({n.canonicalize(egraph.find) for n in egraph._hashcons})
        assert egraph.num_enodes() == recomputed
        egraph.merge(x, y)
        egraph.rebuild()
        recomputed = len({n.canonicalize(egraph.find) for n in egraph._hashcons})
        assert egraph.num_enodes() == recomputed
        assert egraph.num_classes() == len(egraph.class_ids())

    def test_parents_are_deduplicated(self):
        egraph = EGraph()
        child = egraph.add_term(LEAVES[0])
        join = ENode(OP_JOIN, None, (child, child))
        egraph.add(join)
        # Re-asserting membership must not grow the parents map.
        egraph.add_enode_to_class(join, egraph._hashcons[join])
        egraph.rebuild()
        parents = egraph._classes[egraph.find(child)].parents
        assert list(parents).count(join) == 1

    def test_op_index_routes_to_buckets(self):
        egraph = EGraph()
        egraph.add_term(rsum({J}, rjoin([LEAVES[0], LEAVES[3]])))
        egraph.rebuild()
        for op in (OP_SUM, OP_JOIN, OP_VAR):
            for class_id in egraph.classes_with_op(op):
                bucket = egraph.nodes_by_op(class_id, op)
                assert bucket
                assert all(node.op == op for node in bucket)
                assert set(bucket) <= set(egraph.nodes(class_id))


def _match_keys(rule, egraph, dirty=None):
    return sorted(match.key for match in rule.search(egraph, dirty))


def _workload_egraph(name, iters=4):
    workload = get_workload(name, "S")
    egraph = EGraph()
    for root in workload.roots.values():
        for body in lowerable_bodies(root):
            egraph.add_term(body)
    Runner(RunnerConfig(iter_limit=iters, time_limit=10.0)).run(egraph, relational_rules())
    return egraph


class TestSearchEquivalence:
    """Indexed search finds exactly what the full scan finds."""

    @pytest.mark.parametrize("workload", ["ALS", "PNMF"])
    def test_indexed_matches_equal_scan_matches(self, workload):
        egraph = _workload_egraph(workload)
        indexed_rules = relational_rules(indexed=True)
        scan_rules = relational_rules(indexed=False)
        for indexed_rule, scan_rule in zip(indexed_rules, scan_rules):
            assert _match_keys(indexed_rule, egraph) == _match_keys(scan_rule, egraph), (
                f"{indexed_rule.name} diverges between indexed and scan search"
            )

    @pytest.mark.parametrize("workload", ["ALS", "PNMF"])
    def test_dirty_all_equals_full_search(self, workload):
        egraph = _workload_egraph(workload)
        everything = frozenset(egraph.class_ids())
        for rule in relational_rules():
            if not rule.incremental:
                continue
            assert _match_keys(rule, egraph, everything) == _match_keys(rule, egraph)

    def test_dirty_empty_finds_nothing(self):
        egraph = _workload_egraph("ALS")
        for rule in relational_rules():
            if not rule.incremental:
                continue
            assert _match_keys(rule, egraph, frozenset()) == []

    def test_touched_since_reports_new_classes(self):
        egraph = EGraph()
        egraph.add_term(rjoin([LEAVES[0], LEAVES[2]]))
        egraph.rebuild()
        position = egraph.touch_position()
        assert egraph.touched_since(position) == frozenset()
        fresh = egraph.add_term(rsum({J}, LEAVES[0]))
        egraph.rebuild()
        assert egraph.find(fresh) in egraph.touched_since(position)

    def test_incremental_search_sees_new_match(self):
        """A match created after the cursor is found via the dirty set.

        Nested sums are built from raw e-nodes — the ``rsum`` smart
        constructor would flatten them before they reach the graph.
        """
        egraph = EGraph()
        x_id = egraph.add_term(LEAVES[0])
        inner = egraph.add(ENode(OP_SUM, frozenset({J}), (x_id,)))
        egraph.add(ENode(OP_SUM, frozenset({I}), (inner,)))
        egraph.rebuild()
        rule = next(r for r in relational_rules() if r.name == "merge-nested-sums")
        full = _match_keys(rule, egraph)
        assert full  # the seeded nested sum is a match
        position = egraph.touch_position()
        dirty = egraph.touched_since(position)
        assert _match_keys(rule, egraph, dirty) == []
        y_id = egraph.add_term(LEAVES[1])
        inner_y = egraph.add(ENode(OP_SUM, frozenset({J}), (y_id,)))
        egraph.add(ENode(OP_SUM, frozenset({K}), (inner_y,)))
        egraph.rebuild()
        dirty = egraph.touched_since(position)
        incremental = _match_keys(rule, egraph, dirty)
        assert incremental
        assert set(incremental) == set(_match_keys(rule, egraph)) - set(full)


class TestIncrementalSaturation:
    """Dirty-tracking saturation reaches the same fixpoint on saturating inputs."""

    @pytest.mark.parametrize("workload_root", [("GLM", "hessian_vector"), ("SVM", "gradient")])
    def test_same_fixpoint_as_full_search(self, workload_root):
        name, root_name = workload_root
        workload = get_workload(name, "S")
        body = lower(workload.roots[root_name]).plan.body
        results = {}
        for label, incremental in (("incremental", True), ("full", False)):
            egraph = EGraph()
            egraph.add_term(body)
            # plateau=0: the claim is about the fixpoint, which the anytime
            # stop ends three iterations short of on both roots
            report = Runner(RunnerConfig(incremental=incremental, plateau=0)).run(
                egraph, relational_rules()
            )
            assert report.saturated
            results[label] = (egraph.num_classes(), egraph.num_enodes())
        assert results["incremental"] == results["full"]
