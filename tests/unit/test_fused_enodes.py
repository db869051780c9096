"""Fused operators are e-nodes (Sec. 3.3: "readily takes advantage of existing
fused operators").

The lowering seeds, for every node ``runtime.fusion`` would fuse, the fused
operator over the lowered operands; the real ring's ``fuse`` rule puts it in
its definition's class; ``RACostModel`` charges it its ``OP_TABLE`` row; the
lift writes the definition back for ``fuse_operators`` to fuse again; the
interpreter and the App. A normal form read it as its definition.
"""

import numpy as np
import pytest

from repro.canonical import la_equivalent
from repro.cost.la_cost import LACostModel
from repro.cost.model import RACostModel
from repro.egraph import OP_FUSED, EGraph, Runner, RunnerConfig
from repro.extract import GreedyExtractor
from repro.lang import Dim, Matrix, Sum, Vector
from repro.lang import expr as la
from repro.optimizer import OptimizerConfig
from repro.optimizer.pipeline import compile_expression
from repro.ra.rexpr import RFused, RPlanOutput, unfused
from repro.rules import relational_rules
from repro.runtime import ra_interp
from repro.runtime.fusion import fuse_operators
from repro.runtime.semiring import BOOL_OR_AND, MIN_PLUS, REAL
from repro.translate import lift, lower
from repro.translate.lower import expand_fused

from tests.helpers import benchmark_roots, sum_product_regions

M, N, R = Dim("m", 6), Dim("n", 5), Dim("r", 2)
X = Matrix("X", M, N, sparsity=0.2)
U, V = Matrix("U", M, R), Matrix("V", N, R)
W = Matrix("W", M, N)
P = Matrix("P", M, N)
v, w = Vector("v", N), Vector("w", M)

#: each fusible pattern of ``runtime.fusion`` that lives inside a region, with
#: the fused operator it becomes
PATTERNS = [
    (Sum((X - U @ V.T) ** 2), la.WSLoss(X, U, V, la.Literal(1.0))),
    (Sum(W * (X - U @ V.T) ** 2), la.WSLoss(X, U, V, W)),
    (X.T @ (X @ v), la.MMChain(X, v, la.Literal(1.0))),
    (X.T @ (w * (X @ v)), la.MMChain(X, v, w)),
    (P * (1 - P), la.SProp(P)),
]


def fused_nodes(body):
    return [sub for sub in body.walk() if isinstance(sub, RFused)]


def saturated(expr, ring=REAL, **runner):
    egraph = EGraph()
    root = egraph.add_term(lower(expr).plan.body)
    Runner(RunnerConfig(**runner)).run(egraph, relational_rules(ring=ring))
    return egraph, root


#: input shapes for the interpreter, one axis per attribute
SHAPES = {"X": (6, 5), "W": (6, 5), "P": (6, 5), "U": (6, 2), "V": (5, 2), "v": (5,), "w": (6,)}


def ra_value(body, ring=REAL, seed=0):
    rng = np.random.default_rng(seed)
    values = {name: rng.random(shape) for name, shape in SHAPES.items()}
    return ra_interp.evaluate(body, values, {}, ring)[0]


@pytest.mark.parametrize("pattern, fused", PATTERNS)
class TestEachPattern:
    def test_lowering_seeds_the_fusion_fuse_operators_applies(self, pattern, fused):
        assert fuse_operators(pattern) == fused
        (node,) = fused_nodes(lower(pattern).plan.body)
        assert type(node.fusion.op) is type(fused)

    def test_original_and_fused_form_are_la_equivalent(self, pattern, fused):
        assert la_equivalent(pattern, fused)
        assert la_equivalent(expand_fused(fused), fused)

    def test_ra_interp_reads_the_fused_node_as_its_definition(self, pattern, fused):
        body = lower(pattern).plan.body
        assert np.allclose(ra_value(body), ra_value(unfused(body)))

    def test_fuse_places_it_in_the_definitions_class(self, pattern, fused):
        egraph, root = saturated(pattern, iter_limit=1, plateau=0)
        assert egraph.classes_with_op(OP_FUSED) == [egraph.find(root)]
        (node,) = egraph.nodes_by_op(root, OP_FUSED)
        assert type(node.payload.op) is type(fused)
        assert any(other.op != OP_FUSED for other in egraph.stored_nodes(root))

    def test_extraction_picks_it_and_the_lift_writes_the_definition_back(self, pattern, fused):
        lowering = lower(pattern)
        egraph = EGraph()
        root = egraph.add_term(lowering.plan.body)
        Runner(RunnerConfig(iter_limit=1)).run(egraph, relational_rules())
        extraction = GreedyExtractor().extract(egraph, root)
        assert isinstance(extraction.expr, RFused)
        plan = RPlanOutput(extraction.expr, lowering.plan.row_attr, lowering.plan.col_attr)
        lifted = lift(plan, lowering.symbols, lowering.ones_dims)
        assert lifted == expand_fused(fused)
        assert fuse_operators(lifted) == fused


def test_ra_cost_of_the_fused_node_is_what_la_cost_charges():
    """Output plus the ``work`` rule: for ``wsloss``, one rank-length dot
    product per non-zero of ``X`` — not the dense ``m x n`` residual."""
    pattern, fused = PATTERNS[0]
    egraph, _ = saturated(pattern, iter_limit=1, plateau=0)
    (class_id,) = egraph.classes_with_op(OP_FUSED)
    (node,) = egraph.nodes_by_op(class_id, OP_FUSED)
    ra_cost = RACostModel().node_cost(egraph, class_id, node)
    assert ra_cost == LACostModel().cost(fused).per_node[fused]
    assert ra_cost == pytest.approx(1 + 0.2 * M.size * N.size * R.size)


def test_als_loss_plateaus_after_four_iterations():
    expr = next(e for kind, e, _ in benchmark_roots() if kind == "ALS/loss")
    artifact = compile_expression(expr, OptimizerConfig.sampling_greedy())
    (run,) = artifact.report.saturation_reports
    costs = [stats.best_cost for stats in run.iterations]
    # the fused loss is in the graph from the first iteration on; the later
    # gain (two scalar operations) is below MIN_PROGRESS and does not count
    assert run.num_iterations == 4 and run.stale_iterations == 3
    assert costs[0] == costs[1] > costs[2] == costs[3] > 0.9999 * costs[0]
    assert str(artifact.fused) == "wsloss(X, U, V, 1) + 0.1 * (sum(U ^ 2) + sum(V ^ 2))"


def test_fusion_aware_false_keeps_the_fused_node_out():
    pattern, _ = PATTERNS[0]
    config = OptimizerConfig.sampling_greedy(fusion_aware=False)
    report = compile_expression(pattern, config).report
    assert "fuse" not in report.saturation_reports[0].rule_stats


class TestOffTheRealRing:
    """The fused kernels hard-code real arithmetic: no other ring ever sees a
    fused e-node, by the ring gate on ``fuse``'s own declaration."""

    @pytest.mark.parametrize("ring", [MIN_PLUS, BOOL_OR_AND])
    def test_a_fusible_region_seeds_nothing(self, ring):
        n = Dim("n", 6)
        A, d = Matrix("A", n, n), Vector("d", n)
        chain = A.T @ (A @ d)  # mmchain's pattern, valid in every ring
        assert fused_nodes(lower(chain).plan.body)  # proposed by the lowering
        assert "fuse" not in {rule.name for rule in relational_rules(ring=ring)}
        egraph, _ = saturated(chain, ring=ring, plateau=0)
        assert egraph.classes_with_op(OP_FUSED) == []
        artifact = compile_expression(chain, OptimizerConfig(semiring=ring.name))
        assert str(artifact.fused) == str(artifact.optimized)

    def test_the_semiring_benchmark_roots_seed_nothing(self):
        semiring_roots = [(e, ring) for _, e, ring in benchmark_roots() if ring != "real"]
        assert len(semiring_roots) == 4
        for expr, ring in semiring_roots:
            config = OptimizerConfig.sampling_greedy(semiring=ring)
            for region in sum_product_regions(expr):
                egraph = EGraph()
                egraph.add_term(lower(region).plan.body)
                Runner(config.runner).run(egraph, relational_rules(ring=config.ring()))
                assert egraph.classes_with_op(OP_FUSED) == []

    def test_ra_interp_refuses_a_fused_node(self):
        body = lower(X.T @ (X @ v)).plan.body
        assert fused_nodes(body)
        ra_value(unfused(body), ring=MIN_PLUS)
        with pytest.raises(ra_interp.RingOperatorError):
            ra_value(body, ring=MIN_PLUS)
