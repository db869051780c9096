"""Semiring-generic execution: parity, rule gating, and ring plumbing.

Three claims are under test:

1. **Bitwise parity.**  The semiring workload families (SSSP on min-plus,
   REACH on bool) produce bit-identical results to their naive NumPy
   references through the *full* stack — Session compile/run and the
   sharded ServingEngine tape path — for every ring whose capability flags
   admit the expressions.  Inputs are dyadic rationals, so re-association
   by the optimizer cannot perturb a single bit and ``==`` is the right
   assertion, not ``allclose``.

2. **Real-only rules never fire off the real ring.**  The gate reads each
   rule's own ``soundness`` declaration; what it admits under every ring is
   exactly what the audit measured sound (``analysis/rule_matrix.json``) —
   13 real-only rules excluded off the real ring, an undeclared rule
   excluded too — and a non-real session can never produce a plan
   containing subtraction, negation, real unary functions, or
   real-hard-coded fused operators.

3. **Ring plumbing.**  The ring rides the OptimizerConfig digest (plans
   never leak across rings through a cache), literals are checked under
   the counting interpretation, and the simplify pass keeps only its
   ring-sound rewrites off the real ring.
"""

import json
import os

import numpy as np
import pytest

from repro.analysis import rules_audit
from repro.api import Session
from repro.lang import Dim, Matrix, Sum
from repro.lang import expr as la
from repro.optimizer import OptimizerConfig
from repro.optimizer.pipeline import compile_expression
from repro.egraph.rewrite import Rule
from repro.optimizer.ring_gate import (
    RingCompatibilityError,
    check_ring_compatibility,
    parse_soundness,
    rule_allowed,
)
from repro.rules import relational_rules
from repro.rules.relational import Factor
from repro.rules.systemml_catalog import CatalogPattern, all_patterns
from repro.runtime.semiring import (
    AUDIT_SEMIRINGS,
    BOOL_OR_AND,
    MAX_TIMES,
    MIN_PLUS,
    REAL,
    RingLiteralError,
    resolve_semiring,
)
from repro.serve import ServingEngine
from repro.translate import simplify
from repro.workloads import get_semiring_workload, semiring_workload_names

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

#: operators that cannot appear in any plan compiled for a ring without
#: subtraction/division — the regression oracle for "real-only never fires"
FORBIDDEN_OFF_REAL = (la.Neg, la.ElemMinus, la.ElemDiv, la.UnaryFunc,
                      la.WSLoss, la.WCeMM, la.WDivMM, la.SProp, la.MMChain)


def _dense(result):
    return np.asarray(result.value.to_dense())


def _nodes(expr):
    from repro.lang import dag

    return list(dag.postorder(expr))


class TestWorkloadParity:
    @pytest.mark.parametrize("family", ["SSSP", "REACH"])
    def test_session_parity_is_bitwise(self, family):
        workload = get_semiring_workload(family, "S")
        session = Session(OptimizerConfig(semiring=workload.semiring))
        inputs = workload.inputs(seed=11)
        expected = workload.reference(inputs)
        for root_name, plan in workload.session_plans(session).items():
            result = plan.run({k: inputs[k] for k in plan.input_names})
            got = _dense(result)
            want = np.asarray(expected[root_name])
            assert np.array_equal(got.reshape(want.shape), want), (
                f"{family}/{root_name}: optimized plan diverged from the "
                f"naive reference"
            )

    @pytest.mark.parametrize("family", ["SSSP", "REACH"])
    def test_serving_engine_parity_is_bitwise(self, family):
        workload = get_semiring_workload(family, "S")
        engine = ServingEngine(
            shards=2, config=OptimizerConfig(semiring=workload.semiring)
        )
        try:
            inputs = workload.inputs(seed=5)
            expected = workload.reference(inputs)
            for root_name, root in workload.roots.items():
                from repro.lang import dag

                bound = {
                    var.name: inputs[var.name] for var in dag.variables(root)
                }
                want = np.asarray(expected[root_name])
                for _ in range(3):  # repeat: tape + result-cache path
                    result = engine.run(root, bound)
                    got = _dense(result)
                    assert np.array_equal(got.reshape(want.shape), want), (
                        f"{family}/{root_name}: serving tier diverged"
                    )
        finally:
            engine.close()

    def test_bool_two_hop_agrees_with_max_times(self):
        # On {0,1} inputs or-and and max-times coincide; the same expression
        # compiled under either ring must produce the identical bit.
        workload = get_semiring_workload("REACH", "S")
        inputs = workload.inputs(seed=2)
        root = workload.roots["two_hop"]
        values = {}
        for ring in ("bool", "max-times"):
            plan = Session(OptimizerConfig(semiring=ring)).compile(root)
            values[ring] = _dense(plan.run({k: inputs[k] for k in plan.input_names}))
        assert np.array_equal(values["bool"], values["max-times"])

    def test_two_hop_plans_avoid_the_cubic_matmul(self):
        # The headline claim: the distributivity-only factoring fires off
        # the real ring, so no optimized two_hop plan contains an n×n
        # MatMul (only vector-shaped ones survive).
        for family in semiring_workload_names():
            workload = get_semiring_workload(family, "S")
            session = Session(OptimizerConfig(semiring=workload.semiring))
            plan = session.compile(workload.roots["two_hop"])
            for node in _nodes(plan.optimized):
                if isinstance(node, la.MatMul):
                    rows = node.shape.rows.size
                    cols = node.shape.cols.size
                    assert rows == 1 or cols == 1, (
                        f"{family}: optimizer kept the O(n³) matrix-matrix "
                        f"product: {plan.optimized}"
                    )


def _keyed_rules():
    """Every rule and pattern under its audit key (``relational:<name>``,
    ``catalog:<Method>[position within the method]``)."""
    keyed = {f"relational:{rule.name}": rule for rule in relational_rules()}
    for position, pattern in rules_audit._indexed(all_patterns()):
        keyed[f"catalog:{pattern.method}[{position}]"] = pattern
    return keyed


def _committed_matrix():
    with open(os.path.join(REPO_ROOT, "analysis", "rule_matrix.json")) as handle:
        return json.load(handle)["rules"]


class TestRealOnlyRuleExclusion:
    def test_real_only_declarations_are_the_fourteen_the_matrix_measured(self):
        keyed, matrix = _keyed_rules(), _committed_matrix()
        assert keyed.keys() == matrix.keys() and len(keyed) == 101
        real_only = {
            key for key, rule in keyed.items()
            if parse_soundness(rule.soundness).rings == "real-only"
        }
        assert len(real_only) == 14
        assert real_only == {
            key for key, record in matrix.items() if record["sound_over"] == ["real"]
        }
        # thirteen catalog patterns that subtract, and the fused kernels
        assert real_only - {"relational:fuse"} == {
            key for key in real_only
            if key.startswith("catalog:")
            and "subtraction" in parse_soundness(keyed[key].soundness).needs
        }

    @pytest.mark.parametrize("ring", [MIN_PLUS, MAX_TIMES, BOOL_OR_AND])
    def test_real_only_rules_disallowed_under_every_non_real_ring(self, ring):
        # the gate admits, from the declarations alone, exactly what the
        # audit measured sound under the ring
        matrix = _committed_matrix()
        for key, rule in _keyed_rules().items():
            assert rule_allowed(rule, REAL)
            assert rule_allowed(rule, ring) == (ring.name in matrix[key]["sound_over"]), key

    def test_undeclared_rules_are_conservatively_excluded(self):
        for undeclared in (Rule(), CatalogPattern(method="Bare", lhs="t(t(X))", rhs="X")):
            assert rule_allowed(undeclared, REAL)
            assert not rule_allowed(undeclared, MIN_PLUS)

    def test_relational_rules_are_ring_filtered(self, monkeypatch):
        base = {rule.name for rule in relational_rules()}
        # the thirteen R_EQ rules declare any-semiring soundness; fuse is real-only
        assert {rule.name for rule in relational_rules(ring=MIN_PLUS)} == base - {"fuse"}
        # a rule that stops declaring is out of every non-real compile
        monkeypatch.setattr(Factor, "soundness", "")
        assert {rule.name for rule in relational_rules(ring=MIN_PLUS)} == base - {
            "factor", "fuse"
        }
        assert {rule.name for rule in relational_rules(ring=REAL)} == base

    def test_non_real_sessions_never_emit_forbidden_operators(self):
        n = Dim("n", 24)
        A = Matrix("A", n, n, sparsity=1.0)
        B = Matrix("B", n, n, sparsity=1.0)
        expressions = [
            Sum(A @ B),
            Sum((A @ B) * A),
            (A @ B) + A,
            Sum(A @ (B + B)),
        ]
        for ring in AUDIT_SEMIRINGS:
            if ring.is_real:
                continue
            config = OptimizerConfig(semiring=ring.name)
            for expression in expressions:
                artifact = compile_expression(expression, config)
                for plan in (artifact.optimized, artifact.fused):
                    for node in _nodes(plan):
                        assert not isinstance(node, FORBIDDEN_OFF_REAL), (
                            f"{type(node).__name__} in a {ring.name} plan"
                        )


class TestRingPlumbing:
    def test_ring_salts_the_config_digest(self):
        digests = {
            OptimizerConfig(semiring=name).digest()
            for name in ("real", "min-plus", "max-times", "bool")
        }
        assert len(digests) == 4

    def test_unknown_ring_fails_at_config_construction(self):
        with pytest.raises(Exception):
            OptimizerConfig(semiring="tropical-typo")

    def test_incompatible_expressions_rejected_at_compile_time(self):
        n = Dim("n", 8)
        A = Matrix("A", n, n, sparsity=1.0)
        B = Matrix("B", n, n, sparsity=1.0)
        config = OptimizerConfig(semiring="min-plus")
        with pytest.raises(RingCompatibilityError):
            compile_expression(A - B, config)
        with pytest.raises(RingLiteralError):
            compile_expression(la.ElemMul(la.Literal(0.5), A), config)
        # the same expressions compile fine under the real ring
        compile_expression(A - B, OptimizerConfig())

    def test_counting_literals_collapse_in_idempotent_rings(self):
        # 2·A ≡ A ⊕ A ≡ A under min-plus: literal 2 encodes to one (= 0.0).
        n = Dim("n", 6)
        A = Matrix("A", n, n, sparsity=1.0)
        rng = np.random.default_rng(0)
        values = {"A": rng.integers(1, 65, size=(6, 6)) / 64.0}
        session = Session(OptimizerConfig(semiring="min-plus"))
        doubled = _dense(session.run(la.ElemMul(la.Literal(2.0), A), values))
        assert np.array_equal(doubled, values["A"])

    def test_simplify_keeps_only_ring_sound_rewrites_off_real(self):
        n = Dim("n", 4)
        A = Matrix("A", n, n, sparsity=1.0)
        ring = resolve_semiring("min-plus")
        # counting-sound: A ⊕ A → 2 ⊗ A, identity drops, X⊗X → X².
        assert simplify(A + A, ring=ring) == la.ElemMul(la.Literal(2.0), A)
        assert simplify(la.ElemMul(la.Literal(1.0), A), ring=ring) == A
        assert simplify(la.ElemMul(A, A), ring=ring) == la.Power(A, 2.0)
        # counting constant folding: 2 ⊕ 3 folds, fractional does not.
        folded = simplify(la.ElemPlus(la.Literal(2.0), la.Literal(3.0)), ring=ring)
        assert folded == la.Literal(5.0)
        frac = la.ElemPlus(la.Literal(0.5), la.Literal(3.0))
        assert simplify(frac, ring=ring) == frac
        # real-only: Minus(x, 0) stays untouched (no subtraction capability).
        minus_zero = la.ElemMinus(A, la.Literal(0.0))
        assert simplify(minus_zero, ring=ring) == minus_zero

    def test_check_ring_compatibility_accepts_the_sum_product_fragment(self):
        n = Dim("n", 8)
        A = Matrix("A", n, n, sparsity=1.0)
        check_ring_compatibility(Sum((A @ A) * A + A), MIN_PLUS)
        with pytest.raises(RingCompatibilityError):
            check_ring_compatibility(la.Power(A, 0.5), MIN_PLUS)
