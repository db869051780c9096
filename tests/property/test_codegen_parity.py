"""Bitwise fused-vs-interpreter parity for the code-generation tier.

The fused executor's contract is not "numerically close" — it is *bitwise
identical* to the instruction tape on every plan it accepts (and it falls
back to the tape on everything else).  These tests enforce that contract
three ways:

* every root of all five real-ring paper workloads, end to end;
* randomized slot-space expressions over dense and sparse inputs
  (hypothesis-driven seeds), including the runtime density-guard path;
* the fallback: non-real rings must yield the plain tape.
"""

import random

import numpy as np
import pytest
from scipy import sparse
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.session import Session
from repro.lang import expr as la
from repro.lang.dims import Dim, Shape
from repro.runtime.codegen import FusedPlan, build_executable, compile_fused
from repro.runtime.data import MatrixValue
from repro.runtime.engine import Executor
from repro.runtime.tape import TapePlan
from repro.workloads import get_workload, workload_names

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _assert_bitwise(got, expected, context: str) -> None:
    assert got.is_sparse == expected.is_sparse, (
        f"{context}: representation drifted (fused is_sparse={got.is_sparse}, "
        f"tape is_sparse={expected.is_sparse})"
    )
    assert np.array_equal(got.to_dense(), expected.to_dense()), (
        f"{context}: values are not bitwise identical"
    )


def _parity_for_entry(entry, n_slots, values, context, pinned=frozenset()):
    """Assert fused output is bitwise identical to the tape's on one binding.

    With ``pinned`` slots both executables hoist what only those determine;
    each then runs twice (the build, then the hoisted values) and every run
    must match the interpreter bitwise as well.
    """
    tape = TapePlan(entry.slot_plan, n_slots, ring="real", pinned=pinned)
    slot_sparsity = {spec.index: spec.sparsity for spec in entry.signature.slots}
    fused = compile_fused(
        entry.slot_plan,
        n_slots,
        ring="real",
        slot_sparsity=slot_sparsity,
        pinned=pinned,
    )
    expected = tape.execute(values).value
    if pinned:
        oracle = Executor("real").execute_slots(entry.slot_plan, values).value
        _assert_bitwise(expected, oracle, f"{context} (tape vs interpreter)")
        _assert_bitwise(tape.execute(values).value, oracle, f"{context} (hoisted tape)")
    if fused is None:
        return False
    got = fused.execute(values).value
    _assert_bitwise(got, expected, context)
    if pinned:
        _assert_bitwise(fused.execute(values).value, expected, f"{context} (hoisted fused)")
    return fused.fused_regions > 0


class TestWorkloadParity:
    """All five paper workloads, every root, bitwise identical."""

    def test_all_workloads_all_roots(self):
        session = Session()
        fused_anywhere = 0
        for name in workload_names():
            workload = get_workload(name, size="S")
            inputs = workload.inputs(seed=11)
            plans = workload.session_plans(session)
            for root_name, plan in plans.items():
                entry = plan._entry
                n_slots = len(plan.signature.slots)
                values = plan.bind({k: inputs[k] for k in plan.input_names})
                fused_anywhere += _parity_for_entry(
                    entry, n_slots, values, f"{name}/{root_name}"
                )
        # the suite is vacuous if nothing ever took the fused path
        assert fused_anywhere >= 1


class TestPinnedVariantParity:
    """A learned pinned variant (the Gram forms, a hoisted ``t(X)``) is bitwise
    identical across the tape, the fused tier and the interpreter."""

    @pytest.mark.parametrize(
        "family, root",
        [("SVM", "hessian_vector"), ("SVM", "gradient"), ("GLM", "gradient"), ("MLR", "gradient")],
    )
    def test_pinned_variant(self, family, root):
        workload = get_workload(family, size="S")
        inputs = workload.inputs(seed=11)
        plan = Session().compile(workload.roots[root])
        names = plan.input_names
        rng = np.random.default_rng(3)
        for _ in range(40):  # X stays the same object, everything else moves
            plan.run({
                name: inputs[name] if name == "X" else MatrixValue(rng.uniform(0, 1, inputs[name].shape))
                for name in names
            })
        entry = plan._entry
        pinned = frozenset(spec.index for spec in entry.signature.slots if spec.pinned)
        assert pinned == {names.index("X")}, "the plan never adopted its pinned variant"
        values = plan.bind({name: inputs[name] for name in names})
        _parity_for_entry(entry, len(names), values, f"{family}/{root} pinned", pinned)
        _assert_bitwise(
            plan.run({name: inputs[name] for name in names}).value,
            Executor("real").execute_slots(entry.slot_plan, values).value,
            f"{family}/{root} pinned plan.run",
        )


# ---------------------------------------------------------------------------
# Randomized slot-space expressions
# ---------------------------------------------------------------------------

_M, _N = Dim("pm", 13), Dim("pn", 9)


def _random_slot_expr(rng: random.Random, n_slots: int, depth: int) -> la.LAExpr:
    slots = [la.Var(f"@{i}", Shape(_M, _N)) for i in range(n_slots)]

    def gen(level: int) -> la.LAExpr:
        if level <= 0 or rng.random() < 0.25:
            return rng.choice(slots)
        choice = rng.randrange(7)
        if choice == 0:
            return la.ElemMul(gen(level - 1), gen(level - 1))
        if choice == 1:
            return la.ElemPlus(gen(level - 1), gen(level - 1))
        if choice == 2:
            return la.ElemMinus(gen(level - 1), gen(level - 1))
        if choice == 3:
            return la.ElemDiv(gen(level - 1), rng.choice(slots))
        if choice == 4:
            return la.Neg(gen(level - 1))
        if choice == 5:
            return la.UnaryFunc(rng.choice(["sigmoid", "exp", "abs"]), gen(level - 1))
        return la.Power(gen(level - 1), 2.0)

    body = gen(depth)
    root_kind = rng.randrange(5)
    if root_kind == 0:
        return la.Sum(body)
    if root_kind == 1:
        return la.RowSums(body)
    if root_kind == 2:
        return la.ColSums(body)
    if root_kind == 3:
        return la.MatMul(body, la.Transpose(gen(1)))
    return body


def _random_values(seed: int, n_slots: int, density: float):
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(n_slots):
        dense = rng.random((13, 9)) + 0.25  # bounded away from 0 for ElemDiv
        mask = rng.random((13, 9)) < density
        array = np.where(mask, dense, 0.0)
        values.append(MatrixValue(sparse.csr_matrix(array) if density < 0.4 else array))
    return values


class TestRandomizedParity:
    @SETTINGS
    @given(
        seed=st.integers(0, 10_000),
        depth=st.integers(1, 4),
        density=st.sampled_from([1.0, 0.9, 0.05]),
    )
    def test_random_expression_parity(self, seed, depth, density):
        expr = _random_slot_expr(random.Random(seed), n_slots=3, depth=depth)
        values = _random_values(seed, n_slots=3, density=density)
        tape = TapePlan(expr, 3, ring="real")
        fused = compile_fused(expr, 3, ring="real")
        assert fused is not None  # real ring, supported fragment
        expected = tape.execute(values).value
        got = fused.execute(values).value
        _assert_bitwise(got, expected, f"seed={seed} depth={depth} density={density}")

    @SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_dense_hint_sparse_runtime_guard(self, seed):
        """Compile with dense hints, feed sparse values: the guard must fall
        back and the result must still be bitwise identical."""
        expr = _random_slot_expr(random.Random(seed), n_slots=2, depth=3)
        fused = compile_fused(expr, 2, ring="real", slot_sparsity={0: None, 1: None})
        assert fused is not None
        values = _random_values(seed, n_slots=2, density=0.05)
        expected = TapePlan(expr, 2, ring="real").execute(values).value
        got = fused.execute(values).value
        _assert_bitwise(got, expected, f"guard seed={seed}")


# ---------------------------------------------------------------------------
# Fallback
# ---------------------------------------------------------------------------


class TestFallbacks:
    def _expr(self):
        A = la.Var("@0", Shape(_M, _N))
        B = la.Var("@1", Shape(_M, _N))
        return la.Sum(la.ElemPlus(la.ElemMul(A, B), A)), 2

    def test_non_real_rings_never_compile(self):
        expr, n_slots = self._expr()
        for ring in ("min-plus", "max-times", "bool"):
            assert compile_fused(expr, n_slots, ring=ring) is None
            executor = build_executable(expr, n_slots, ring=ring)
            assert isinstance(executor, TapePlan)
            assert not isinstance(executor, FusedPlan)
