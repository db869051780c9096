"""Plans that learn their pinned inputs.

A :class:`~repro.api.plan.CompiledPlan` counts, per slot, the runs that bound
the very same object again.  When a strict subset of the slots repeats, its
Session compiles the variant with those slots pinned, prices it (the hoisted
build against the per-run saving), adopts it once the repeats repay the
build, and reverts to the unpinned entry when a pinned object changes.
"""

import math

import numpy as np
import pytest

from repro.api import Session
from repro.lang import dag
from repro.lang import expr as la
from repro.optimizer import OptimizerConfig
from repro.optimizer.pipeline import breakeven_runs, compile_expression
from repro.runtime.data import MatrixValue
from repro.workloads import get_semiring_workload, get_workload

EPS = np.finfo(np.float64).eps


def svm(root: str, size: str = "S"):
    workload = get_workload("SVM", size)
    return workload, workload.roots[root], workload.inputs(0)


def fresh(rng: np.random.Generator, like: MatrixValue) -> MatrixValue:
    return MatrixValue(rng.uniform(-1.0, 1.0, like.shape))


def requests(plan, inputs, pinned, runs, seed=1):
    """``runs`` requests: the ``pinned`` names keep their objects, the rest are new."""
    rng = np.random.default_rng(seed)
    for _ in range(runs):
        yield {
            name: inputs[name] if name in pinned else fresh(rng, inputs[name])
            for name in plan.input_names
        }


def pinned_variants(plan) -> dict:
    """The pinned contexts ``plan`` resolved, by pinned slots: ``{slots: (entry, N*)}``."""
    return {context.pinned: found for context, found in plan._contexts.items() if context.pinned}


def gram_form(expr: la.LAExpr) -> bool:
    """Whether ``expr`` multiplies by a hoisted ``t(X) %*% X``."""
    return any(
        isinstance(node, la.MatMul)
        and isinstance(node.left, la.MatMul)
        and isinstance(node.left.left, la.Transpose)
        and node.left.left.child == node.left.right
        for node in dag.postorder(expr)
    )


def gram_ulp_bound(x: np.ndarray, v: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """The numeric policy's bound between ``t(X) %*% (X %*% v) + extra`` and
    ``(t(X) %*% X) %*% v + extra``: each product is within
    ``γ_m + γ_n + γ_m γ_n <= γ_(m+n)`` of ``|t(X)| |X| |v|`` (Higham, Thm. 3.5
    and Lemma 3.3), and the final addition rounds once more."""
    m, n = x.shape
    k = m + n + 2
    gamma = k * EPS / (1 - k * EPS)
    return 2 * gamma * (np.abs(x).T @ (np.abs(x) @ np.abs(v))) + 2 * EPS * np.abs(extra)


class TestAdoption:
    def test_hessian_vector_adopts_the_gram_plan_after_breakeven_runs(self):
        _, expr, inputs = svm("hessian_vector")
        session = Session(OptimizerConfig.sampling_greedy())
        plan = session.compile(expr)
        # fresh objects every run keep the reference plan on its unpinned entry
        reference = Session(OptimizerConfig.sampling_greedy()).compile(expr)
        unpinned = plan._entry
        adopted_at = None
        for run, request in enumerate(requests(plan, inputs, {"X"}, 40)):
            result = plan.run(request).value.to_dense()
            if adopted_at is None and plan._entry is not unpinned:
                adopted_at = run
            if adopted_at is not None:
                fresh_objects = {name: MatrixValue(value.data) for name, value in request.items()}
                expected = reference.run(fresh_objects).value.to_dense()
                s = request["s"].to_dense()
                bound = gram_ulp_bound(inputs["X"].to_dense(), s, 0.01 * s)
                assert np.all(np.abs(result - expected) <= bound)
        ((slots, (entry, breakeven)),) = pinned_variants(plan).items()
        assert slots == (0,) and 1 <= breakeven < 40
        # run k has seen X k times before: the variant is adopted when the
        # repeat count reaches N*, and kept while X stays the same object
        assert adopted_at == breakeven
        assert plan._entry is entry and plan.stats.pin_adoptions == 1
        assert gram_form(entry.artifact.optimized)
        assert not gram_form(unpinned.artifact.optimized)
        assert "pinned" in plan.explain()
        # the Gram matrix was built once and read by every later run
        hoisted = plan.executable().hoisted
        assert hoisted is not None and hoisted.hits > 0
        assert hoisted.misses == len(hoisted.steps)

    def test_breakeven_is_hoisted_cost_over_per_run_saving(self):
        _, expr, _ = svm("hessian_vector")
        config = OptimizerConfig.sampling_greedy()
        pinned = dag.substitute(
            expr,
            {var: la.Var(var.name, var.var_shape, var.sparsity, True)
             for var in dag.variables(expr) if var.name == "X"},
        )
        unpinned_artifact = compile_expression(expr, config)
        pinned_artifact = compile_expression(pinned, config)
        assert math.isfinite(breakeven_runs(pinned_artifact, unpinned_artifact))
        # a variant identical to the unpinned plan saves nothing per run
        assert breakeven_runs(unpinned_artifact, unpinned_artifact) == math.inf

    def test_gradient_hoists_the_gram_matrix(self):
        _, expr, inputs = svm("gradient")
        plan = Session(OptimizerConfig.sampling_greedy()).compile(expr)
        for request in requests(plan, inputs, {"X"}, 30):
            plan.run(request)
        assert plan.stats.pin_adoptions == 1
        assert gram_form(plan.optimized)


class TestRevert:
    def test_a_changed_pinned_object_reverts_to_the_cached_unpinned_entry(self):
        _, expr, inputs = svm("hessian_vector")
        session = Session(OptimizerConfig.sampling_greedy())
        plan = session.compile(expr)
        unpinned = plan._entry
        for request in requests(plan, inputs, {"X"}, 30):
            plan.run(request)
        assert plan._entry is not unpinned
        compilations = session.compilations
        other = MatrixValue(inputs["X"].data.copy())
        result = plan.run(X=other, s=fresh(np.random.default_rng(5), inputs["s"]))
        assert plan._entry is unpinned and plan.stats.pin_reverts == 1
        assert session.compilations == compilations  # nothing was compiled
        assert result.value.shape == (inputs["s"].shape[0], 1)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 13])
    def test_alternating_inputs_never_build_more_than_once_per_breakeven(self, block):
        _, expr, inputs = svm("hessian_vector")
        plan = Session(OptimizerConfig.sampling_greedy()).compile(expr)
        xs = [inputs["X"], MatrixValue(inputs["X"].data.copy())]
        rng = np.random.default_rng(block)
        runs = 60
        for run in range(runs):
            plan.run(X=xs[(run // block) % 2], s=fresh(rng, inputs["s"]))
        variants = list(pinned_variants(plan).values())
        if block == 1:
            assert not variants  # X never repeated: nothing to learn
            return
        ((entry, breakeven),) = variants
        hoisted = entry.executable(plan.ring).hoisted
        builds = hoisted.misses // len(hoisted.steps)
        assert builds * breakeven <= runs
        if block <= breakeven:
            assert builds == 0  # a value seen fewer than N* times never pays


class TestNoLearning:
    def test_a_plan_whose_every_slot_repeats_hoists_and_recompiles_nothing(self):
        workload = get_semiring_workload("REACH", "S")
        session = Session(OptimizerConfig.sampling_greedy(semiring=workload.semiring))
        plan = session.compile(workload.roots["two_hop"])
        inputs = workload.inputs(0)
        for _ in range(10):
            plan.run(A=inputs["A"])
        assert session.compilations == 1 and not pinned_variants(plan)
        assert plan.stats.pin_adoptions == 0 and plan.executable().hoisted is None

    def test_repeating_every_input_of_a_multi_input_plan_learns_nothing(self):
        _, expr, inputs = svm("hessian_vector")
        session = Session(OptimizerConfig.sampling_greedy())
        plan = session.compile(expr)
        for _ in range(10):
            plan.run(X=inputs["X"], s=inputs["s"])
        assert session.compilations == 1 and not pinned_variants(plan)

    def test_scalar_roots_keep_their_unpinned_plan(self):
        _, expr, inputs = svm("objective")
        session = Session(OptimizerConfig.sampling_greedy())
        plan = session.compile(expr)
        unpinned = plan._entry
        for request in requests(plan, inputs, {"X", "y"}, 20):
            plan.run(request)
        assert plan._entry is unpinned and not pinned_variants(plan)
        assert session.compilations == 1


def test_unpinned_compiles_keep_their_digests():
    """The pinned flag enters a digest only when it is set."""
    _, expr, _ = svm("gradient")
    pinned = dag.substitute(
        expr,
        {var: la.Var(var.name, var.var_shape, var.sparsity, True)
         for var in dag.variables(expr) if var.name == "X"},
    )
    from repro.canonical.fingerprint import signature_of

    plain, marked = signature_of(expr), signature_of(pinned)
    assert plain.digest != marked.digest
    assert plain.template_digest != marked.template_digest
    assert [spec.pinned for spec in marked.slots] == [
        spec.name == "X" for spec in marked.slots
    ]
    assert not any(spec.pinned for spec in plain.slots)


def test_pinned_variants_are_never_written_to_the_store(tmp_path):
    _, expr, inputs = svm("hessian_vector")
    session = Session(OptimizerConfig.sampling_greedy(), store_path=tmp_path)
    plan = session.compile(expr)
    for request in requests(plan, inputs, {"X"}, 30):
        plan.run(request)
    assert plan.stats.pin_adoptions == 1
    assert session.store.describe()["entries"] == 1


def test_gradient_error_near_convergence_is_recorded(record_property):
    """Near convergence (``w`` from least squares) the SVM gradient is a small
    difference of large terms.  Record the error of the Gram form and of the
    residual form against a long-double reference: the figure the numeric
    policy's bound describes.  Recorded, not gated."""
    _, expr, inputs = svm("gradient")
    x = inputs["X"].to_dense()
    y = inputs["y"].to_dense()
    w = np.linalg.lstsq(x, y, rcond=None)[0]
    session = Session(OptimizerConfig.sampling_greedy())
    plan = session.compile(expr)
    residual_form = plan._entry
    for request in requests(plan, inputs, {"X"}, 30):
        plan.run(request)
    gram_entry = plan._entry
    assert gram_entry is not residual_form and gram_form(gram_entry.artifact.optimized)
    xl, yl, wl = (a.astype(np.longdouble) for a in (x, y, w))
    reference = xl.T @ (xl @ wl - yl) + np.longdouble(0.01) * wl
    scale = float(np.max(np.abs(reference)))
    errors = {}
    for name, entry in (("residual", residual_form), ("gram", gram_entry)):
        values = plan.bind(X=inputs["X"], w=MatrixValue(w), y=inputs["y"])
        got = entry.executable(plan.ring).execute(values).value.to_dense()
        errors[name] = float(np.max(np.abs(got.astype(np.longdouble) - reference))) / scale
        record_property(f"svm_gradient_{name}_relative_error", errors[name])
    print(f"SVM/gradient near convergence, max error / max |g|: {errors}")
    assert all(math.isfinite(error) for error in errors.values())
