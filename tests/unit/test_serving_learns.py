"""The serving engine learns pinned inputs as a Session plan does.

Every request the engine executes runs the step ``CompiledPlan.run`` runs —
learn, execute, record — on the learning state of the session's cached
entry, so inline, pooled and renamed-twin requests of one instance digest
advance one set of counters, adopt a pinned variant once it pays, and revert
before executing when a pinned object changes.
"""

import gc
import weakref

import numpy as np

from repro.api import Session
from repro.lang import dag
from repro.lang import expr as la
from repro.optimizer import OptimizerConfig
from repro.runtime.data import MatrixValue
from repro.serve import ServingEngine
from repro.workloads import get_workload
from tests.helpers import hold_first_pool_batch


def config():
    return OptimizerConfig.sampling_greedy()


def svm(root):
    workload = get_workload("SVM", "S")
    return workload.roots[root], workload.inputs(0)


def stream(inputs, names, runs, seed, pinned=("X",)):
    """``runs`` requests: the ``pinned`` names keep their objects, the rest are new."""
    rng = np.random.default_rng(seed)
    for _ in range(runs):
        yield {
            name: inputs[name]
            if name in pinned
            else MatrixValue(rng.uniform(-1.0, 1.0, inputs[name].shape))
            for name in names
        }


def renamed(expr, names):
    """``expr`` with its inputs renamed by ``names``: the same instance digest."""
    return dag.substitute_vars(
        expr,
        {
            var.name: la.Var(names[var.name], var.var_shape, var.sparsity)
            for var in dag.variables(expr)
        },
    )


def same(got, want):
    return got.is_sparse == want.is_sparse and np.array_equal(got.to_dense(), want.to_dense())


def test_the_engine_adopts_hessian_vectors_pinned_context():
    expr, inputs = svm("hessian_vector")
    with ServingEngine(shards=1, config=config()) as engine:
        plan = engine.plan_for(expr)
        unpinned = plan._entry
        adopted_at = None
        for run, request in enumerate(stream(inputs, plan.input_names, 20, seed=1)):
            engine.run(expr, request)
            if adopted_at is None and plan._entry is not unpinned:
                adopted_at = run
        ((_, breakeven),) = [found for ctx, found in plan._contexts.items() if ctx.pinned]
        # run k has seen X k times before, exactly as under CompiledPlan.run
        assert adopted_at == breakeven
        assert plan._entry.context.pinned == (plan.signature.slot_of["X"],)
        stats = engine.stats()
        assert (stats.pin_adoptions, stats.pin_reverts, stats.errors) == (1, 0, 0)
        hoisted = plan.executable().hoisted
        assert hoisted is not None and hoisted.hits > 0


def test_served_answers_are_bitwise_a_session_plans_for_the_same_sequence():
    """Adoption, the switch run and a revert: every answer the engine gives is
    the one a separate Session's plan gives for the same request sequence."""
    expr, inputs = svm("hessian_vector")
    other = dict(inputs, X=MatrixValue(inputs["X"].data.copy()))
    names = ("X", "s")
    sequence = list(stream(inputs, names, 14, seed=2)) + list(stream(other, names, 3, seed=3))
    plan = Session(config()).compile(expr)
    with ServingEngine(shards=1, config=config()) as engine:
        served_plan = engine.plan_for(expr)
        for request in sequence:
            got = engine.run(expr, request).value
            want = plan.run(request).value
            assert same(got, want)
            assert served_plan._entry.signature.digest == plan._entry.signature.digest
        stats = engine.stats()
    assert (stats.pin_adoptions, stats.pin_reverts) == (1, 1)
    assert (plan.stats.pin_adoptions, plan.stats.pin_reverts) == (1, 1)


def test_inline_pooled_and_twin_requests_compile_one_variant_and_adopt_once():
    expr, inputs = svm("hessian_vector")
    twin = renamed(expr, {"X": "D", "s": "v"})
    with ServingEngine(shards=2, config=config()) as engine:
        plan, twin_plan = engine.plan_for(expr), engine.plan_for(twin)
        assert twin_plan.signature.digest == plan.signature.digest
        assert twin_plan._learning is plan._learning  # one learning state per digest
        compilations = engine.compilations
        for run, request in enumerate(stream(inputs, ("X", "s"), 24, seed=4)):
            if run % 3 == 0:
                engine.run(expr, request)
            elif run % 3 == 1:
                engine.submit(expr, request).result(timeout=60)
            else:
                engine.run(twin, {"D": request["X"], "v": request["s"]})
        stats = engine.stats()
        assert engine.compilations == compilations + 1  # the pinned variant, once
        assert (stats.pin_adoptions, stats.pin_reverts, stats.errors) == (1, 0, 0)
        assert plan.stats.executions == 24
        assert plan._entry is twin_plan._entry and plan._entry.context.pinned


def test_a_new_object_in_a_pinned_slot_reverts_before_it_executes(monkeypatch):
    expr, inputs = svm("hessian_vector")
    with ServingEngine(shards=1, config=config()) as engine:
        plan = engine.plan_for(expr)
        unpinned = plan._entry
        for request in stream(inputs, plan.input_names, 12, seed=5):
            engine.run(expr, request)
        assert plan._entry is not unpinned
        executed = []
        run_tape = engine._run_tape

        def recording(tape, values):
            executed.append(tape)
            return run_tape(tape, values)

        monkeypatch.setattr(engine, "_run_tape", recording)
        (request,) = stream(dict(inputs, X=MatrixValue(inputs["X"].data.copy())),
                            plan.input_names, 1, seed=6)
        got = engine.run(expr, request).value
        assert executed == [unpinned.executable(plan.ring)]
        assert plan._entry is unpinned and engine.stats().pin_reverts == 1
        assert same(got, unpinned.executable(plan.ring).execute(plan.bind(request)).value)


def test_an_svm_gradient_family_keeps_a_stacked_verified_execution_after_adoption():
    """SVM/gradient's pinned form multiplies a dense Gram matrix by ``w``;
    stacked, that is one gemm, not bitwise the gemvs.  After the engine
    adopts it, a queued family still stacks — on an executable whose
    stacking verifies — and every answer is that executable's own."""
    expr, inputs = svm("gradient")
    with ServingEngine(shards=1, config=config()) as engine:
        plan = engine.plan_for(expr)
        names = plan.input_names
        for request in stream(inputs, names, 10, seed=7, pinned=("X", "y")):
            engine.run(expr, request)
        assert engine.stats().pin_adoptions == 1
        adopted = plan._entry
        family = list(stream(inputs, names, 32, seed=8, pinned=("X", "y")))
        busy, release = hold_first_pool_batch(engine)
        blocker = engine.submit(expr, family[0])
        assert busy.wait(30)
        futures = [engine.submit(expr, request) for request in family[1:]]
        release.set()
        results = [blocker.result(timeout=60)] + [f.result(timeout=60) for f in futures]
        stats = engine.stats()
        assert (stats.stacked_requests, stats.errors) == (31, 0)
        unpinned = plan._unpinned(adopted)
        verdicts = {
            entry.context.pinned: engine._local[entry.executable(plan.ring)].status
            for entry in (adopted, unpinned)
        }
        stacked_on = adopted if verdicts[adopted.context.pinned] == "on" else unpinned
        assert engine._local[stacked_on.executable(plan.ring)].status == "on"
        for request, result in zip(family[1:], results[1:]):
            want = stacked_on.executable(plan.ring).execute(plan.bind(request)).value
            assert same(result.value, want)
        assert plan._entry is adopted  # stacking moved nothing


def test_a_one_entry_cache_drops_the_learning_state_with_the_entry():
    expr, inputs = svm("hessian_vector")
    other, other_inputs = svm("gradient")
    with ServingEngine(shards=1, config=config(), cache_size=1) as engine:
        (request,) = stream(inputs, ("X", "s"), 1, seed=9)
        engine.run(expr, request)
        learning = weakref.ref(engine.plan_for(expr)._learning)
        (request,) = stream(other_inputs, ("X", "w", "y"), 1, seed=10)
        engine.run(other, request)  # evicts the hessian_vector entry
        gc.collect()
        assert learning() is None  # no table outside the plan cache kept it
        assert engine.stats().pin_adoptions == 0
