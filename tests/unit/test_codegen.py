"""Unit tests for fused code generation (``repro.runtime.codegen``).

Covers the op table, the fusion planner, the source emitter, the module
cache, the columnwise batching analysis, the serving tier's stacked
execution, and the plan API surfacing (one executable per plan).
Bitwise parity across whole workloads lives in
``tests/property/test_codegen_parity.py``.
"""

import dataclasses
import gc
import json
import math
import weakref

import numpy as np
import pytest
from scipy import sparse

from repro.canonical.fingerprint import fingerprint
from repro.cost import LACostModel
from repro.lang import expr as la
from repro.lang.dims import Dim, Shape
from repro.optimizer.ring_gate import RingCompatibilityError, check_ring_compatibility
from repro.runtime import execute_slots, kernels
from repro.runtime.codegen import (
    CODEGEN_VERSION,
    FusedPlan,
    build_executable,
    clear_module_cache,
    compile_fused,
    emit_source,
    plan_regions,
    source_digest,
    stackable_slot,
)
from repro.runtime.data import MatrixValue
from repro.runtime.optable import (
    CONSTANT_TYPES,
    DENSE,
    ELEMENTWISE,
    FOLD_ROOT,
    FUSED_PHYSICAL,
    OP_TABLE,
    SPARSE,
    OpSpec,
    nnz,
)
from repro.runtime.semiring import AUDIT_SEMIRINGS, MIN_PLUS, REAL
from repro.serialize import decode_expression, encode_expression
from repro.runtime.tape import TapePlan


def _slots(*shapes):
    return tuple(
        la.Var(f"@{index}", Shape(*dims)) for index, dims in enumerate(shapes)
    )


def _dims(rows, cols, tag=""):
    return Dim(f"r{tag}", rows), Dim(f"c{tag}", cols)


def _chain_expr():
    """``Sum(((A*B)+C) * (A+(B*C)) - (A*C))`` — one deep elementwise chain."""
    m, n = _dims(24, 18)
    A, B, C = _slots((m, n), (m, n), (m, n))
    return (
        la.Sum(
            la.ElemMinus(
                la.ElemMul(
                    la.ElemPlus(la.ElemMul(A, B), C),
                    la.ElemPlus(A, la.ElemMul(B, C)),
                ),
                la.ElemMul(A, C),
            )
        ),
        3,
    )


def _dense_inputs(n_slots, rows=24, cols=18, seed=0):
    rng = np.random.default_rng(seed)
    return [MatrixValue(rng.random((rows, cols))) for _ in range(n_slots)]


# ---------------------------------------------------------------------------
# Op table
# ---------------------------------------------------------------------------


@pytest.fixture
def scale_operator():
    """A throwaway operator ``Scale(factor, child) = factor * child``: its
    class and its row (over the existing ``scalar_mul`` kernel — the one
    elementwise kernel that takes a static argument), registered for one
    test and nothing else touched."""

    @la.node
    class Scale(la.LAExpr):
        factor: float
        child: la.LAExpr

        @property
        def shape(self):
            return self.child.shape

    OP_TABLE[Scale] = OpSpec(
        "scale",
        "scalar_mul",
        lambda node, sp: sp(node.child),
        nnz,
        lambda node, sparse: SPARSE if sparse[0] else DENSE,
        ELEMENTWISE,
        "({0} * {s!r})",
        static_first=True,
        needs="real",
    )
    yield Scale
    del OP_TABLE[Scale], la.NODE_TYPES["Scale"]


class TestOpTable:
    def test_every_concrete_node_has_a_row_or_is_a_leaf(self):
        assert set(la.NODE_TYPES.values()) == set(OP_TABLE) | {la.Var} | set(CONSTANT_TYPES)

    def test_every_row_names_a_kernel_of_every_ring(self):
        assert len(AUDIT_SEMIRINGS) == 4
        for ring in AUDIT_SEMIRINGS:
            kernel_set = kernels.for_ring(ring)
            for kind, spec in OP_TABLE.items():
                assert callable(getattr(kernel_set, spec.kernel)), (ring.name, kind)

    def test_derived_type_sets_match_the_planner_tuples_they_replaced(self):
        def of(*loops):
            return {kind for kind, spec in OP_TABLE.items() if spec.loop in loops}

        elementwise = {
            la.ElemMul, la.ElemPlus, la.ElemMinus, la.ElemDiv,
            la.Power, la.Neg, la.UnaryFunc,
        }
        assert of(ELEMENTWISE) == elementwise
        assert of(ELEMENTWISE, FOLD_ROOT) == elementwise | {
            la.Sum, la.RowSums, la.ColSums, la.MatMul,
        }
        assert of(FUSED_PHYSICAL) == {
            la.WSLoss, la.WCeMM, la.WDivMM, la.SProp, la.MMChain,
        }
        for kind in elementwise:
            assert OP_TABLE[kind].formula is not None

    def test_needs_bind_the_kernels_and_gate_the_plans_alike(self):
        """One ``needs`` column, two readers: a ring's KernelSet raises for
        exactly the operators the compile-time gate rejects under it."""
        m, n = _dims(4, 3)
        (A,) = _slots((m, n))
        w = la.Literal(1.0)
        samples = {
            la.ElemMul: la.ElemMul(A, A), la.ElemPlus: la.ElemPlus(A, A),
            la.ElemMinus: la.ElemMinus(A, A), la.ElemDiv: la.ElemDiv(A, A),
            la.Power: la.Power(A, 2.0), la.Neg: la.Neg(A),
            la.UnaryFunc: la.UnaryFunc("exp", A), la.MatMul: la.MatMul(A, la.Transpose(A)),
            la.RowSums: la.RowSums(A), la.ColSums: la.ColSums(A), la.Sum: la.Sum(A),
            la.Transpose: la.Transpose(A), la.RowMajor: la.RowMajor(la.Transpose(A)),
            la.CastScalar: la.CastScalar(la.Sum(A)),
            la.WSLoss: la.WSLoss(A, A, A, w), la.WCeMM: la.WCeMM(A, A, A),
            la.WDivMM: la.WDivMM(A, A, A, True), la.SProp: la.SProp(A),
            la.MMChain: la.MMChain(A, A, w),
        }
        assert set(samples) == set(OP_TABLE)
        # (ℝ, +, ×) without division: the one capability mix no audit ring has
        signed = dataclasses.replace(REAL, name="signed", has_division=False, div=None)
        for ring in (*AUDIT_SEMIRINGS, signed):
            kernel_set = kernels.KernelSet(ring)
            for kind, expr in samples.items():
                unbound = getattr(kernel_set, OP_TABLE[kind].kernel).__name__ == "raiser"
                try:
                    check_ring_compatibility(expr, ring)
                    rejected = False
                except RingCompatibilityError:
                    rejected = True
                assert rejected == unbound == (not ring.provides(OP_TABLE[kind].needs)), (
                    ring.name, kind.__name__,
                )
        # the gate admits Neg / ElemMinus on a ring with subtraction — and they run
        value = MatrixValue(np.array([[1.5, -2.0]]))
        assert np.array_equal(kernels.KernelSet(signed).negate(value).data, [[-1.5, 2.0]])
        assert np.array_equal(kernels.KernelSet(signed).elem_sub(value, value).data, [[0.0, 0.0]])

    def test_an_operator_is_one_declaration(self, scale_operator):
        """A node class plus one row — no other module patched — and the
        operator serializes, fingerprints, costs, executes on every tier
        (folded into a fused region) and is gated by ring."""
        Scale = scale_operator
        m, n = _dims(6, 5)
        A, B, C = _slots((m, n), (m, n), (m, n))
        expr = la.Sum(la.ElemPlus(Scale(2.5, la.ElemMul(A, B)), C))

        # codec: the static field rides the node table by its field name
        payload = json.loads(json.dumps(encode_expression(expr), allow_nan=False))
        assert {"op": "Scale", "children": [2], "factor": 2.5} in payload["exprs"]["nodes"]
        assert decode_expression(payload) == expr
        # fingerprint: the static field is part of the operator token
        assert fingerprint(expr) == fingerprint(decode_expression(payload))
        assert fingerprint(expr) != fingerprint(
            la.Sum(la.ElemPlus(Scale(3.5, la.ElemMul(A, B)), C))
        )
        assert str(expr) == "sum(Scale(@0 * @1, 2.5) + @2)"
        # cost: the row's own rules, no default branch to fall into
        cost = LACostModel().total(expr)
        assert math.isfinite(cost) and cost > LACostModel().total(la.ElemMul(A, B))

        # execution: interpreter, tape and fused tier agree to the bit
        inputs = _dense_inputs(3, 6, 5)
        a, b, c = (value.data for value in inputs)
        expected = float((a * b * 2.5 + c).sum())
        fused = compile_fused(expr, 3)
        results = [
            execute_slots(expr, inputs),
            TapePlan(expr, 3).execute(inputs),
            fused.execute(inputs),
        ]
        assert [result.scalar() for result in results] == [expected] * 3
        # ... and the planner read the row: the whole chain is one region
        (region,) = plan_regions(expr, 3).regions
        assert region.fused and Scale in {type(node) for node, _ in region.schedule}
        assert "* 2.5)" in fused.source

        # ring gate: rejected off the real ring per the row's ``needs``
        check_ring_compatibility(expr, REAL)
        with pytest.raises(RingCompatibilityError, match="Scale"):
            check_ring_compatibility(expr, MIN_PLUS)

        # row completeness is the constructor: no cost rules, no row
        with pytest.raises(TypeError, match="sparsity"):
            OpSpec("scale", "scalar_mul", loop=ELEMENTWISE, formula="({0} * {s!r})")


# ---------------------------------------------------------------------------
# Fusion planner
# ---------------------------------------------------------------------------


class TestRegions:
    def test_elementwise_chain_collapses_to_one_region(self):
        expr, n_slots = _chain_expr()
        plan = plan_regions(expr, n_slots, None)
        assert len(plan.regions) == 1
        assert plan.fused_regions == 1
        region = plan.regions[0]
        assert region.fused
        assert isinstance(region.root, la.Sum)
        # the whole interior (6 elementwise ops) folded into the Sum
        assert len(region.schedule) >= 7
        assert plan.fused_operators == 1
        assert region.label().startswith("Fused[")

    def test_sparse_hint_gates_fusion_off(self):
        expr, n_slots = _chain_expr()
        dense = plan_regions(expr, n_slots, {0: None, 1: None, 2: None})
        sparse = plan_regions(expr, n_slots, {0: 0.01, 1: 0.01, 2: 0.01})
        assert dense.fused_regions == 1
        assert sparse.fused_regions == 0

    def test_structure_digest_is_deterministic_and_hint_banded(self):
        expr, n_slots = _chain_expr()
        a = plan_regions(expr, n_slots, None)
        b = plan_regions(expr, n_slots, None)
        assert a.structure_digest() == b.structure_digest()
        # a different sparsity *band* changes the fusion decisions
        c = plan_regions(expr, n_slots, {0: 0.01})
        assert a.structure_digest() != c.structure_digest()

    def test_region_step_group_matches_schedule(self):
        expr, n_slots = _chain_expr()
        fused = compile_fused(expr, n_slots, ring="real")
        group = fused.step_group(0)
        assert group[-1] is fused.step_node(0)
        assert len(group) == len(fused._plan.regions[0].schedule)


# ---------------------------------------------------------------------------
# Emitter
# ---------------------------------------------------------------------------


class TestEmit:
    def test_emission_is_deterministic(self):
        expr, n_slots = _chain_expr()
        plan = plan_regions(expr, n_slots, None)
        first = emit_source(plan, "real")
        second = emit_source(plan, "real")
        assert first == second
        assert source_digest(first) == source_digest(second)

    def test_header_declares_version_ring_and_regions(self):
        expr, n_slots = _chain_expr()
        plan = plan_regions(expr, n_slots, None)
        header = emit_source(plan, "real").splitlines()[0]
        assert header == (
            f"# repro-codegen v{CODEGEN_VERSION} ring=real "
            f"regions={len(plan.regions)} fused={plan.fused_regions}"
        )

    def test_emitted_source_is_size_free(self):
        """One template's source must serve its whole size ladder."""
        small, n_slots = _chain_expr()
        m, n = _dims(96, 64, tag="L")
        A, B, C = _slots((m, n), (m, n), (m, n))
        large = la.Sum(
            la.ElemMinus(
                la.ElemMul(
                    la.ElemPlus(la.ElemMul(A, B), C),
                    la.ElemPlus(A, la.ElemMul(B, C)),
                ),
                la.ElemMul(A, C),
            )
        )
        source_small = emit_source(plan_regions(small, n_slots, None), "real")
        source_large = emit_source(plan_regions(large, n_slots, None), "real")
        assert source_small == source_large


# ---------------------------------------------------------------------------
# What an executable keeps between runs
# ---------------------------------------------------------------------------


class TestExecutablesKeepNoRequestData:
    """A run's value vector is its own: once ``execute`` returns, nothing of
    the request stays alive in the executable, except on a pinned plan the
    hoisted values and the pinned objects they were computed from."""

    @staticmethod
    def _live_values():
        gc.collect()
        return {id(value): value for value in gc.get_objects() if isinstance(value, MatrixValue)}

    def _kept_by_a_run(self, executable, values):
        """The values a run creates that outlive it once its result is dropped."""
        before = self._live_values()
        executable.execute(values)
        return [value for key, value in self._live_values().items() if key not in before]

    def test_an_unpinned_run_keeps_nothing(self):
        expr, n_slots = _chain_expr()
        for executable in (TapePlan(expr, n_slots), compile_fused(expr, n_slots, ring="real")):
            values = _dense_inputs(n_slots)
            probe = weakref.ref(values[0])
            assert self._kept_by_a_run(executable, values) == []
            del values
            assert probe() is None, type(executable).__name__

    def test_a_pinned_run_keeps_only_its_hoisted_values(self):
        m, n = _dims(24, 18)
        A, B = _slots((m, n), (m, n))
        expr = la.Sum(la.ElemPlus(la.ElemMul(A, A), B))  # A * A reads the pinned slot alone
        pinned_slots = frozenset({0})
        for executable in (
            TapePlan(expr, 2, pinned=pinned_slots),
            compile_fused(expr, 2, ring="real", pinned=pinned_slots),
        ):
            pinned, query = _dense_inputs(2)
            pinned_probe, query_probe = weakref.ref(pinned), weakref.ref(query)
            kept = self._kept_by_a_run(executable, [pinned, query])
            hoisted = [value for _, value in executable.hoisted._entries.values()]
            assert len(kept) == 1 and kept[0] is hoisted[0], type(executable).__name__
            del pinned, query, kept
            assert query_probe() is None
            assert pinned_probe() is not None  # the hoisted entry's key


# ---------------------------------------------------------------------------
# Executable selection and module cache
# ---------------------------------------------------------------------------


class TestExecutable:
    def test_nonreal_rings_return_none(self):
        expr, n_slots = _chain_expr()
        assert compile_fused(expr, n_slots, ring="min-plus") is None
        assert compile_fused(expr, n_slots, ring="bool") is None

    def test_build_executable_falls_back_to_tape(self):
        expr, n_slots = _chain_expr()
        assert type(build_executable(expr, n_slots, ring="min-plus")) is TapePlan
        assert isinstance(build_executable(expr, n_slots, ring="real"), FusedPlan)

    def test_module_cache_shares_compiled_modules(self):
        expr, n_slots = _chain_expr()
        clear_module_cache()
        a = compile_fused(expr, n_slots, ring="real")
        b = compile_fused(expr, n_slots, ring="real")
        # one compiled code object behind both plans' region functions
        assert a._steps[0].fn.__code__ is b._steps[0].fn.__code__
        clear_module_cache()
        c = compile_fused(expr, n_slots, ring="real")
        assert c._steps[0].fn.__code__ is not a._steps[0].fn.__code__


# ---------------------------------------------------------------------------
# Columnwise batching analysis
# ---------------------------------------------------------------------------


class TestStackableSlot:
    def _matvec(self):
        m, n = _dims(40, 30)
        A = la.Var("@0", Shape(m, n))
        q = la.Var("@1", Shape(n, Dim("one", 1)))
        return A, q

    def test_matvec_chain_is_stackable(self):
        A, q = self._matvec()
        expr = la.UnaryFunc("sigmoid", la.ElemPlus(la.MatMul(A, q), la.MatMul(A, q) * 0.5))
        assert stackable_slot(expr, 2) == 1

    def test_sum_over_the_vector_is_not(self):
        A, q = self._matvec()
        assert stackable_slot(la.Sum(la.MatMul(A, q)), 2) is None

    def test_transpose_of_the_vector_is_not(self):
        _, q = self._matvec()
        assert stackable_slot(la.MatMul(la.Transpose(q), q), 2) is None

    def test_right_side_matmul_is_not(self):
        A, q = self._matvec()
        # MatMul(columnwise, constant) mixes the stacked columns
        assert stackable_slot(la.MatMul(la.Transpose(q), la.Transpose(A)), 2) is None

    def test_column_shaped_constant_broadcast_is_stackable(self):
        m = Dim("m", 40)
        bias = la.Var("@0", Shape(m, Dim("one0", 1)))
        q = la.Var("@1", Shape(m, Dim("one1", 1)))
        expr = la.ElemPlus(q, bias)
        # both slots are column candidates; the lowest stackable index wins
        assert stackable_slot(expr, 2) == 0

    def test_matrix_only_plans_have_no_candidate(self):
        m, n = _dims(40, 30)
        A = la.Var("@0", Shape(m, n))
        assert stackable_slot(la.Sum(A), 1) is None


# ---------------------------------------------------------------------------
# FusedPlan execution semantics
# ---------------------------------------------------------------------------


class TestFusedPlan:
    def test_bitwise_parity_with_tape(self):
        expr, n_slots = _chain_expr()
        values = _dense_inputs(n_slots)
        tape = TapePlan(expr, n_slots, ring="real")
        fused = compile_fused(expr, n_slots, ring="real")
        expected = tape.execute(values).value
        got = fused.execute(values).value
        assert got.is_sparse == expected.is_sparse
        assert np.array_equal(got.to_dense(), expected.to_dense())

    def test_guard_fallback_on_sparse_runtime_input(self):
        m, n = _dims(40, 40)
        X = la.Var("@0", Shape(m, n))
        expr = la.Sum(la.ElemPlus(la.ElemMul(X, X), X))
        fused = compile_fused(expr, 1, ring="real")
        assert fused.fused_regions == 1
        rng = np.random.default_rng(3)
        dense = rng.random((40, 40))
        dense[dense < 0.95] = 0.0
        sparse_value = MatrixValue(sparse.csr_matrix(dense))
        assert sparse_value.is_sparse
        tape = TapePlan(expr, 1, ring="real")
        expected = tape.execute([sparse_value]).value
        got = fused.execute([sparse_value]).value
        assert fused.fallback_runs == 1
        assert got.is_sparse == expected.is_sparse
        assert np.array_equal(got.to_dense(), expected.to_dense())

    def test_reuse_cache_and_profiler_hooks(self):
        from repro.obs.profile import TapeProfiler
        from repro.runtime.tape import StepReuseCache

        expr, n_slots = _chain_expr()
        values = _dense_inputs(n_slots)
        fused = compile_fused(expr, n_slots, ring="real")
        reuse = StepReuseCache()
        first = fused.execute(values, reuse=reuse).value
        second = fused.execute(values, reuse=reuse).value
        assert reuse.hits > 0
        assert np.array_equal(first.to_dense(), second.to_dense())
        profiler = TapeProfiler(len(fused))
        fused.execute(values, profiler=profiler)
        profiler.finish_run()
        assert sum(profiler.calls) == len(fused)
        # a fused region elides its interior temporaries: the saving in
        # materialized cells is measured, not just predicted
        tape = TapePlan(expr, n_slots, ring="real")
        tape_profiler = TapeProfiler(len(tape))
        tape.execute(values, profiler=tape_profiler)
        tape_profiler.finish_run()
        assert sum(profiler.cells) < sum(tape_profiler.cells)

    def test_execution_stats_report_regions(self):
        expr, n_slots = _chain_expr()
        fused = compile_fused(expr, n_slots, ring="real")
        result = fused.execute(_dense_inputs(n_slots))
        assert result.stats.operators_executed == len(fused)
        assert result.stats.fused_operators == fused.fused_operators


# ---------------------------------------------------------------------------
# Serving integration
# ---------------------------------------------------------------------------


class TestServingStacked:
    def _engine_and_state(self):
        import time
        from concurrent.futures import Future

        from repro.api.plan import bind_signature
        from repro.serve.engine import ServingEngine
        from repro.serve.worker import ShardRequest

        m, n = Dim("m", 48), Dim("n", 32)
        A = la.Var("A", Shape(m, n))
        q = la.Var("q", Shape(n, Dim("one", 1)))
        expr = la.UnaryFunc("sigmoid", la.MatMul(A, q))
        rng = np.random.default_rng(0)
        pinned = MatrixValue(rng.random((48, 32)))
        vectors = [MatrixValue(rng.random((32, 1))) for _ in range(4)]
        engine = ServingEngine(shards=1)
        engine.run(expr, {"A": pinned, "q": vectors[0]})
        plan = engine.plan_for(expr)
        tape = plan.executable()
        local = engine._local_state(plan._entry, tape)
        requests = [
            ShardRequest(
                signature=plan.signature,
                expr=expr,
                future=Future(),
                enqueued=time.perf_counter(),
                values=tuple(bind_signature(plan.signature, {"A": pinned, "q": vector})),
            )
            for vector in vectors
        ]
        return engine, tape, local, requests, pinned, vectors

    def test_stacked_execution_matches_individual(self):
        engine, tape, local, requests, pinned, vectors = self._engine_and_state()
        try:
            assert local.slot == 1
            prestacked = engine._serve_stacked(tape, local, requests)
            assert local.status == "on"
            assert len(prestacked) == len(requests)
            assert engine.counters.stacked_batches == 1
            assert engine.counters.stacked_requests == len(requests)
            for request, vector in zip(requests, vectors):
                got = prestacked[id(request)].value
                individual = tape.execute([pinned, vector]).value
                assert got.is_sparse == individual.is_sparse
                assert np.array_equal(got.to_dense(), individual.to_dense())
        finally:
            engine.close()

    def test_an_odd_member_leaves_its_batch_mates_stacked(self):
        engine, tape, local, requests, pinned, vectors = self._engine_and_state()
        try:
            other = MatrixValue(pinned.to_dense().copy())
            requests[2].values = (other, vectors[2])
            prestacked = engine._serve_stacked(tape, local, requests)
            assert set(prestacked) == {id(requests[i]) for i in (0, 1, 3)}
            assert local.status == "on"
            assert engine.counters.stacked_batches == 1
            assert engine.counters.stacked_requests == 3
            for i in (0, 1, 3):
                individual = tape.execute([pinned, vectors[i]]).value
                assert np.array_equal(prestacked[id(requests[i])].value.to_dense(),
                                      individual.to_dense())
        finally:
            engine.close()

    def test_each_family_of_shared_pinned_inputs_stacks_on_its_own(self):
        engine, tape, local, requests, pinned, vectors = self._engine_and_state()
        try:
            other = MatrixValue(pinned.to_dense() * 2.0)
            for request in requests[2:]:
                vector = request.values[1]
                request.values = (other, vector)
            prestacked = engine._serve_stacked(tape, local, requests)
            assert set(prestacked) == {id(request) for request in requests}
            assert engine.counters.stacked_batches == 2
            assert engine.counters.stacked_requests == 4
            for request in requests:
                individual = tape.execute(list(request.values)).value
                assert np.array_equal(prestacked[id(request)].value.to_dense(),
                                      individual.to_dense())
        finally:
            engine.close()

    def test_engine_serves_stacked_bitwise_results(self):
        from repro.serve.engine import ServingEngine
        from tests.helpers import hold_first_pool_batch

        m, n = Dim("m", 96), Dim("n", 64)
        A = la.Var("A", Shape(m, n))
        q = la.Var("q", Shape(n, Dim("one", 1)))
        expr = la.UnaryFunc("sigmoid", la.MatMul(A, q))
        rng = np.random.default_rng(7)
        pinned = MatrixValue(rng.random((96, 64)))
        vectors = [MatrixValue(rng.random((64, 1))) for _ in range(24)]
        engine = ServingEngine(shards=1)
        release = None
        try:
            # Inline run() is the unbatched reference; equal copies miss the door.
            baseline = [
                engine.run(expr, {"A": pinned, "q": MatrixValue(vector.data.copy())})
                .value.to_dense()
                for vector in vectors
            ]
            before = engine.stats()
            # Hold the one pool thread in its first batch, so the 24 matvecs
            # queue behind it and meet in the next drain.
            busy, release = hold_first_pool_batch(engine)
            occupier = engine.submit(expr, {"A": pinned, "q": MatrixValue(rng.random((64, 1)))})
            assert busy.wait(60)
            futures = [
                engine.submit(expr, {"A": pinned, "q": vector}) for vector in vectors
            ]
            release.set()
            occupier.result(timeout=60)
            for future, expected in zip(futures, baseline):
                got = future.result(timeout=60).value.to_dense()
                assert np.array_equal(got, expected)
            stats = engine.stats()
            assert stats.errors == 0
            assert stats.batches - before.batches == 2
            assert stats.stacked_batches - before.stacked_batches == 1
            assert stats.stacked_requests - before.stacked_requests == len(vectors)
        finally:
            if release is not None:
                release.set()
            engine.close()


# ---------------------------------------------------------------------------
# Plan API surfacing
# ---------------------------------------------------------------------------


class TestPlanSurfacing:
    @pytest.fixture(scope="class")
    def plan(self):
        from repro.api.session import Session

        m, n = Dim("m", 32), Dim("n", 24)
        A = la.Var("A", Shape(m, n))
        B = la.Var("B", Shape(m, n))
        return Session().compile(la.Sum(la.ElemPlus(la.ElemMul(A, B), A)))

    def _inputs(self, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "A": MatrixValue(rng.random((32, 24))),
            "B": MatrixValue(rng.random((32, 24))),
        }

    def test_codegen_info_reports_structure(self, plan):
        info = plan.codegen_info()
        assert info["fused"] is True
        assert info["regions"] <= info["tape_steps"]
        assert info["fused_regions"] >= 1
        assert any("Fused[" in label for label in info["region_labels"])

    def test_explain_carries_a_codegen_line(self, plan):
        text = plan.explain()
        assert "codegen     :" in text
        assert "regions" in text

    def test_to_dict_carries_the_codegen_record(self, plan):
        record = plan.to_dict()
        assert record["codegen"]["fused"] is True
        assert record["codegen"] == plan.codegen_info()

    def test_describing_a_plan_builds_nothing(self, plan, monkeypatch):
        """to_dict/explain read the owned executable instead of compiling."""
        import repro.runtime.codegen.plan as codegen_plan

        builds = []
        real_compile, real_init = codegen_plan.compile_fused, TapePlan.__init__

        def counting_compile(*args, **kwargs):
            builds.append("compile_fused")
            return real_compile(*args, **kwargs)

        def counting_init(self, *args, **kwargs):
            builds.append("TapePlan")
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(codegen_plan, "compile_fused", counting_compile)
        monkeypatch.setattr(TapePlan, "__init__", counting_init)
        plan.executable()  # built on first use, at most once
        assert len(builds) <= 1
        del builds[:]
        plan.to_dict()
        plan.to_dict()
        plan.explain()
        assert builds == []

    def test_profile_reports_regions_not_steps(self, plan):
        report = plan.profile(self._inputs(), runs=1)
        info = plan.codegen_info()
        tape = TapePlan(plan._entry.slot_plan, len(plan.signature.slots))
        assert len(tape) == info["tape_steps"]
        assert len(report.steps) == info["regions"] < info["tape_steps"]
        assert any(step.op.startswith("Fused[") for step in report.steps)
