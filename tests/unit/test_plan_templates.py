"""Tests for shape-polymorphic plan templates (guards, specialization, codec)."""

import json
import os

import numpy as np
import pytest

from repro.api import PlanEntry, Session, TemplateGuardError, specialize_entry
from repro.canonical.fingerprint import (
    rebind_dim_sizes,
    signature_of,
    slot_dim_name,
    slot_expression,
    sparsity_band,
    store_key,
)
from repro.cost.la_cost import LACostModel
from repro.lang import Dim, Matrix, Shape, Sum, Vector, dag
from repro.lang import expr as la
from repro.lang.dims import UNIT
from repro.optimizer import (
    OptimizationReport,
    OptimizerConfig,
    PlanArtifact,
    TemplateGuard,
    compile_expression,
    derive_guard,
)
from repro.optimizer import guards
from repro.optimizer.guards import dominates
from repro.runtime import MatrixValue, execute
from repro.runtime.optable import FUSED_PHYSICAL, loop_of
from repro.serialize import FORMAT_VERSION, PlanStore, dumps_entry, loads_entry


def make_loss(rows=120, cols=60, sparsity=0.01, names=("X", "u", "v"), dims=("m", "n")):
    m, n = Dim(dims[0], rows), Dim(dims[1], cols)
    X = Matrix(names[0], m, n, sparsity=sparsity)
    u, v = Vector(names[1], m), Vector(names[2], n)
    return Sum((X - u @ v.T) ** 2)


def make_inputs(rows=120, cols=60, sparsity=0.01, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "X": MatrixValue.random_sparse(rows, cols, sparsity, rng),
        "u": MatrixValue.random_dense(rows, 1, rng),
        "v": MatrixValue.random_dense(cols, 1, rng),
    }


def config():
    return OptimizerConfig.sampling_greedy()


def greedy_session(**kwargs) -> Session:
    return Session(config(), **kwargs)


class TestTemplateDigest:
    def test_sizes_do_not_change_the_template_digest(self):
        a = signature_of(make_loss(rows=100))
        b = signature_of(make_loss(rows=5000))
        assert a.digest != b.digest
        assert a.template_digest == b.template_digest

    def test_sparsity_band_changes_the_template_digest(self):
        a = signature_of(make_loss(sparsity=0.01))
        b = signature_of(make_loss(sparsity=0.5))
        assert a.template_digest != b.template_digest
        # within one band the template is shared
        c = signature_of(make_loss(sparsity=0.03))
        assert a.template_digest == c.template_digest

    def test_structure_changes_the_template_digest(self):
        m, n = Dim("m", 100), Dim("n", 50)
        X = Matrix("X", m, n, sparsity=0.01)
        u, v = Vector("u", m), Vector("v", n)
        plus = signature_of(Sum((X + u @ v.T) ** 2))
        minus = signature_of(Sum((X - u @ v.T) ** 2))
        assert plus.template_digest != minus.template_digest

    def test_renaming_does_not_change_either_digest(self):
        a = signature_of(make_loss())
        b = signature_of(make_loss(names=("A", "b", "c"), dims=("p", "q")))
        assert a.digest == b.digest
        assert a.template_digest == b.template_digest

    def test_bands(self):
        assert sparsity_band(None) == "dense"
        assert sparsity_band(1.0) == "dense"
        assert sparsity_band(0.5) == "dense"
        assert sparsity_band(0.12) == "e-1"
        assert sparsity_band(0.01) == "e-2"
        assert sparsity_band(0.05) == "e-2"
        assert sparsity_band(0.0) == "empty"

    def test_dim_slot_numbering_matches_slot_expression(self):
        """The invariant specialization re-pinning relies on."""
        expr = make_loss()
        signature = signature_of(expr)
        slot_plan = slot_expression(expr, signature)
        seen = {}
        for node in dag.postorder(slot_plan):
            if isinstance(node, la.Var):
                for dim in (node.var_shape.rows, node.var_shape.cols):
                    if not dim.is_unit:
                        seen.setdefault(dim.name, dim.size)
        assert seen == {
            slot_dim_name(i): size for i, size in enumerate(signature.dim_sizes)
        }


def chain_factors(m_size):
    """``A: m x 10``, ``B: 10 x 100``, ``C: 100 x 10`` — ``(A B) C`` is the
    cheaper order up to ``m = 5``, ``A (B C)`` beyond it."""
    m, n, k, p = Dim("m", m_size), Dim("n", 10), Dim("k", 100), Dim("p", 10)
    return Matrix("A", m, n), Matrix("B", n, k), Matrix("C", k, p)


def costlier_beyond_pivot_entry() -> PlanEntry:
    """A hand-built template whose plan ``(A B) C`` dominates its original
    ``A (B C)`` at the pivot ``m = 4`` and loses to it from ``m = 6`` on."""
    A, B, C = chain_factors(4)
    original, plan = A @ (B @ C), (A @ B) @ C
    artifact = PlanArtifact(
        original=original,
        optimized=plan,
        report=OptimizationReport(original=original, optimized=plan),
    )
    signature = signature_of(original)
    guard = derive_guard(signature, artifact)
    assert not guard.exact
    return PlanEntry(
        artifact=artifact,
        slot_plan=slot_expression(artifact.fused, signature),
        signature=signature,
        guard=guard,
    )


class TestGuardMatrix:
    """The point check's hit / miss / fallback decision table."""

    def test_far_size_is_a_template_hit(self):
        """No box caps reuse: 64x the pivot is served while the plan dominates."""

        def sum_of_product(rows):
            m, n, k = Dim("m", rows), Dim("n", 60), Dim("k", 40)
            return Sum(Matrix("A", m, n, sparsity=0.01) @ Matrix("B", n, k))

        session = greedy_session()
        pivot = session.compile(sum_of_product(120))
        assert pivot.optimized != pivot.artifact.original  # a rewritten plan
        request = sum_of_product(120 * 64)
        plan = session.compile(request)
        assert plan.cache_hit and plan.template_hit
        assert session.compilations == 1
        assert "guard       : cost-checked at each requested size (pivot m=120" in plan.explain()
        rng = np.random.default_rng(3)
        inputs = {
            "A": MatrixValue.random_sparse(120 * 64, 60, 0.01, rng),
            "B": MatrixValue.random_dense(60, 40, rng),
        }
        want = execute(request, inputs).scalar()
        assert plan.run(inputs).scalar() == pytest.approx(want, rel=1e-9)

    def test_dominance_is_checked_at_the_requested_size(self):
        entry = costlier_beyond_pivot_entry()
        sizes = dict(zip(entry.signature.dim_names, entry.signature.dim_sizes))
        assert dominates(entry.artifact, sizes)
        assert dominates(entry.artifact, {**sizes, "m": 5})
        assert not dominates(entry.artifact, {**sizes, "m": 400})
        A, B, C = chain_factors(5)
        assert specialize_entry(entry, signature_of(A @ (B @ C))) is not None
        A, B, C = chain_factors(400)
        assert specialize_entry(entry, signature_of(A @ (B @ C))) is None

    def test_tiny_pivot_is_cost_checked_like_any_other(self):
        """A dim of size 3 is not pinned: its plan serves ``cols=6`` exactly
        when it still dominates there, and then answers as a fresh compile."""
        expr = make_loss(rows=120, cols=3)
        artifact = compile_expression(expr, config())
        guard = derive_guard(signature_of(expr), artifact, config())
        assert not guard.exact
        assert guard.describe() == "cost-checked at each requested size (pivot m=120, n=3)"
        assert guard.admits(signature_of(make_loss(rows=480, cols=3)), artifact)
        assert guard.admits(signature_of(make_loss(rows=120, cols=6)), artifact)
        session = greedy_session()
        session.compile(expr)
        plan = session.compile(make_loss(rows=120, cols=6))
        assert plan.template_hit and session.compilations == 1
        inputs = make_inputs(rows=120, cols=6)
        want = greedy_session().compile(make_loss(rows=120, cols=6)).run(inputs).scalar()
        assert plan.run(inputs).scalar() == pytest.approx(want, rel=1e-12)

    def test_symbolic_dims_derive_exact(self):
        m, n = Dim("m"), Dim("n")
        X = Matrix("X", m, n, sparsity=0.01)
        u, v = Vector("u", m), Vector("v", n)
        symbolic = Sum((X - u @ v.T) ** 2)
        artifact = compile_expression(symbolic, config())
        assert derive_guard(signature_of(symbolic), artifact, config()).exact
        # a sized template refuses a symbolic instance of its shape
        sized = compile_expression(make_loss(), config())
        guard = derive_guard(signature_of(make_loss()), sized, config())
        assert not guard.admits(signature_of(symbolic), sized)

    def test_constant_equal_to_a_size_product_is_scalable(self):
        """A user constant equal to m·n is just a constant: plans bake no
        extent, so ``5000 * sum(X)`` at 100 x 50 serves m = 200."""

        def scaled_sum(rows):
            X = Matrix("X", Dim("m", rows), Dim("n", 50), sparsity=0.01)
            return la.Literal(5000.0) * Sum(X)

        expr = scaled_sum(100)
        artifact = compile_expression(expr, config())
        assert not derive_guard(signature_of(expr), artifact, config()).exact
        session = greedy_session()
        session.compile(expr)
        plan = session.compile(scaled_sum(200))
        assert plan.template_hit and session.compilations == 1
        inputs = {"X": MatrixValue.random_sparse(200, 50, 0.01, np.random.default_rng(2))}
        want = execute(scaled_sum(200), inputs).scalar()
        assert plan.run(inputs).scalar() == pytest.approx(want, rel=1e-12)

    def test_exact_guard_admits_nothing(self):
        signature = signature_of(make_loss())
        artifact = compile_expression(make_loss(), config())
        assert not TemplateGuard().admits(signature_of(make_loss(rows=240)), artifact)

    def test_guard_json_roundtrip(self):
        signature = signature_of(make_loss())
        artifact = compile_expression(make_loss(), config())
        guard = derive_guard(signature, artifact, config())
        assert not guard.exact
        back = TemplateGuard.from_json(json.loads(json.dumps(guard.to_json())))
        assert back == guard

    def test_guard_costs_unfused_plans_off_the_real_ring(self, monkeypatch):
        """Off the real ring the artifact does not fuse, so neither side of
        the comparison may be costed with a real-only fused operator."""
        cfg = OptimizerConfig.sampling_greedy(semiring="min-plus")
        n = Dim("n", 64)
        A, B, v = Matrix("A", n, n), Matrix("B", n, n), Vector("v", n)
        expr = A.T @ (A @ v) + Sum(B @ B) * v
        artifact = compile_expression(expr, cfg)
        assert not artifact.fusion_aware
        costed = []
        total = LACostModel.total

        def spy(model, root):
            costed.append(root)
            return total(model, root)

        monkeypatch.setattr(LACostModel, "total", spy)
        guard = derive_guard(signature_of(expr), artifact, cfg)
        guard.admits(signature_of(rebind_dim_sizes(expr, {"n": 256})), artifact)
        assert costed
        assert not any(
            loop_of(node) == FUSED_PHYSICAL for root in costed for node in dag.postorder(root)
        )


def extent_exprs(k_size):
    """Three roots whose plans carry the extents of ``m`` and ``k``."""
    m, k = Dim("m", 40), Dim("k", k_size)
    X = Matrix("X", m, k, sparsity=0.1)
    return {
        "sum_plus": Sum(X + 2.0),
        "colsums_plus": la.ColSums(X + 1.0),
        "matvec_ones": Sum(X @ la.FilledMatrix(1.0, Shape(k, UNIT))),
    }


class TestSizeFreePlans:
    """Plans carry extents, not sizes: a pivot of size 1, 2 or 3 serves every
    other size through the template tier, with the resized plan's answer."""

    @pytest.mark.parametrize("root", ["sum_plus", "colsums_plus", "matvec_ones"])
    @pytest.mark.parametrize("pivot", [1, 2, 3])
    def test_tiny_pivot_serves_the_ladder(self, root, pivot):
        session = greedy_session()
        session.compile(extent_exprs(pivot)[root])
        for k in range(1, 8):
            expr = extent_exprs(k)[root]
            plan = session.compile(expr)
            assert plan.template_hit == (k != pivot)
            inputs = {"X": MatrixValue.random_sparse(40, k, 0.1, np.random.default_rng(k))}
            np.testing.assert_allclose(
                plan.run(inputs).to_dense(), execute(expr, inputs).to_dense(), rtol=1e-12
            )
        assert session.compilations == 1


class TestSessionTemplateTier:
    def test_in_range_size_is_a_template_hit(self):
        session = greedy_session()
        session.compile(make_loss(rows=120))
        plan = session.compile(make_loss(rows=240))
        assert plan.cache_hit and plan.template_hit
        assert session.compilations == 1
        assert session.stats.template_hits == 1

    def test_costlier_plan_at_the_requested_size_respecializes(self):
        """Guard miss -> fresh compile, cached as a new template."""
        entry = costlier_beyond_pivot_entry()
        session = greedy_session()
        session.cache.insert(entry.signature.digest, entry, template_key=entry.template_digest)
        A, B, C = chain_factors(400)
        plan = session.compile(A @ (B @ C))
        assert not plan.cache_hit and not plan.template_hit
        assert session.compilations == 1

    def test_each_artifact_is_checked_once_per_scan(self, monkeypatch):
        """Specializations share their pivot's artifact: a size it refuses
        costs one dominance check, not one per cached specialization."""
        session = greedy_session()
        for rows in (120, 240, 360, 480):  # the pivot and three specializations
            session.compile(make_loss(rows=rows))
        assert session.compilations == 1 and session.stats.template_hits == 3
        request = signature_of(make_loss(rows=960))
        candidates = session.cache.template_candidates(request.template_digest)
        assert len(candidates) == 4
        assert all(entry.artifact is candidates[0].artifact for entry in candidates)
        calls = []
        monkeypatch.setattr(guards, "dominates", lambda *args: calls.append(args) or False)
        assert session._specialize_from_template(request) is None
        assert len(calls) == 1

    def test_band_change_respecializes(self):
        session = greedy_session()
        session.compile(make_loss(sparsity=0.01))
        plan = session.compile(make_loss(sparsity=0.9))
        assert not plan.template_hit
        assert session.compilations == 2

    def test_specialized_plan_executes_with_parity(self):
        session = greedy_session()
        session.compile(make_loss(rows=120))
        plan = session.compile(make_loss(rows=300))
        inputs = make_inputs(rows=300)
        got = plan.run(inputs).to_dense()
        want = greedy_session().compile(make_loss(rows=300)).run(inputs).to_dense()
        np.testing.assert_array_equal(got, want)

    def test_permuted_name_scaled_size_twin(self):
        """Regression: a twin that permutes names *and* scales sizes must
        bind through its own signature after specialization."""
        session = greedy_session()
        m, n = Dim("m", 150), Dim("n", 150)  # square so the roles can swap
        X = Matrix("X", m, n, sparsity=0.01)
        u, v = Vector("u", m), Vector("v", n)
        session.compile(Sum((X - u @ v.T) ** 2))

        p, q = Dim("p", 300), Dim("q", 300)  # scaled *and* renamed/permuted
        A = Matrix("A", p, q, sparsity=0.01)
        u2, v2 = Vector("v", p), Vector("u", q)
        twin = session.compile(Sum((A - u2 @ v2.T) ** 2))
        assert twin.template_hit
        assert session.compilations == 1
        assert twin.signature.var_order == ("A", "v", "u")

        rng = np.random.default_rng(5)
        inputs = {
            "A": MatrixValue.random_sparse(300, 300, 0.01, rng),
            "v": MatrixValue.random_dense(300, 1, rng),
            "u": MatrixValue.random_dense(300, 1, rng),
        }
        got = twin.run(inputs).scalar()
        want = (
            greedy_session().compile(Sum((A - u2 @ v2.T) ** 2)).run(inputs).scalar()
        )
        assert got == pytest.approx(want, rel=1e-12)
        rendered = twin.explain()
        assert "'A'" in rendered and "'X'" not in rendered

    def test_instantiate_via_session(self):
        session = greedy_session()
        plan = session.compile(make_loss(rows=120))
        bigger = plan.instantiate({"m": 480})
        assert bigger.template_hit
        assert bigger.slots[0].rows == 480
        assert session.compilations == 1
        with pytest.raises(TemplateGuardError, match="unknown dimensions"):
            plan.instantiate({"zzz": 10})

    def test_instantiate_same_sizes_returns_self(self):
        plan = greedy_session().compile(make_loss(rows=120))
        assert plan.instantiate({"m": 120}) is plan

    def test_leaf_reordering_rewrite_specializes_correctly(self):
        """Regression: ``t((A B) C)`` lifts as ``t(C) t(B) t(A)`` — the
        physical plan's leaf order differs from the source's, so dim-slot
        numbering must follow the *signature*, not the plan walk, or
        specialization re-pins the wrong dimensions."""

        def chain(m_size):
            m, n, k, p = Dim("m", m_size), Dim("n", 5), Dim("k", 1500), Dim("p", 7)
            A = Matrix("A", m, n, sparsity=0.01)
            B = Matrix("B", n, k)
            C = Matrix("C", k, p)
            return ((A @ B) @ C).T

        session = greedy_session()
        session.compile(chain(2000))
        plan = session.compile(chain(2400))
        assert plan.template_hit
        # every Var in the specialized slot plan carries its true sizes
        sizes = {}
        for node in dag.postorder(plan._entry.slot_plan):
            if isinstance(node, la.Var):
                sizes[node.name] = (
                    node.var_shape.rows.size,
                    node.var_shape.cols.size,
                )
        assert sorted(sizes.values()) == sorted([(2400, 5), (5, 1500), (1500, 7)])

        rng = np.random.default_rng(0)
        inputs = {
            "A": MatrixValue.random_sparse(2400, 5, 0.01, rng),
            "B": MatrixValue.random_dense(5, 1500, rng),
            "C": MatrixValue.random_dense(1500, 7, rng),
        }
        got = plan.run(inputs).to_dense()
        want = greedy_session().compile(chain(2400)).run(inputs).to_dense()
        np.testing.assert_array_equal(got, want)


class TestStoreTemplateTier:
    def test_cold_process_template_warm_start(self, tmp_path):
        """A store warmed at one ladder point serves other sizes cold."""
        warm = greedy_session(store_path=tmp_path)
        warm.compile(make_loss(rows=120))
        cold = greedy_session(store_path=tmp_path)
        plan = cold.compile(make_loss(rows=600))
        assert plan.cache_hit and plan.template_hit
        assert cold.compilations == 0
        assert cold.store.stats.template_hits == 1
        inputs = make_inputs(rows=600)
        got = plan.run(inputs).scalar()
        want = greedy_session().compile(make_loss(rows=600)).run(inputs).scalar()
        assert got == pytest.approx(want, rel=1e-12)

    def test_v1_tagged_payload_is_a_counted_load_error_then_a_compile(self, tmp_path):
        """No v1 reader is left: a stray v1 payload under the current key is
        rejected by the header check — never an exception, never a hit."""
        expr = make_loss()
        signature = signature_of(expr)
        cfg = config()
        artifact = compile_expression(expr, cfg)
        from repro.api.plan import PlanEntry

        entry = PlanEntry(
            artifact=artifact,
            slot_plan=slot_expression(artifact.fused, signature),
            signature=signature,
        )
        payload = json.loads(dumps_entry(entry).decode())
        payload["format_version"] = 1
        key = store_key(signature.digest, FORMAT_VERSION, cfg.digest())
        (tmp_path / f"{key}.json").write_text(json.dumps(payload))

        session = Session(cfg, store_path=tmp_path)
        plan = session.compile(expr)
        assert not plan.cache_hit
        assert session.compilations == 1
        stats = session.store.stats
        assert stats.load_errors == 1 and stats.hits == 0
        assert "version" in session.store.describe()["last_error"]
        # the fresh compile overwrote the stray payload with a readable one
        assert Session(cfg, store_path=tmp_path).compile(expr).cache_hit

    def test_v4_box_guard_payload_is_a_counted_load_error_then_a_compile(self, tmp_path):
        """A v4 entry carries the old ``[lo, hi]`` box and sparsity bands;
        the v5 reader refuses it by version, as a counted miss."""
        expr = make_loss()
        signature = signature_of(expr)
        cfg = config()
        artifact = compile_expression(expr, cfg)
        entry = PlanEntry(
            artifact=artifact,
            slot_plan=slot_expression(artifact.fused, signature),
            signature=signature,
            guard=derive_guard(signature, artifact, cfg),
        )
        payload = json.loads(dumps_entry(entry).decode())
        payload["format_version"] = 4
        payload["guard"] = {
            "exact": False,
            "dims": [
                [name, size, size // 16, size * 16]
                for name, size in zip(signature.dim_names, signature.dim_sizes)
            ],
            "bands": [sparsity_band(spec.sparsity) for spec in signature.slots],
        }
        key = store_key(signature.digest, FORMAT_VERSION, cfg.digest())
        (tmp_path / f"{key}.json").write_text(json.dumps(payload))

        session = Session(cfg, store_path=tmp_path)
        plan = session.compile(expr)
        assert not plan.cache_hit
        assert session.compilations == 1
        stats = session.store.stats
        assert stats.load_errors == 1 and stats.hits == 0
        assert "version 4" in session.store.describe()["last_error"]

    def test_gzip_payload_roundtrip(self):
        expr = make_loss()
        signature = signature_of(expr)
        artifact = compile_expression(expr, config())
        from repro.api.plan import PlanEntry

        entry = PlanEntry(
            artifact=artifact,
            slot_plan=slot_expression(artifact.fused, signature),
            signature=signature,
            guard=derive_guard(signature, artifact, config()),
        )
        plain = dumps_entry(entry, compress=False)
        packed = dumps_entry(entry, compress=True)
        assert len(packed) < len(plain) // 2
        for raw in (plain, packed):
            back = loads_entry(raw)
            assert back.signature == entry.signature
            assert back.slot_plan == entry.slot_plan
            assert back.guard == entry.guard

    def test_truncated_gzip_is_a_deserialization_error(self):
        from repro.serialize import DeserializationError

        expr = make_loss()
        signature = signature_of(expr)
        artifact = compile_expression(expr, config())
        from repro.api.plan import PlanEntry

        entry = PlanEntry(
            artifact=artifact,
            slot_plan=slot_expression(artifact.fused, signature),
            signature=signature,
        )
        packed = dumps_entry(entry, compress=True)
        with pytest.raises(DeserializationError):
            loads_entry(packed[: len(packed) // 2])

    def test_compressed_store_roundtrip(self, tmp_path):
        cfg = config()
        store = PlanStore(tmp_path, cfg, compress=True)
        warm = Session(cfg, store=store)
        warm.compile(make_loss())
        # entry files are gzip bytes on disk
        names = [
            n for n in os.listdir(tmp_path)
            if n.endswith(".json") and n != "manifest.json"
        ]
        raw = (tmp_path / names[0]).read_bytes()
        assert raw[:2] == b"\x1f\x8b"
        # a plain (uncompressed) reader loads them transparently
        cold = Session(cfg, store_path=tmp_path)
        assert cold.compile(make_loss()).cache_hit
        assert cold.compilations == 0
