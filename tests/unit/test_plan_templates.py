"""Tests for shape-polymorphic plan templates (guards, specialization, v2)."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.api import Session, TemplateGuardError
from repro.canonical.fingerprint import (
    signature_of,
    slot_dim_name,
    slot_expression,
    sparsity_band,
    store_key,
)
from repro.lang import Dim, Matrix, Sum, Vector, dag
from repro.lang import expr as la
from repro.optimizer import (
    DimGuard,
    OptimizerConfig,
    TemplateGuard,
    compile_expression,
    derive_guard,
    exact_guard,
)
from repro.runtime import MatrixValue
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


class TestGuardMatrix:
    """The guard hit / miss / fallback decision table."""

    def narrow_guard(self, signature) -> TemplateGuard:
        return TemplateGuard(
            dims=tuple(
                DimGuard(name, size, size // 2, size * 2)
                for name, size in zip(signature.dim_names, signature.dim_sizes)
            ),
            bands=signature.bands,
            exact=False,
        )

    def test_admits_inside_ranges(self):
        guard = self.narrow_guard(signature_of(make_loss(rows=100, cols=60)))
        assert guard.admits(signature_of(make_loss(rows=150, cols=60)))
        assert guard.admits(signature_of(make_loss(rows=50, cols=120)))

    def test_rejects_outside_ranges(self):
        guard = self.narrow_guard(signature_of(make_loss(rows=100, cols=60)))
        assert not guard.admits(signature_of(make_loss(rows=201, cols=60)))
        assert not guard.admits(signature_of(make_loss(rows=100, cols=10)))

    def test_rejects_band_change_and_symbolic_dims(self):
        guard = self.narrow_guard(signature_of(make_loss(rows=100, cols=60)))
        assert not guard.admits(signature_of(make_loss(rows=100, cols=60, sparsity=0.9)))
        m, n = Dim("m"), Dim("n")  # symbolic
        X = Matrix("X", m, n, sparsity=0.01)
        u, v = Vector("u", m), Vector("v", n)
        assert not guard.admits(signature_of(Sum((X - u @ v.T) ** 2)))

    def test_exact_guard_admits_nothing(self):
        signature = signature_of(make_loss())
        assert not exact_guard(signature).admits(signature)

    def test_symbolic_dims_derive_exact(self):
        m, n = Dim("m"), Dim("n")
        X = Matrix("X", m, n, sparsity=0.01)
        u, v = Vector("u", m), Vector("v", n)
        expr = Sum((X - u @ v.T) ** 2)
        artifact = compile_expression(expr, config())
        assert derive_guard(signature_of(expr), artifact, config()).exact

    def test_size_entangled_constant_derives_exact(self):
        """A plan whose constant equals a dim-size product must stay exact."""
        from repro.optimizer.guards import _size_entangled_constants

        m, n = Dim("m", 100), Dim("n", 50)
        X = Matrix("X", m, n, sparsity=0.01)
        assert _size_entangled_constants(la.Literal(100.0) * Sum(X), (100, 50))
        assert _size_entangled_constants(la.Literal(5000.0) * Sum(X), (100, 50))
        assert not _size_entangled_constants(la.Literal(2.0) * Sum(X), (100, 50))

    def test_guard_json_roundtrip(self):
        signature = signature_of(make_loss())
        artifact = compile_expression(make_loss(), config())
        guard = derive_guard(signature, artifact, config())
        back = TemplateGuard.from_json(json.loads(json.dumps(guard.to_json())))
        assert back == guard


class TestSessionTemplateTier:
    def test_in_range_size_is_a_template_hit(self):
        session = greedy_session()
        session.compile(make_loss(rows=120))
        plan = session.compile(make_loss(rows=240))
        assert plan.cache_hit and plan.template_hit
        assert session.compilations == 1
        assert session.stats.template_hits == 1

    def test_out_of_range_size_respecializes(self):
        """Guard miss -> fresh compile, cached as a new template."""
        session = greedy_session()
        pivot = session.compile(make_loss(rows=120))
        # Narrow the cached entry's guard by hand so a nearby size misses.
        entry = pivot._entry
        narrow = dataclasses.replace(
            entry,
            guard=TemplateGuard(
                dims=tuple(
                    DimGuard(name, size, size, size)
                    for name, size in zip(
                        entry.signature.dim_names, entry.signature.dim_sizes
                    )
                ),
                bands=entry.signature.bands,
                exact=False,
            ),
        )
        session.cache.clear()
        session.cache.insert(
            entry.signature.digest, narrow, template_key=entry.template_digest
        )
        plan = session.compile(make_loss(rows=240))
        assert not plan.cache_hit and not plan.template_hit
        assert session.compilations == 2

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
