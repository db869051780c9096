"""Tests for the persistent plan store and its Session integration."""

import json
import os

import numpy as np
import pytest

from repro.api import PlanStore, Session
from repro.api import plan as plan_module
from repro.api.plan import PlanEntry
from repro.canonical.fingerprint import signature_of, slot_expression, store_key
from repro.lang import Dim, Matrix, Sum, Vector
from repro.optimizer import OptimizerConfig
from repro.optimizer.pipeline import compile_expression
from repro.runtime import MatrixValue
from repro.serialize import FORMAT_VERSION
from repro.serialize.store import MANIFEST_NAME


ROWS, COLS = 120, 60


def make_loss():
    m, n = Dim("m", ROWS), Dim("n", COLS)
    X = Matrix("X", m, n, sparsity=0.05)
    u, v = Vector("u", m), Vector("v", n)
    return Sum((X - u @ v.T) ** 2)


def make_inputs(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "X": MatrixValue.random_sparse(ROWS, COLS, 0.05, rng),
        "u": MatrixValue.random_dense(ROWS, 1, rng),
        "v": MatrixValue.random_dense(COLS, 1, rng),
    }


def config():
    return OptimizerConfig.sampling_greedy()


def make_entry(cfg=None):
    expr = make_loss()
    artifact = compile_expression(expr, cfg or config())
    signature = signature_of(expr)
    return signature, PlanEntry(
        artifact=artifact,
        slot_plan=slot_expression(artifact.fused, signature),
        signature=signature,
    )


def entry_files(root):
    return sorted(
        name for name in os.listdir(root)
        if name.endswith(".json") and name != MANIFEST_NAME
    )


class TestPlanStore:
    def test_save_load_roundtrip(self, tmp_path):
        signature, entry = make_entry()
        store = PlanStore(tmp_path, config())
        assert store.load(signature.digest) is None
        assert store.stats.misses == 1
        assert store.save(signature.digest, entry)
        assert signature.digest in store
        assert len(store) == 1
        loaded = store.load(signature.digest)
        assert loaded is not None
        assert loaded.signature == signature
        assert loaded.slot_plan == entry.slot_plan
        assert loaded.artifact.fused == entry.artifact.fused
        assert store.stats.hits == 1 and store.stats.writes == 1

    def test_manifest_records_format_and_config(self, tmp_path):
        store = PlanStore(tmp_path, config())
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["format"] == "spores-plan-store"
        assert manifest["format_version"] == FORMAT_VERSION
        assert store.config_digest in manifest["config_digests"]

    def test_corrupt_manifest_is_rewritten(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{ not json")
        store = PlanStore(tmp_path, config())
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == FORMAT_VERSION
        assert store.config_digest in manifest["config_digests"]

    def test_truncated_entry_loads_as_miss(self, tmp_path):
        signature, entry = make_entry()
        store = PlanStore(tmp_path, config())
        store.save(signature.digest, entry)
        path = tmp_path / entry_files(tmp_path)[0]
        path.write_text(path.read_text()[:48])
        assert store.load(signature.digest) is None
        assert store.stats.load_errors == 1

    def test_version_skewed_entry_loads_as_miss(self, tmp_path):
        signature, entry = make_entry()
        store = PlanStore(tmp_path, config())
        store.save(signature.digest, entry)
        path = tmp_path / entry_files(tmp_path)[0]
        payload = json.loads(path.read_text())
        payload["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        assert store.load(signature.digest) is None
        assert store.stats.load_errors == 1

    def test_digest_mismatch_loads_as_miss(self, tmp_path):
        """An entry renamed onto the wrong key must not be served."""
        signature, entry = make_entry()
        store = PlanStore(tmp_path, config())
        store.save(signature.digest, entry)
        other_digest = "0" * 64
        os.rename(
            tmp_path / entry_files(tmp_path)[0],
            tmp_path / f"{store_key(other_digest, FORMAT_VERSION, store.config_digest)}.json",
        )
        assert store.load(other_digest) is None
        assert store.stats.load_errors == 1

    def test_config_digest_salts_the_key(self, tmp_path):
        """Plans never leak across optimizer configurations."""
        cfg = config()
        signature, entry = make_entry(cfg)
        PlanStore(tmp_path, cfg).save(signature.digest, entry)
        other = PlanStore(tmp_path, OptimizerConfig.sampling_ilp())
        assert other.load(signature.digest) is None
        assert other.stats.misses == 1 and other.stats.load_errors == 0

    def test_clear_removes_entries_not_manifest(self, tmp_path):
        signature, entry = make_entry()
        store = PlanStore(tmp_path, config())
        store.save(signature.digest, entry)
        assert store.clear() == 1
        assert len(store) == 0
        assert (tmp_path / MANIFEST_NAME).exists()

    def test_describe_is_json_serializable(self, tmp_path):
        store = PlanStore(tmp_path, config())
        record = json.loads(json.dumps(store.describe()))
        assert record["entries"] == 0
        assert record["format_version"] == FORMAT_VERSION


class TestSessionStoreIntegration:
    def test_fresh_session_loads_from_warm_store(self, tmp_path):
        inputs = make_inputs()
        warm = Session(config(), store_path=tmp_path)
        first = warm.compile(make_loss())
        baseline = first.run(inputs).scalar()
        assert warm.compilations == 1
        assert warm.describe()["store"]["writes"] == 1

        cold = Session(config(), store_path=tmp_path)
        plan = cold.compile(make_loss())
        assert plan.cache_hit, "a disk hit is a cache hit"
        assert cold.compilations == 0
        assert plan.run(inputs).scalar() == pytest.approx(baseline, rel=1e-9)
        # timings are not persisted: a loaded plan says so, it prints no 0.0 ms
        assert "translate" in first.explain()
        assert "loaded from a plan store" in plan.explain()
        assert "translate" not in plan.explain()
        # ... but why saturation stopped is part of the stored report
        (stop_line,) = [line for line in first.explain().splitlines() if "saturation  :" in line]
        assert "best cost" in stop_line and stop_line in plan.explain()
        assert plan.to_dict()["phase_times"] is None

    def test_disk_hit_counts_as_a_hit(self, tmp_path):
        Session(config(), store_path=tmp_path).compile(make_loss())
        session = Session(config(), store_path=tmp_path)
        session.compile(make_loss())
        record = session.describe()
        # missed memory, served from the store: cached state, not a compile
        assert record["hits"] == 1 and record["misses"] == 0
        assert record["hit_rate"] == 1.0
        assert record["store"]["hits"] == 1

    def test_disk_hit_promotes_into_memory(self, tmp_path):
        Session(config(), store_path=tmp_path).compile(make_loss())
        session = Session(config(), store_path=tmp_path)
        session.compile(make_loss())
        session.compile(make_loss())
        record = session.describe()
        assert record["hits"] == 2
        # second compile was served from memory: the store saw one probe
        assert record["store"]["hits"] == 1

    def test_corrupt_store_entry_falls_back_to_compile(self, tmp_path):
        Session(config(), store_path=tmp_path).compile(make_loss())
        path = tmp_path / entry_files(tmp_path)[0]
        path.write_text(path.read_text()[:64])
        # Corrupt the template alias too: an intact alias would (by design)
        # serve the request as a template hit; this test is about the
        # everything-is-damaged fallback.
        for name in os.listdir(tmp_path):
            if name.endswith(".tpl"):
                alias = tmp_path / name
                alias.write_bytes(alias.read_bytes()[:32])
        session = Session(config(), store_path=tmp_path)
        plan = session.compile(make_loss())
        assert not plan.cache_hit
        assert session.compilations == 1
        assert session.store.stats.load_errors >= 1
        # and the recompile healed the store
        fresh = Session(config(), store_path=tmp_path)
        assert fresh.compile(make_loss()).cache_hit

    def test_memory_only_session_has_no_store(self):
        session = Session(config())
        assert session.store is None
        assert session.describe()["store"] is None

    def test_store_and_store_path_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            Session(config(), store_path=tmp_path, store=PlanStore(tmp_path, config()))

    def test_injected_store_with_other_config_rejected(self, tmp_path):
        """A store salted for another config must not be injected silently."""
        store = PlanStore(tmp_path, OptimizerConfig.sampling_ilp())
        with pytest.raises(ValueError, match="different optimizer"):
            Session(config(), store=store)
        # a config-less store is rejected too: its salt is the empty digest
        with pytest.raises(ValueError, match="different optimizer"):
            Session(config(), store=PlanStore(tmp_path))

    def test_injected_store_instance_is_used(self, tmp_path):
        store = PlanStore(tmp_path, config())
        session = Session(config(), store=store)
        session.compile(make_loss())
        assert session.store is store
        assert len(store) == 1

    def test_renamed_twin_hits_warm_store_and_binds_own_names(self, tmp_path):
        Session(config(), store_path=tmp_path).compile(make_loss())
        session = Session(config(), store_path=tmp_path)
        m, n = Dim("p", ROWS), Dim("q", COLS)
        A = Matrix("A", m, n, sparsity=0.05)
        b, c = Vector("b", m), Vector("c", n)
        twin = session.compile(Sum((A - b @ c.T) ** 2))
        assert twin.cache_hit and session.compilations == 0
        assert twin.input_names == ("A", "b", "c")
        inputs = make_inputs()
        renamed = twin.run(A=inputs["X"], b=inputs["u"], c=inputs["v"])
        direct = Session(config()).compile(make_loss()).run(inputs)
        assert renamed.scalar() == pytest.approx(direct.scalar(), rel=1e-9)
        record = twin.to_dict()
        assert "A" in record["optimized"] or "A" in record["fused"]

    def test_drift_recompile_writes_through(self, tmp_path, monkeypatch):
        monkeypatch.setattr(plan_module, "DEFAULT_DRIFT_FACTOR", 2.0)
        session = Session(config(), store_path=tmp_path)
        plan = session.compile(make_loss())
        assert session.describe()["store"]["writes"] == 1
        dense = make_inputs()
        dense["X"] = MatrixValue.random_dense(ROWS, COLS, np.random.default_rng(1))
        plan.run(dense)  # observed nnz far off the 0.05 hint -> recompile
        record = session.describe()
        assert record["recompiles"] == 1
        assert record["store"]["writes"] == 2
