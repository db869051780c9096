"""Tests for plan-store eviction/GC and live-session robustness."""

import json
import os
import shutil

import pytest

from repro.api import PlanStore, Session
from repro.api.plan import PlanEntry
from repro.canonical.fingerprint import signature_of, slot_expression
from repro.lang import Dim, Matrix, Sum, Vector
from repro.optimizer import OptimizerConfig
from repro.optimizer.pipeline import compile_expression
from repro.serialize.store import MANIFEST_NAME


ROWS, COLS = 60, 30


def make_loss(sparsity=0.05):
    m, n = Dim("m", ROWS), Dim("n", COLS)
    X = Matrix("X", m, n, sparsity=sparsity)
    u, v = Vector("u", m), Vector("v", n)
    return Sum((X - u @ v.T) ** 2)


def config():
    return OptimizerConfig.sampling_greedy()


@pytest.fixture(scope="module")
def compiled_entry():
    """One real compiled entry, shared by every test in the module.

    Eviction is mtime-based and content-agnostic, so tests may save this
    one payload under many synthetic digests instead of compiling per key.
    """
    expr = make_loss()
    artifact = compile_expression(expr, config())
    signature = signature_of(expr)
    entry = PlanEntry(
        artifact=artifact,
        slot_plan=slot_expression(artifact.fused, signature),
        signature=signature,
    )
    return signature, entry


def fake_digest(index):
    return f"{index:02d}" * 32  # 64 hex-ish chars, distinct per index


def entry_files(root):
    return sorted(
        name for name in os.listdir(root)
        if name.endswith(".json") and name != MANIFEST_NAME
    )


def set_mtime(store, digest, stamp):
    path = store._entry_path(digest)
    os.utime(path, (stamp, stamp))


class TestEviction:
    def test_max_entries_never_exceeded(self, tmp_path, compiled_entry):
        _, entry = compiled_entry
        store = PlanStore(tmp_path, config(), max_entries=3)
        for index in range(8):
            store.save(fake_digest(index), entry)
            assert len(store) <= 3, f"store grew past max_entries after save {index}"
        assert store.stats.evictions == 5
        assert store.stats.writes == 8

    def test_evicts_lru_first(self, tmp_path, compiled_entry):
        _, entry = compiled_entry
        store = PlanStore(tmp_path, config(), max_entries=3)
        for index in range(3):
            store.save(fake_digest(index), entry)
            set_mtime(store, fake_digest(index), 1_000_000 + index)
        store.save(fake_digest(3), entry)  # evicts index 0, the oldest
        assert fake_digest(0) not in store
        assert all(fake_digest(i) in store for i in (1, 2, 3))

    def test_load_refreshes_recency(self, tmp_path, compiled_entry):
        signature, entry = compiled_entry
        store = PlanStore(tmp_path, config(), max_entries=3)
        store.save(signature.digest, entry)
        set_mtime(store, signature.digest, 1_000_000)  # nominally oldest
        for index in range(2):
            store.save(fake_digest(index), entry)
            set_mtime(store, fake_digest(index), 2_000_000 + index)
        assert store.load(signature.digest) is not None  # touch: now newest
        store.save(fake_digest(7), entry)
        assert signature.digest in store, "hot entry was evicted despite its load"
        assert fake_digest(0) not in store

    def test_explicit_gc_with_override_bound(self, tmp_path, compiled_entry):
        _, entry = compiled_entry
        store = PlanStore(tmp_path, config())  # unbounded
        for index in range(6):
            store.save(fake_digest(index), entry)
            set_mtime(store, fake_digest(index), 1_000_000 + index)
        assert store.gc() == 0  # no bound configured
        assert store.gc(max_entries=2) == 4
        assert entry_files(tmp_path) == sorted(
            os.path.basename(store._entry_path(fake_digest(i))) for i in (4, 5)
        )

    def test_manifest_stays_consistent_after_evictions(self, tmp_path, compiled_entry):
        _, entry = compiled_entry
        store = PlanStore(tmp_path, config(), max_entries=2)
        for index in range(5):
            store.save(fake_digest(index), entry)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["format"] == "spores-plan-store"
        assert manifest["max_entries"] == 2
        assert store.config_digest in manifest["config_digests"]
        assert store.describe()["manifest_stale"] is False

    def test_invalid_max_entries_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            PlanStore(tmp_path, config(), max_entries=0)


class TestLiveSessionRobustness:
    def test_concurrent_reader_of_evicted_entry_degrades_to_compile(self, tmp_path):
        cfg = config()
        warm = Session(cfg, store_path=tmp_path)
        warm.compile(make_loss())
        assert len(warm.store) == 1

        # A second handle on the same directory GC's everything away, as a
        # fleet-mate with a tighter bound would.  The template alias is
        # removed by hand: GC deliberately spares it, and an intact alias
        # would (by design) warm-start the reader instead of compiling.
        collector = PlanStore(tmp_path, cfg)
        assert collector.gc(max_entries=0) == 1
        assert len(collector) == 0
        for name in os.listdir(tmp_path):
            if name.endswith(".tpl"):
                os.unlink(os.path.join(tmp_path, name))

        # A cold session sharing the store must treat the evicted entry as
        # a miss and compile, not raise.
        reader = Session(cfg, store_path=tmp_path)
        plan = reader.compile(make_loss())
        assert not plan.cache_hit
        assert reader.compilations == 1
        assert reader.store.stats.misses >= 1

    def test_describe_survives_store_dir_gcd_underneath(self, tmp_path):
        cfg = config()
        session = Session(cfg, store_path=tmp_path)
        session.compile(make_loss())
        shutil.rmtree(tmp_path)

        record = session.describe()  # must not raise on the stale manifest
        assert record["store"]["entries"] == 0
        assert record["store"]["manifest_stale"] is True

        # The next save heals the directory (entry + fresh manifest).
        session.compile(make_loss(sparsity=0.11))
        assert os.path.isdir(tmp_path)
        assert len(entry_files(tmp_path)) == 1
        assert (tmp_path / MANIFEST_NAME).exists()
        assert session.describe()["store"]["manifest_stale"] is False

    def test_load_after_dir_removed_counts_misses(self, tmp_path, compiled_entry):
        signature, entry = compiled_entry
        store = PlanStore(tmp_path, config())
        store.save(signature.digest, entry)
        shutil.rmtree(tmp_path)
        assert store.load(signature.digest) is None
        assert store.stats.misses == 1
        assert store.stats.load_errors == 0


class TestStrayKernelSources:
    """Older versions persisted emitted sources as ``*.kernel.py`` next to
    the entries; a directory still holding them must keep working."""

    STRAY = (
        "9e8f10deb558169ae0274d5a21412d227d620fb2f25dedeb9d1556f56170e66c.kernel.py"
    )

    def test_store_with_stray_kernel_files_opens_lists_gcs_and_serves(
        self, tmp_path, compiled_entry
    ):
        signature, entry = compiled_entry
        (tmp_path / self.STRAY).write_text(
            "# repro-kernel sha256=68f2c6c7\n"
            "# repro-codegen v1 ring=real regions=1 fused=0\nX = 1\n"
        )
        store = PlanStore(tmp_path, config(), max_entries=2)
        for index in range(4):
            store.save(fake_digest(index), entry)
        store.save(signature.digest, entry)
        assert len(store) == len(entry_files(tmp_path)) == 2  # GC ignored the stray
        assert (tmp_path / self.STRAY).exists()
        record = store.describe()
        assert record["entries"] == 2
        assert not any("kernel" in key for key in record)

        session = Session(config(), store_path=tmp_path)
        plan = session.compile(make_loss())
        assert session.compilations == 0  # served from the store
        from repro.analysis import plan_lint

        assert self.STRAY not in plan_lint.store_entry_files(str(tmp_path))
        assert plan.executable() is not None
        assert store.clear() == 2
