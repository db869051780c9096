"""Tests for canonical fingerprinting and the Session plan cache."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import PlanCache, Session
from repro.canonical import fingerprint, signature_of, slot_expression, slot_var_name
from repro.lang import Dim, Matrix, Sum, Vector
from repro.optimizer import OptimizerConfig
from repro.runtime.engine import slot_name


def reconstruction_loss(mat="X", left="u", right="v", rows=100, cols=50, sparsity=0.01):
    m, n = Dim(f"{mat}_rows", rows), Dim(f"{mat}_cols", cols)
    X = Matrix(mat, m, n, sparsity=sparsity)
    u = Vector(left, m)
    v = Vector(right, n)
    return Sum((X - u @ v.T) ** 2)


def greedy_session(**kwargs) -> Session:
    return Session(OptimizerConfig.sampling_greedy(), **kwargs)


class TestFingerprint:
    def test_renamed_isomorphic_expressions_collide(self):
        """Renaming inputs and dims must not change the fingerprint."""
        a = reconstruction_loss("X", "u", "v")
        b = reconstruction_loss("A", "b", "c")
        assert fingerprint(a) == fingerprint(b)

    def test_rebuilt_expression_is_stable(self):
        assert fingerprint(reconstruction_loss()) == fingerprint(reconstruction_loss())

    def test_dim_sizes_are_part_of_the_key(self):
        assert fingerprint(reconstruction_loss(rows=100)) != fingerprint(
            reconstruction_loss(rows=200)
        )

    def test_sparsity_hint_is_part_of_the_key(self):
        assert fingerprint(reconstruction_loss(sparsity=0.01)) != fingerprint(
            reconstruction_loss(sparsity=0.5)
        )

    def test_structure_is_part_of_the_key(self):
        m, n = Dim("m", 100), Dim("n", 50)
        X = Matrix("X", m, n, sparsity=0.01)
        u, v = Vector("u", m), Vector("v", n)
        assert fingerprint(Sum((X - u @ v.T) ** 2)) != fingerprint(
            Sum((X + u @ v.T) ** 2)
        )

    def test_distinct_inputs_do_not_collide_with_repeated_input(self):
        """sum(A*B) and sum(A*A) differ even though both have two leaves."""
        m, n = Dim("m", 10), Dim("n", 10)
        A = Matrix("A", m, n)
        B = Matrix("B", m, n)
        assert fingerprint(Sum(A * B)) != fingerprint(Sum(A * A))

    def test_slot_metadata_follows_first_occurrence_order(self):
        sig = signature_of(reconstruction_loss("X", "u", "v", rows=100, cols=50))
        assert sig.var_order == ("X", "u", "v")
        assert [spec.rows for spec in sig.slots] == [100, 100, 50]
        assert [spec.cols for spec in sig.slots] == [50, 1, 1]
        assert sig.slots[0].sparsity == pytest.approx(0.01)
        assert sig.slots[1].sparsity is None

    def test_slot_expression_is_name_free(self):
        """Renamed twins map to the identical slot-space expression."""
        a = slot_expression(reconstruction_loss("X", "u", "v"))
        b = slot_expression(reconstruction_loss("A", "b", "c"))
        assert a == b

    def test_fingerprint_is_linear_in_dag_size(self):
        """Heavy structural sharing must not blow up the fingerprint walk.

        Doubling an expression 50 times yields a 2^50-node *tree* but a
        51-node *DAG*; the identity-memoized bottom-up digest must finish
        instantly (this is the cache-probe fast path) and stay canonical
        under renaming.
        """
        def doubled(name):
            e = Matrix(name, Dim(f"{name}_m", 4), Dim(f"{name}_n", 4))
            for _ in range(50):
                e = e * e
            return e

        sig = signature_of(doubled("X"))
        assert sig.var_order == ("X",)
        assert signature_of(doubled("A")).digest == sig.digest
        # sharing depth is still part of the structure: one fewer doubling
        # is a different computation
        assert signature_of(doubled("X").left).digest != sig.digest

    def test_fingerprint_canonical_across_sharing_styles(self):
        """Identity-shared and freshly built value-equal trees collide."""
        m, n = Dim("m", 8), Dim("n", 8)
        A = Matrix("A", m, n)
        B = Matrix("B", m, n)
        shared = A @ B
        with_sharing = Sum(shared * shared)
        without_sharing = Sum((A @ B) * (A @ B))
        assert fingerprint(with_sharing) == fingerprint(without_sharing)

    def test_slot_naming_in_sync_with_runtime(self):
        """The canonical and runtime layers must agree on slot names."""
        for index in (0, 1, 17):
            assert slot_var_name(index) == slot_name(index)


class TestPlanCache:
    def test_hit_miss_accounting(self):
        session = greedy_session()
        plan = session.compile(reconstruction_loss())
        assert not plan.cache_hit
        assert (session.stats.hits, session.stats.misses) == (0, 1)

        twin = session.compile(reconstruction_loss("A", "b", "c"))
        assert twin.cache_hit
        assert (session.stats.hits, session.stats.misses) == (1, 1)
        assert session.compilations == 1
        assert session.stats.hit_rate == pytest.approx(0.5)

    def test_renamed_twins_share_one_artifact(self):
        session = greedy_session()
        plan = session.compile(reconstruction_loss("X", "u", "v"))
        twin = session.compile(reconstruction_loss("A", "b", "c"))
        assert plan._entry is twin._entry
        assert plan.fingerprint == twin.fingerprint
        assert twin.input_names == ("A", "b", "c")

    def test_views_and_runs_share_one_executable(self, monkeypatch):
        """An executable belongs to the cache entry, not to a plan view: two
        views of one shape, and two one-shot runs, build it once."""
        import numpy as np

        from repro.api import plan as plan_module
        from repro.runtime import MatrixValue

        builds = []
        real_build = plan_module.build_executable

        def counting_build(*args, **kwargs):
            builds.append(args)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(plan_module, "build_executable", counting_build)
        session = greedy_session()
        a = session.compile(reconstruction_loss("X", "u", "v"))
        b = session.compile(reconstruction_loss("A", "b", "c"))
        assert a.executable() is b.executable()
        rng = np.random.default_rng(0)
        inputs = {
            "X": MatrixValue.random_sparse(100, 50, 0.01, rng),
            "u": MatrixValue.random_dense(100, 1, rng),
            "v": MatrixValue.random_dense(50, 1, rng),
        }
        expr = reconstruction_loss()
        first = session.run(expr, inputs).scalar()
        assert session.run(expr, inputs).scalar() == first
        assert len(builds) == 1

    def test_lru_eviction(self):
        # Distinct sparsity *bands* so the shapes are different templates:
        # this test exercises the instance tier alone (a size-only change
        # would be resurrected from a cached template, by design).
        session = greedy_session(cache_size=2)
        first = reconstruction_loss(sparsity=0.01)
        second = reconstruction_loss(sparsity=0.12)
        third = reconstruction_loss(sparsity=0.9)
        session.compile(first)
        session.compile(second)
        session.compile(third)  # evicts `first` (least recently used)
        assert len(session.cache) == 2
        assert session.stats.evictions == 1
        assert fingerprint(first) not in session.cache
        assert fingerprint(third) in session.cache

        # Re-compiling the evicted shape is a miss again.
        misses_before = session.stats.misses
        assert not session.compile(first).cache_hit
        assert session.stats.misses == misses_before + 1

    def test_lookup_refreshes_recency(self):
        session = greedy_session(cache_size=2)
        first = reconstruction_loss(rows=60)
        second = reconstruction_loss(rows=70)
        session.compile(first)
        session.compile(second)
        session.compile(first)  # refresh: `second` becomes LRU
        session.compile(reconstruction_loss(rows=80))
        assert fingerprint(first) in session.cache
        assert fingerprint(second) not in session.cache

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_waiter_behind_a_concurrent_compile_counts_one_hit(self, monkeypatch):
        """A request that waited for a concurrent compile of its shape is a hit.

        Nothing is counted while the two requests are in flight; once both
        resolve, the compiler counts its miss and the waiter one hit.
        """
        from repro.api import session as session_module

        compile_expression = session_module.compile_expression
        started, release = threading.Event(), threading.Event()

        def held_compile(*args, **kwargs):
            started.set()
            assert release.wait(timeout=60)
            return compile_expression(*args, **kwargs)

        monkeypatch.setattr(session_module, "compile_expression", held_compile)
        session = greedy_session()
        key = signature_of(reconstruction_loss()).template_digest
        with ThreadPoolExecutor(max_workers=2) as pool:
            compiling = pool.submit(session.compile, reconstruction_loss())
            assert started.wait(timeout=60)
            waiting = pool.submit(session.compile, reconstruction_loss("A", "b", "c"))
            deadline = time.monotonic() + 60
            while session._inflight[key][1] < 2:  # the waiter queued on the shape
                assert time.monotonic() < deadline
                time.sleep(0.001)
            assert (session.stats.hits, session.stats.misses) == (0, 0)
            release.set()
            compiled, waited = compiling.result(timeout=60), waiting.result(timeout=60)
        assert not compiled.cache_hit and waited.cache_hit
        assert session.compilations == 1
        assert (session.stats.hits, session.stats.misses) == (1, 1)

    def test_concurrent_compile_of_one_shape_compiles_once(self):
        """Concurrent misses of the same fingerprint must share one pipeline
        run, and concurrent first uses of its entry one executable."""
        session = greedy_session()
        barrier = threading.Barrier(8)

        def compile_once(_):
            barrier.wait()
            plan = session.compile(reconstruction_loss())
            return plan, plan.executable()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(compile_once, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)

        assert session.compilations == 1
        assert (session.stats.hits, session.stats.misses) == (7, 1)
        assert len({id(plan._entry) for plan, _ in results}) == 1
        assert len({id(executable) for _, executable in results}) == 1
        assert results[0][0].executable() is results[0][1]
        assert len(session.cache) == 1

    def test_concurrent_compile_of_distinct_shapes(self):
        session = greedy_session()
        # One sparsity band each (dense, e-1, e-2, e-3), so no shape can be
        # specialised from a template another shape compiled first.
        shapes = [
            reconstruction_loss(rows=50 + 10 * i, sparsity=s)
            for i, s in enumerate((0.9, 0.3, 0.03, 0.003))
        ] * 2

        with ThreadPoolExecutor(max_workers=8) as pool:
            plans = list(pool.map(session.compile, shapes))

        assert session.compilations == 4
        assert session.stats.template_hits == 0
        assert len(session.cache) == 4
        by_key = {}
        for plan in plans:
            by_key.setdefault(plan.fingerprint, set()).add(id(plan._entry))
        assert all(len(entries) == 1 for entries in by_key.values())
