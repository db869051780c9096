"""Integration tests for the serving reliability layer.

Everything here injects faults through :class:`repro.reliability.FaultInjector`
schedules — deterministic, seeded, replayable — and asserts the engine's
survival contract: requests are answered correctly (degraded fallback, store
faults demoted) or failed with a *typed* error; nothing is lost and nothing
blocks forever.
"""

import threading
import time

import numpy as np
import pytest

from repro.api import Session
from repro.api.plan import PlanBindingError
from repro.lang import Dim, Matrix, Sum, Vector, dag
from repro.optimizer import OptimizerConfig
from repro.reliability import (
    EngineClosedError,
    FaultInjector,
    FaultRule,
    OptimizerBudgetExceeded,
    PlanStoreError,
)
from repro.runtime import ExecutionError, MatrixValue, execute
from repro.serialize.store import PlanStore
from repro.serve import ServingEngine
from repro.workloads import get_workload, workload_names

ROWS, COLS = 60, 30


def make_loss(sparsity):
    m, n = Dim("m", ROWS), Dim("n", COLS)
    X = Matrix("X", m, n, sparsity=sparsity)
    u, v = Vector("u", m), Vector("v", n)
    return Sum((X - u @ v.T) ** 2)


def make_inputs(seed):
    rng = np.random.default_rng(seed)
    return {
        "X": MatrixValue.random_sparse(ROWS, COLS, 0.05, rng),
        "u": MatrixValue.random_dense(ROWS, 1, rng),
        "v": MatrixValue.random_dense(COLS, 1, rng),
    }


def config():
    return OptimizerConfig.sampling_greedy()


def expected(expr, inputs):
    return execute(expr, inputs).scalar()


class TestCrashRecovery:
    """A batch that crashes (an error escapes it) fails only its own
    futures; the pool thread recovers on the spot and keeps serving."""

    def test_an_escaping_error_fails_its_batch_and_the_pool_thread_lives_on(self, monkeypatch):
        """An error that escapes a batch fails that batch's futures; the
        pool thread keeps serving, so nothing restarts it."""
        engine = ServingEngine(shards=1, config=config())
        serve_batch = engine._serve_batch
        calls = []

        def broken_once(batch):
            calls.append(len(batch))
            if len(calls) == 1:
                raise RuntimeError("serving defect")
            serve_batch(batch)

        monkeypatch.setattr(engine, "_serve_batch", broken_once)
        try:
            expr, inputs = make_loss(0.05), make_inputs(2)
            with pytest.raises(RuntimeError, match="serving defect"):
                engine.submit(expr, inputs).result(timeout=30)
            result = engine.submit(expr, inputs).result(timeout=30)
            assert result.scalar() == pytest.approx(expected(expr, inputs), rel=1e-12)
            stats = engine.stats()
            assert (stats.errors, stats.served) == (1, 1)
            assert engine.health()["ready"]
        finally:
            engine.close()

    def test_repeated_escaping_errors_lose_no_requests(self, monkeypatch):
        """Every third batch escapes with an error: each request is either
        answered correctly or failed with that error, none hangs, and the
        engine's one session compiles the shape once."""
        engine = ServingEngine(shards=2, config=config())
        serve_batch = engine._serve_batch
        calls = []
        lock = threading.Lock()

        def broken_every_third(batch):
            with lock:
                calls.append(len(batch))
                broken = len(calls) % 3 == 1
            if broken:
                raise RuntimeError("serving defect")
            serve_batch(batch)

        monkeypatch.setattr(engine, "_serve_batch", broken_every_third)
        session = engine.session
        try:
            expr = make_loss(0.05)
            input_sets = [make_inputs(seed) for seed in range(12)]
            failed = 0
            for inputs in input_sets:  # one at a time: one request per batch
                try:
                    result = engine.submit(expr, inputs).result(timeout=60)
                except RuntimeError as error:
                    assert str(error) == "serving defect"
                    failed += 1
                    continue
                assert result.scalar() == pytest.approx(expected(expr, inputs), rel=1e-12)
            assert failed == 4  # batches 1, 4, 7 and 10
            stats = engine.stats()
            assert (stats.errors, stats.served) == (4, 8)
            assert engine.session is session
            assert engine.compilations == 1
            assert engine.health()["ready"]
        finally:
            engine.close()


def poison_the_tape(engine, monkeypatch, poison):
    """A deterministic tape error: every execution that binds the ``poison``
    value raises the runtime's ExecutionError.  Returns the list of value
    tuples the tape was asked to execute."""
    run_tape = engine._run_tape
    executed = []

    def failing(tape, values):
        executed.append(values)
        if any(value is poison for value in values):
            raise ExecutionError("kernel rejected its operand")
        return run_tape(tape, values)

    monkeypatch.setattr(engine, "_run_tape", failing)
    return executed


class TestDeterministicExecutionErrors:
    """A plan is a pure function of its inputs, so a tape error is answered
    by failing the request once: nothing retries it and nothing requeues it."""

    def test_a_tape_error_fails_its_request_once(self, monkeypatch):
        engine = ServingEngine(shards=1, config=config())
        try:
            expr, bad, good = make_loss(0.05), make_inputs(4), make_inputs(5)
            executed = poison_the_tape(engine, monkeypatch, bad["u"])
            with pytest.raises(ExecutionError, match="kernel rejected"):
                engine.submit(expr, bad).result(timeout=30)
            assert len(executed) == 1  # one attempt, no retry
            result = engine.submit(expr, good).result(timeout=30)
            assert result.scalar() == pytest.approx(expected(expr, good), rel=1e-12)
            stats = engine.stats()
            assert (stats.errors, stats.served) == (1, 1)
            assert (stats.retries, stats.restarts) == (0, 0)
        finally:
            engine.close()

    def test_a_repeat_of_a_failed_request_fails_the_same_way(self, monkeypatch):
        """The failure is not stored at the door: the repeat executes again,
        on the calling thread or a pool thread, and fails identically."""
        engine = ServingEngine(shards=2, config=config())
        try:
            expr, bad = make_loss(0.05), make_inputs(6)
            executed = poison_the_tape(engine, monkeypatch, bad["u"])
            messages = []
            with pytest.raises(ExecutionError) as inline:
                engine.run(expr, bad)
            messages.append(str(inline.value))
            for _ in range(2):
                with pytest.raises(ExecutionError) as pooled:
                    engine.submit(expr, bad).result(timeout=30)
                messages.append(str(pooled.value))
            assert messages == ["kernel rejected its operand"] * 3
            assert len(executed) == 3
            stats = engine.stats()
            assert (stats.errors, stats.served, stats.result_cache_hits) == (3, 0, 0)
        finally:
            engine.close()

    def test_a_failed_batch_mate_leaves_its_batch_served(self, monkeypatch):
        """One poisoned request in a drained batch fails alone; its batch
        mates are answered from the same compile."""
        from tests.helpers import hold_first_pool_batch

        engine = ServingEngine(shards=1, config=config())
        release = None
        try:
            expr = make_loss(0.05)
            engine.warm([expr])
            input_sets = [make_inputs(seed) for seed in range(7, 12)]
            poison_the_tape(engine, monkeypatch, input_sets[2]["u"])
            busy, release = hold_first_pool_batch(engine)
            occupier = engine.submit(expr, make_inputs(99))
            assert busy.wait(60)
            futures = [engine.submit(expr, inputs) for inputs in input_sets]
            release.set()
            occupier.result(timeout=60)
            for index, (inputs, future) in enumerate(zip(input_sets, futures)):
                if index == 2:
                    with pytest.raises(ExecutionError):
                        future.result(timeout=60)
                else:
                    assert future.result(timeout=60).scalar() == pytest.approx(
                        expected(expr, inputs), rel=1e-12
                    )
            stats = engine.stats()
            assert stats.errors == 1
            assert engine.compilations == 1
        finally:
            if release is not None:
                release.set()
            engine.close()


    def test_a_poisoned_family_member_fails_alone_and_keeps_stacking(self, monkeypatch):
        """An error inside a stacked family (here the verify run of its
        poisoned member) stays in that family: the family is served one by
        one, only the poisoned request fails, the drain's other instance
        group is served, and stacking is not switched off for the plan."""
        from tests.helpers import hold_first_pool_batch

        m, n = Dim("m", 48), Dim("n", 32)
        matvec, loss = Matrix("A", m, n) @ Vector("q", n), make_loss(0.05)
        rng = np.random.default_rng(21)

        def dyadic(*shape):  # exact sums: the stacked run verifies bitwise
            return MatrixValue(rng.integers(1, 64, shape) / 64.0)

        a, columns = dyadic(48, 32), [dyadic(32, 1) for _ in range(4)]
        loss_inputs = [make_inputs(seed) for seed in (30, 31)]

        def copies(inputs):  # new objects: the door's result cache misses
            return {name: MatrixValue(value.data.copy()) for name, value in inputs.items()}

        engine = ServingEngine(shards=1, config=config())
        release = None
        try:
            references = [engine.run(matvec, copies({"A": a, "q": q})) for q in columns]
            references += [engine.run(loss, copies(inputs)) for inputs in loss_inputs]
            poison_the_tape(engine, monkeypatch, columns[1])
            busy, release = hold_first_pool_batch(engine)
            occupier = engine.submit(loss, make_inputs(99))
            assert busy.wait(60)
            futures = [engine.submit(matvec, {"A": a, "q": q}) for q in columns]
            futures += [engine.submit(loss, inputs) for inputs in loss_inputs]
            release.set()
            occupier.result(timeout=60)
            with pytest.raises(ExecutionError, match="kernel rejected"):
                futures[1].result(timeout=60)
            for index in (0, 2, 3, 4, 5):
                got, want = futures[index].result(timeout=60).value, references[index].value
                assert got.is_sparse == want.is_sparse
                assert np.array_equal(got.to_dense(), want.to_dense())
            assert engine.stats().errors == 1
            local = engine._local[engine.plan_for(matvec).executable()]
            assert local.slot is not None and local.status == "untested"
        finally:
            if release is not None:
                release.set()
            engine.close()


class TestCompileFailures:
    def test_a_compile_failure_fails_its_group_and_the_batch_serves_the_rest(
        self, monkeypatch
    ):
        """A compile that fails (outside the degrading budget path) fails
        its own instance group once; the other group drained in the same
        batch is compiled and answered."""
        from tests.helpers import hold_first_pool_batch

        engine = ServingEngine(shards=1, config=config())
        broken, sound = make_loss(0.05), make_loss(0.9)
        occupier_expr = make_loss(0.3)
        engine.warm([occupier_expr])
        compile_ = engine.session.compile
        attempts = []

        def compile_or_fail(expr, *rest, **options):
            if expr is broken:
                attempts.append(expr)
                raise RuntimeError("pipeline defect")
            return compile_(expr, *rest, **options)

        monkeypatch.setattr(engine.session, "compile", compile_or_fail)
        release = None
        try:
            busy, release = hold_first_pool_batch(engine)
            occupier = engine.submit(occupier_expr, make_inputs(0))
            assert busy.wait(60)
            failing = [engine.submit(broken, make_inputs(seed)) for seed in (1, 2)]
            served = engine.submit(sound, make_inputs(3))
            release.set()
            occupier.result(timeout=60)
            for future in failing:
                with pytest.raises(RuntimeError, match="pipeline defect"):
                    future.result(timeout=60)
            assert served.result(timeout=60).scalar() == pytest.approx(
                expected(sound, make_inputs(3)), rel=1e-12
            )
            assert len(attempts) == 1  # one resolve for the group, not one per member
            stats = engine.stats()
            assert stats.errors == 2
            assert engine.health()["ready"]
        finally:
            if release is not None:
                release.set()
            engine.close()


class TestOneClientsErrors:
    def test_a_clients_errors_stay_with_that_client(self):
        """Five missing-input requests for one root are that client's own
        error: they are counted as errors, and the next valid request is
        served as if they never happened."""
        workload = get_workload("GLM", "S")
        failing, valid = workload.roots["hessian_vector"], workload.roots["deviance"]
        engine = ServingEngine(shards=2, config=config())
        try:
            for _ in range(5):
                with pytest.raises(PlanBindingError):
                    engine.run(failing, {})
            inputs = workload.inputs(seed=0)
            leaves = {v.name: inputs[v.name] for v in dag.variables(valid)}
            result = engine.run(valid, leaves)
            assert result.scalar() == pytest.approx(expected(valid, leaves), rel=1e-9)
            stats = engine.stats()
            assert (stats.served, stats.errors) == (1, 5)
            assert engine.health()["ready"]
        finally:
            engine.close()


class TestCloseSemantics:
    def test_submit_after_close_raises_typed_error(self):
        engine = ServingEngine(shards=1, config=config())
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.submit(make_loss(0.05), make_inputs(0))
        # and the typed error still satisfies the legacy RuntimeError contract
        with pytest.raises(RuntimeError):
            engine.submit(make_loss(0.05), make_inputs(0))

    @staticmethod
    def gated_engine(**options):
        """An engine whose one pool thread blocks in its first compile (the
        first request's expression is cold) until ``gate`` is set; returns
        ``(engine, entered, gate)``."""
        entered, gate = threading.Event(), threading.Event()

        def slow(message):
            entered.set()
            gate.wait(10)
            return OptimizerBudgetExceeded(message)

        faults = FaultInjector([FaultRule("optimizer.saturate", slow, count=1)])
        engine = ServingEngine(shards=1, config=config(), fault_injector=faults, **options)
        return engine, entered, gate

    def test_close_fails_unserved_requests_instead_of_stranding_them(self):
        """The pool thread is busy past close(timeout): close() fails its
        in-flight request and the queued ones with EngineClosedError."""
        engine, entered, gate = self.gated_engine()
        expr = make_loss(0.05)
        futures = [engine.submit(expr, make_inputs(0))]
        assert entered.wait(10), "the pool thread never reached the compile"
        futures += [engine.submit(expr, make_inputs(seed)) for seed in (1, 2)]
        try:
            engine.close(timeout=0.3)
            for future in futures:
                assert future.done()
                with pytest.raises(EngineClosedError):
                    future.result()
        finally:
            gate.set()

    def test_close_returns_when_a_busy_pool_leaves_the_queue_full(self):
        """Same busy thread, but the queue behind it is full: close() must
        not block handing out stop sentinels."""
        engine, entered, gate = self.gated_engine(queue_depth=2)
        expr = make_loss(0.05)
        futures = [engine.submit(expr, make_inputs(0))]
        assert entered.wait(10), "the pool thread never reached the compile"
        futures += [engine.submit(expr, make_inputs(seed)) for seed in (1, 2)]
        assert engine.queue.full()
        try:
            closer = threading.Thread(target=engine.close, kwargs={"timeout": 1.0}, daemon=True)
            closer.start()
            closer.join(2.0)
            assert not closer.is_alive(), "close() blocked behind a full queue"
            for future in futures:
                assert future.done()
                with pytest.raises(EngineClosedError):
                    future.result()
        finally:
            gate.set()

    def test_close_still_stops_a_busy_pool_thread_whose_queue_was_full(self):
        """A pool thread too slow for the timeout, queue full: close() fails
        the futures and the thread must still get its stop sentinel."""
        engine, entered, gate = self.gated_engine(queue_depth=2)
        expr = make_loss(0.05)
        futures = [engine.submit(expr, make_inputs(0))]
        assert entered.wait(10), "the pool thread never reached the compile"
        futures += [engine.submit(expr, make_inputs(seed)) for seed in (1, 2)]
        assert engine.queue.full()
        started = time.monotonic()
        engine.close(timeout=0.3)
        assert time.monotonic() - started < 2.0
        for future in futures:
            with pytest.raises(EngineClosedError):
                future.result(timeout=0)
        gate.set()
        (thread,) = engine._threads
        thread.join(5.0)
        assert not thread.is_alive(), "the pool thread never saw its stop sentinel"


class TestDegradedMode:
    def test_optimizer_budget_fault_degrades_to_baseline(self):
        faults = FaultInjector([FaultRule("optimizer.saturate", OptimizerBudgetExceeded)])
        engine = ServingEngine(
            shards=1,
            config=config(),
            fault_injector=faults,
        )
        try:
            expr, inputs = make_loss(0.05), make_inputs(1)
            result = engine.run(expr, inputs)
            assert result.scalar() == pytest.approx(expected(expr, inputs), rel=1e-12)
            stats = engine.stats()
            assert stats.degraded == 1
            assert stats.errors == 0
            assert engine.health()["degraded_rate"] == 1.0
            plan = engine.plan_for(expr)
            assert plan.degraded
            assert "degraded" in plan.explain()
        finally:
            engine.close()

    def test_degraded_parity_on_all_five_workloads(self):
        """Satellite contract: under injected optimizer-budget faults every
        workload root still computes the right answer.

        Per root, the degraded result must be **bitwise-identical** to a
        sound reference — the baseline expression the fallback claims to
        execute, or the optimized plan where optimization was
        value-preserving to the last bit — and numerically identical
        (1e-9) to the optimized plan everywhere (R_EQ guarantees semantic
        equality; floating-point reassociation may move the last ulp).
        """
        cfg = config()
        clean = Session(cfg)
        faults = FaultInjector(
            [FaultRule("optimizer.saturate", OptimizerBudgetExceeded)]
        )
        degraded = Session(cfg, fault_injector=faults)
        roots_seen = 0
        for name in workload_names():
            workload = get_workload(name, "S")
            inputs = workload.inputs(seed=0)
            optimized = workload.run_session(clean, seed=0)
            fallback = workload.run_session(degraded, seed=0)
            for root_name, root in workload.roots.items():
                roots_seen += 1
                opt = optimized[root_name].to_dense()
                deg = fallback[root_name].to_dense()
                baseline = execute(
                    root, {v.name: inputs[v.name] for v in dag.variables(root)}
                ).to_dense()
                assert np.array_equal(deg, baseline) or np.array_equal(deg, opt), (
                    f"{name}:{root_name}: degraded result matches neither the "
                    f"baseline expression nor the optimized plan bitwise"
                )
                np.testing.assert_allclose(
                    deg, opt, rtol=1e-9, atol=1e-9,
                    err_msg=f"{name}:{root_name}: degraded result diverged",
                )
        # every compile degraded, none errored, and the count matches
        assert degraded.degraded_compilations == roots_seen
        assert clean.degraded_compilations == 0

    def test_degraded_plans_are_cached_but_never_persisted(self, tmp_path):
        faults = FaultInjector([FaultRule("optimizer.saturate", OptimizerBudgetExceeded)])
        store = PlanStore(str(tmp_path / "plans"), config())
        session = Session(config(), store=store, fault_injector=faults)
        expr, inputs = make_loss(0.05), make_inputs(1)
        first = session.compile(expr)
        assert first.degraded and not first.cache_hit
        second = session.compile(make_loss(0.05))
        assert second.degraded and second.cache_hit  # cached for stability
        assert len(store) == 0  # but the fallback is never persisted
        # a fresh session on the same store gets a clean optimization shot
        retry_session = Session(config(), store=store)
        assert not retry_session.compile(make_loss(0.05)).degraded


class TestStoreFaults:
    def test_write_fault_demotes_to_skipped_persist(self, tmp_path):
        faults = FaultInjector([FaultRule("store.write", PlanStoreError)])
        store = PlanStore(str(tmp_path / "plans"), config(), fault_injector=faults)
        session = Session(config(), store=store)
        expr, inputs = make_loss(0.05), make_inputs(1)
        # the request succeeds; only persistence is skipped (and counted)
        result = session.run(expr, inputs)
        assert result.scalar() == pytest.approx(expected(expr, inputs), rel=1e-12)
        assert len(store) == 0
        assert store.stats.write_errors >= 1

    def test_read_fault_demotes_to_cache_miss(self, tmp_path):
        path = str(tmp_path / "plans")
        writer = Session(config(), store=PlanStore(path, config()))
        writer.compile(make_loss(0.05))
        faults = FaultInjector([FaultRule("store.read", PlanStoreError)])
        store = PlanStore(path, config(), fault_injector=faults)
        reader = Session(config(), store=store)
        # warm entry on disk, but every read faults: the session recompiles
        plan = reader.compile(make_loss(0.05))
        assert not plan.cache_hit
        assert reader.compilations == 1
        assert store.stats.load_errors >= 1

    def test_store_faults_under_served_traffic_fail_no_request(self, tmp_path):
        """Store reads and writes fault at the engine's own store: every
        request is still answered correctly, and each fired write fault is a
        counted, skipped persist."""
        faults = FaultInjector(
            [
                FaultRule("store.read", PlanStoreError, rate=0.5),
                FaultRule("store.write", PlanStoreError, rate=0.5),
            ],
            seed=3,
        )
        engine = ServingEngine(
            shards=2, config=config(), store_path=str(tmp_path), fault_injector=faults
        )
        try:
            exprs = [make_loss(0.05), make_loss(0.9)]
            jobs = [(expr, make_inputs(seed)) for seed in range(4) for expr in exprs]
            futures = [engine.submit(expr, inputs) for expr, inputs in jobs]
            for (expr, inputs), future in zip(jobs, futures):
                assert future.result(timeout=60).scalar() == pytest.approx(
                    expected(expr, inputs), rel=1e-12
                )
            stats = engine.stats()
            assert (stats.errors, stats.served) == (0, len(jobs))
            store = engine.session.store.stats
        finally:
            engine.close()
        assert faults.fired_at("store.write")
        assert store.write_errors == len(faults.fired_at("store.write"))

    def test_entry_writes_fsync_before_the_atomic_rename(self, tmp_path, monkeypatch):
        """Durability satellite: the temp file is flushed and fsynced
        before os.replace publishes it, for entry and manifest writes."""
        import repro.serialize.store as store_mod

        synced = []
        real_fsync, real_replace = store_mod.os.fsync, store_mod.os.replace

        def recording_fsync(fd):
            synced.append("fsync")
            return real_fsync(fd)

        def recording_replace(src, dst):
            synced.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "fsync", recording_fsync)
        monkeypatch.setattr(store_mod.os, "replace", recording_replace)
        store = PlanStore(str(tmp_path / "plans"), config())
        session = Session(config(), store=store)
        session.compile(make_loss(0.05))
        assert len(store) == 1
        assert "fsync" in synced and "replace" in synced
        # every publish was preceded by at least one fsync
        assert synced.index("fsync") < synced.index("replace")
        assert synced.count("fsync") >= synced.count("replace")
