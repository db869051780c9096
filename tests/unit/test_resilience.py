"""Integration tests for the serving reliability layer.

Everything here injects faults through :class:`repro.reliability.FaultInjector`
schedules — deterministic, seeded, replayable — and asserts the engine's
survival contract: requests are answered correctly (retry, crash requeue,
degraded fallback) or failed with a *typed* error; nothing is lost and
nothing blocks forever.
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
    DeadlineExceededError,
    EngineClosedError,
    ExecutionError,
    FaultInjector,
    FaultRule,
    OptimizerBudgetExceeded,
    PlanStoreError,
    RetryPolicy,
    ShardCrashError,
)
from repro.runtime import MatrixValue, execute
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
    def test_a_crash_requeues_and_answers(self):
        """A crashed batch's request survives: requeue, answer."""
        faults = FaultInjector(
            [FaultRule("shard.execute", ShardCrashError, start=0, count=1)]
        )
        engine = ServingEngine(
            shards=2,
            config=config(),
            fault_injector=faults,
        )
        try:
            expr, inputs = make_loss(0.05), make_inputs(1)
            result = engine.run(expr, inputs)
            assert result.scalar() == pytest.approx(expected(expr, inputs), rel=1e-12)
            stats = engine.stats()
            assert stats.restarts == 1
            assert stats.served == 1
            assert stats.errors == 0
            assert faults.fired_at("shard.execute")  # the crash really fired
            health = engine.health()
            assert health["live"] and health["ready"]
            assert health["restarts"] == 1
        finally:
            engine.close()

    def test_an_escaping_error_fails_its_batch_and_the_pool_thread_lives_on(self, monkeypatch):
        """Anything but a crash that escapes a batch fails that batch's
        futures; the pool thread keeps serving, so nothing restarts it."""
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
            assert (stats.errors, stats.served, stats.restarts) == (1, 1, 0)
            assert engine.health()["ready"]
        finally:
            engine.close()

    def test_repeated_crashes_drain_no_requests(self):
        """Several crashes across a request burst: all answered, none lost."""
        faults = FaultInjector(
            [FaultRule("shard.execute", ShardCrashError, start=0, every=7, count=3)]
        )
        engine = ServingEngine(
            shards=2,
            config=config(),
            fault_injector=faults,
        )
        try:
            expr = make_loss(0.05)
            input_sets = [make_inputs(seed) for seed in range(20)]
            futures = [engine.submit(expr, inputs) for inputs in input_sets]
            results = [future.result(timeout=60) for future in futures]
            for inputs, result in zip(input_sets, results):
                assert result.scalar() == pytest.approx(
                    expected(expr, inputs), rel=1e-12
                )
            stats = engine.stats()
            assert stats.served == len(input_sets)
            assert stats.restarts == 3
        finally:
            engine.close()

    def test_restarts_keep_the_one_session_and_compile_once(self):
        """The chaos smoke's crash schedule without a store: every requeued
        request is served on the engine's one session, so the shape compiles
        once."""
        faults = FaultInjector(
            [FaultRule("shard.execute", ShardCrashError, start=2, every=5, count=4)],
            seed=11,
        )
        engine = ServingEngine(
            shards=2, config=config(), fault_injector=faults
        )
        try:
            expr = make_loss(0.05)
            input_sets = [make_inputs(seed) for seed in range(24)]
            futures = [engine.submit(expr, inputs) for inputs in input_sets]
            for inputs, future in zip(input_sets, futures):
                assert future.result(timeout=60).scalar() == pytest.approx(
                    expected(expr, inputs), rel=1e-12
                )
            assert engine.stats().restarts == 4
            assert engine.compilations == 1
        finally:
            engine.close()


class TestRetries:
    def test_transient_execution_fault_is_retried_in_place(self):
        faults = FaultInjector(
            [FaultRule("shard.execute", ExecutionError, start=0, count=2)]
        )
        engine = ServingEngine(
            shards=1,
            config=config(),
            fault_injector=faults,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0005),
        )
        try:
            expr, inputs = make_loss(0.05), make_inputs(1)
            result = engine.run(expr, inputs)
            assert result.scalar() == pytest.approx(expected(expr, inputs), rel=1e-12)
            stats = engine.stats()
            assert stats.retries == 2
            assert stats.errors == 0
            assert stats.restarts == 0  # retried in place, no crash
        finally:
            engine.close()

    def test_tape_step_fault_is_retried_from_a_clean_slate(self):
        """A mid-plan kernel fault never leaks a partial result."""
        faults = FaultInjector(
            [FaultRule("tape.step", ExecutionError, start=0, count=1)]
        )
        engine = ServingEngine(
            shards=1,
            config=config(),
            fault_injector=faults,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0005),
        )
        try:
            expr, inputs = make_loss(0.05), make_inputs(3)
            result = engine.run(expr, inputs)
            assert result.scalar() == pytest.approx(expected(expr, inputs), rel=1e-12)
            assert engine.stats().retries == 1
        finally:
            engine.close()

    def test_retries_never_exceed_the_deadline(self):
        """Deadline x retry: the backoff that would overrun sheds instead.

        The fault fires on every execution attempt, the policy would allow
        3 retries — but the first backoff (0.2s) already overruns the 0.15s
        request budget, so the worker sheds with the typed
        DeadlineExceededError, counted in stats().sheds, without sleeping
        past the deadline.
        """
        faults = FaultInjector([FaultRule("shard.execute", ExecutionError)])
        engine = ServingEngine(
            shards=1,
            config=config(),
            fault_injector=faults,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.2, jitter=0.0),
        )
        try:
            expr, inputs = make_loss(0.05), make_inputs(1)
            engine.warm([expr])  # compile outside the timed budget
            started = time.perf_counter()
            future = engine.submit(expr, inputs, deadline=0.15)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=30)
            elapsed = time.perf_counter() - started
            # Shed the moment the backoff no longer fits — far before the
            # 3-retry schedule (0.6s of sleeps) would have completed.
            assert elapsed < 0.6
            stats = engine.stats()
            assert stats.sheds >= 1
            assert stats.retries == 0  # never retried past the deadline
        finally:
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
            assert (stats.served, stats.errors, stats.restarts) == (1, 5, 0)
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
        """An engine whose one pool thread blocks in its first execution
        until ``gate`` is set; returns ``(engine, entered, gate)``."""
        entered, gate = threading.Event(), threading.Event()

        def slow(message):
            entered.set()
            gate.wait(10)
            return ExecutionError(message)

        faults = FaultInjector([FaultRule("shard.execute", slow, count=1)])
        engine = ServingEngine(shards=1, config=config(), fault_injector=faults, **options)
        return engine, entered, gate

    def test_close_fails_unserved_requests_instead_of_stranding_them(self):
        """The pool thread is busy past close(timeout): close() fails its
        in-flight request and the queued ones with EngineClosedError."""
        engine, entered, gate = self.gated_engine()
        expr = make_loss(0.05)
        futures = [engine.submit(expr, make_inputs(0))]
        assert entered.wait(10), "the pool thread never reached the execute site"
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
        assert entered.wait(10), "the pool thread never reached the execute site"
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
        assert entered.wait(10), "the pool thread never reached the execute site"
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
