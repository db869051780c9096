"""Integration tests for the serving reliability layer.

Everything here injects faults through :class:`repro.reliability.FaultInjector`
schedules — deterministic, seeded, replayable — and asserts the engine's
survival contract: requests are answered correctly (retry, shard restart,
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
    def test_shard_crash_restarts_and_requeues(self):
        """A crashed worker's request survives: restart, requeue, answer."""
        faults = FaultInjector(
            [FaultRule("shard.execute", ShardCrashError, start=0, count=1)]
        )
        engine = ServingEngine(
            shards=2,
            config=config(),
            fault_injector=faults,
            supervision_interval=0.01,
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

    def test_a_crashed_shard_is_not_ready_until_restarted(self):
        """``ready`` is "every shard thread alive": a dead worker waiting
        for the supervisor clears it, its replacement restores it."""
        faults = FaultInjector(
            [FaultRule("shard.execute", ShardCrashError, start=0, count=1)]
        )
        engine = ServingEngine(
            shards=2, config=config(), fault_injector=faults, supervise=False
        )
        try:
            expr, inputs = make_loss(0.05), make_inputs(1)
            home = engine.shard_of(engine.signature_for(expr).template_digest)
            future = engine.submit(expr, inputs)
            engine.shards[home].thread.join(30)
            health = engine.health()
            assert health["live"] and not health["ready"]
            assert [record["alive"] for record in health["shards"]] == [
                index != home for index in range(2)
            ]
            engine._check_shards()  # one supervisor pass, on this thread
            assert future.result(timeout=30).scalar() == pytest.approx(
                expected(expr, inputs), rel=1e-12
            )
            health = engine.health()
            assert health["live"] and health["ready"]
            assert health["restarts"] == 1
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
            supervision_interval=0.01,
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
        """The chaos smoke's crash schedule without a store: every replacement
        runs on the engine's one session, so the shape compiles once."""
        faults = FaultInjector(
            [FaultRule("shard.execute", ShardCrashError, start=2, every=5, count=4)],
            seed=11,
        )
        engine = ServingEngine(
            shards=2, config=config(), fault_injector=faults, supervision_interval=0.01
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
            assert all(shard.session is engine.session for shard in engine.shards)
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
            supervision_interval=0.01,
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
            supervision_interval=0.01,
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
            supervision_interval=0.01,
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
        error: the next valid request for another root with the same home
        shard is served by that home shard."""
        workload = get_workload("GLM", "S")
        failing, valid = workload.roots["hessian_vector"], workload.roots["deviance"]
        engine = ServingEngine(shards=2, config=config(), supervision_interval=0.01)
        try:
            home = engine.shard_of(engine.signature_for(valid).template_digest)
            assert engine.shard_of(engine.signature_for(failing).template_digest) == home
            for _ in range(5):
                with pytest.raises(PlanBindingError):
                    engine.run(failing, {})
            inputs = workload.inputs(seed=0)
            leaves = {v.name: inputs[v.name] for v in dag.variables(valid)}
            result = engine.run(valid, leaves)
            assert result.scalar() == pytest.approx(expected(valid, leaves), rel=1e-9)
            stats = engine.stats()
            assert [shard["served"] for shard in stats.per_shard] == [
                int(index == home) for index in range(2)
            ]
            assert stats.per_shard[home]["errors"] == 5
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

    def test_close_fails_unserveable_requests_instead_of_stranding_them(self):
        """With supervision off, a crash leaves queued work nobody will
        serve; close() must fail those futures with EngineClosedError."""
        faults = FaultInjector([FaultRule("shard.execute", ShardCrashError)])
        engine = ServingEngine(
            shards=1,
            config=config(),
            fault_injector=faults,
            supervise=False,  # nobody restarts the shard
        )
        try:
            expr = make_loss(0.05)
            futures = [engine.submit(expr, make_inputs(seed)) for seed in range(3)]
            deadline = time.monotonic() + 10
            while engine.shards[0].thread.is_alive():
                assert time.monotonic() < deadline, "worker never crashed"
                time.sleep(0.01)
        finally:
            engine.close(timeout=5)
        for future in futures:
            assert future.done()
            with pytest.raises(EngineClosedError):
                future.result()

    def test_close_returns_when_the_dead_shards_queue_is_full(self):
        """Same crash, but the queue behind the dead worker is full: close()
        must not block handing it a stop sentinel nobody will drain."""
        faults = FaultInjector([FaultRule("shard.execute", ShardCrashError)])
        engine = ServingEngine(
            shards=1, config=config(), fault_injector=faults, supervise=False, queue_depth=2
        )
        expr = make_loss(0.05)
        futures = [engine.submit(expr, make_inputs(0))]
        deadline = time.monotonic() + 10
        while engine.shards[0].thread.is_alive():
            assert time.monotonic() < deadline, "worker never crashed"
            time.sleep(0.01)
        futures += [engine.submit(expr, make_inputs(seed)) for seed in (1, 2)]
        assert engine.shards[0].queue.full()
        closer = threading.Thread(target=engine.close, kwargs={"timeout": 1.0}, daemon=True)
        closer.start()
        closer.join(2.0)
        assert not closer.is_alive(), "close() blocked behind a dead shard's full queue"
        for future in futures:
            assert future.done()
            with pytest.raises(EngineClosedError):
                future.result()

    def test_close_still_stops_a_busy_worker_whose_queue_was_full(self):
        """A live worker too slow for the timeout, queue full: close() fails
        the futures and the worker must still get its stop sentinel."""
        entered, gate = threading.Event(), threading.Event()

        def slow(message):
            entered.set()
            gate.wait(10)
            return ExecutionError(message)

        faults = FaultInjector([FaultRule("shard.execute", slow, count=1)])
        engine = ServingEngine(
            shards=1, config=config(), fault_injector=faults, supervise=False, queue_depth=2
        )
        expr = make_loss(0.05)
        futures = [engine.submit(expr, make_inputs(0))]
        assert entered.wait(10), "worker never reached the execute site"
        futures += [engine.submit(expr, make_inputs(seed)) for seed in (1, 2)]
        assert engine.shards[0].queue.full()
        started = time.monotonic()
        engine.close(timeout=0.3)
        assert time.monotonic() - started < 2.0
        for future in futures:
            with pytest.raises(EngineClosedError):
                future.result(timeout=0)
        gate.set()
        engine.shards[0].thread.join(5.0)
        assert not engine.shards[0].thread.is_alive(), "worker never saw the stop sentinel"
        assert engine.shards[0].stopped


class TestDegradedMode:
    def test_optimizer_budget_fault_degrades_to_baseline(self):
        faults = FaultInjector([FaultRule("optimizer.saturate", OptimizerBudgetExceeded)])
        engine = ServingEngine(
            shards=1,
            config=config(),
            fault_injector=faults,
            supervision_interval=0.01,
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
