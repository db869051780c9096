"""Tests for the sharded serving engine and the tape fast path."""

import queue
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import Session
from repro.api.plan import PlanBindingError
from repro.canonical.fingerprint import signature_of, slot_expression
from repro.lang import Dim, Matrix, Sum, Vector
from repro.optimizer import OptimizerConfig
from repro.reliability import EngineClosedError, ExecutionError, FaultInjector, FaultRule
from repro.runtime import MatrixValue, execute, execute_slots
from repro.runtime.tape import StepReuseCache, TapePlan
from repro.serve import DeadlineExceededError, QueueFullError, ServingEngine
from repro.serve.worker import ResultCache, ShardWorker
from repro.workloads import (
    get_semiring_workload,
    get_workload,
    semiring_workload_names,
    workload_names,
)

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


@pytest.fixture(scope="module")
def engine():
    """One pool shared by the read-mostly tests (closed at module teardown)."""
    pool = ServingEngine(shards=2, config=config(), cache_size=16)
    yield pool
    pool.close()


class TestServingEngine:
    def test_serves_correct_results(self, engine):
        expr = make_loss(0.05)
        inputs = make_inputs(seed=1)
        expected = execute(expr, inputs).scalar()
        result = engine.run(expr, inputs)
        assert result.scalar() == pytest.approx(expected, rel=1e-12)

    def test_concurrent_mixed_fingerprint_load_is_deterministic(self):
        # Distinct sparsity *bands*, so each shape is its own template and
        # must compile exactly once (same-band variants would — by design —
        # share one compiled template instead).
        exprs = [make_loss(s) for s in (0.03, 0.3, 0.9)]
        input_sets = [make_inputs(seed) for seed in range(4)]
        expected = [
            [execute(expr, inputs).scalar() for inputs in input_sets]
            for expr in exprs
        ]
        engine = ServingEngine(shards=3, config=config())
        try:
            failures = []

            def client(worker_index):
                rng = np.random.default_rng(worker_index)
                for _ in range(25):
                    which = int(rng.integers(len(exprs)))
                    inp = int(rng.integers(len(input_sets)))
                    result = engine.run(exprs[which], input_sets[inp])
                    if result.scalar() != pytest.approx(expected[which][inp], rel=1e-12):
                        failures.append((which, inp, result.scalar()))

            threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert not failures, f"nondeterministic results under load: {failures[:3]}"
            # One compilation per unique fingerprint, no matter the contention.
            assert engine.compilations == len(exprs)
            stats = engine.stats()
            assert stats.errors == 0
            assert stats.served == 6 * 25
            assert stats.unique_fingerprints == len(exprs)
        finally:
            engine.close()

    def test_sharding_partitions_fingerprints(self):
        exprs = [make_loss(s) for s in (0.03, 0.05, 0.08, 0.12)]
        engine = ServingEngine(shards=2, config=config())
        try:
            inputs = make_inputs(seed=0)
            for expr in exprs:
                engine.run(expr, inputs)
                digest = signature_of(expr).digest
                assert engine.shard_of(digest) == engine.shard_of(digest)
            snapshots = [shard.snapshot() for shard in engine.shards]
            total = sum(s["unique_fingerprints"] for s in snapshots)
            assert total == len(exprs), "a fingerprint was served by two shards"
        finally:
            engine.close()

    def test_micro_batching_and_result_cache(self):
        expr = make_loss(0.05)
        inputs = make_inputs(seed=2)
        engine = ServingEngine(shards=1, config=config(), max_batch=8)
        try:
            results = engine.run_many([(expr, inputs)] * 40)
            values = {r.scalar() for r in results}
            assert len(values) == 1
            stats = engine.stats()
            # Identical repeated requests are memoized, and the burst was
            # served in fewer wake-ups than requests.
            assert stats.result_cache_hits > 0
            assert stats.batches < stats.served
            assert stats.batched_requests > 0
        finally:
            engine.close()

    def test_renamed_and_permuted_twins_bind_their_own_names(self, engine):
        """Twins share the cached artifact but must bind via their own signature."""
        m, n = Dim("m", ROWS), Dim("n", COLS)
        X = Matrix("X", m, n, sparsity=0.05)
        base = Sum((X - Vector("u", m) @ Vector("v", n).T) ** 2)
        # Same shape, names swapped into opposite roles: "v" is now the
        # m-vector and "u" the n-vector.  Same digest, different name order.
        swapped = Sum((X - Vector("v", m) @ Vector("u", n).T) ** 2)
        # And a fully renamed twin with disjoint names.
        renamed = Sum(
            (Matrix("A", m, n, sparsity=0.05) - Vector("b", m) @ Vector("c", n).T) ** 2
        )
        assert signature_of(base).digest == signature_of(swapped).digest
        assert signature_of(base).digest == signature_of(renamed).digest

        inputs = make_inputs(seed=6)
        base_result = engine.run(base, inputs).scalar()
        swapped_inputs = {"X": inputs["X"], "v": inputs["u"], "u": inputs["v"]}
        renamed_inputs = {"A": inputs["X"], "b": inputs["u"], "c": inputs["v"]}
        assert engine.run(swapped, swapped_inputs).scalar() == pytest.approx(
            base_result, rel=1e-12
        )
        assert engine.run(renamed, renamed_inputs).scalar() == pytest.approx(
            base_result, rel=1e-12
        )
        # One artifact serves all three twins.
        assert engine.stats().unique_fingerprints >= 1

    def test_result_cache_is_identity_keyed(self, engine):
        expr = make_loss(0.05)
        first = make_inputs(seed=3)
        # Equal content, distinct objects: must execute, not alias the memo.
        twin = {name: MatrixValue(value.data.copy()) for name, value in first.items()}
        a = engine.run(expr, first)
        before = engine.stats().result_cache_hits
        b = engine.run(expr, twin)
        c = engine.run(expr, first)
        assert b.scalar() == pytest.approx(a.scalar(), rel=1e-12)
        assert c.scalar() == pytest.approx(a.scalar(), rel=1e-12)
        assert engine.stats().result_cache_hits == before + 1  # only the re-send

    def test_binding_errors_resolve_the_future_not_the_worker(self, engine):
        expr = make_loss(0.05)
        inputs = make_inputs(seed=4)
        future = engine.submit(expr, {"X": inputs["X"]})  # u, v missing
        with pytest.raises(PlanBindingError):
            future.result(timeout=30)
        # The shard thread survived and keeps serving.
        result = engine.run(expr, inputs)
        assert np.isfinite(result.scalar())

    def test_bounded_queue_backpressure_completes(self):
        expr = make_loss(0.05)
        inputs = make_inputs(seed=5)
        engine = ServingEngine(shards=1, config=config(), queue_depth=4)
        try:
            results = engine.run_many([(expr, inputs)] * 32)
            assert len(results) == 32
        finally:
            engine.close()

    @pytest.mark.parametrize(
        "option",
        [
            {"queue_depth": 0},
            {"queue_depth": -1},
            {"max_batch": 0},
            {"max_batch": -1},
            {"supervision_interval": 0.0},
            {"supervision_interval": -0.5},
        ],
    )
    def test_out_of_range_options_fail_before_any_thread_starts(self, option):
        # queue.Queue(0) is unbounded and Event.wait(0) spins the supervisor:
        # none of these values means anything, so none constructs.
        before = set(threading.enumerate())
        with pytest.raises(ValueError):
            ServingEngine(shards=2, config=config(), **option)
        assert set(threading.enumerate()) <= before

    def test_an_idle_worker_blocks_on_its_queue(self):
        # Crash detection is thread liveness, so an idle shard has nothing to
        # refresh: it waits in one blocking get, not a polling loop.
        worker = ShardWorker(index=0, session=Session(config()), results=ResultCache())
        calls = []

        class CountingQueue(queue.Queue):
            def get(self, block=True, timeout=None):
                calls.append((block, timeout))
                return super().get(block, timeout)

        worker.queue = CountingQueue(maxsize=4)
        worker.start()
        try:
            time.sleep(0.3)
            assert calls == [(True, None)]
        finally:
            worker.stop(timeout=30)
        assert worker.stopped and not worker.thread.is_alive()

    def test_closed_engine_rejects_submissions(self):
        engine = ServingEngine(shards=1, config=config())
        engine.close()
        with pytest.raises(RuntimeError):
            engine.submit(make_loss(0.05), make_inputs(seed=0))

    def test_expired_deadline_is_shed_with_typed_error(self):
        """A request whose budget is spent in queue resolves exceptionally."""
        engine = ServingEngine(shards=1, config=config())
        try:
            inputs = make_inputs(seed=0)
            # The first request compiles (milliseconds), so a 0.1 ms budget
            # lets the second one *enqueue* but guarantees it has expired by
            # the time the worker reaches it — the worker-side shed path.
            ok = engine.submit(make_loss(0.05), inputs)
            doomed = engine.submit(make_loss(0.05), inputs, deadline=1e-4)
            assert np.isfinite(ok.result(timeout=60).scalar())
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=60)
            stats = engine.stats()
            assert stats.sheds >= 1
            assert stats.errors == 0  # sheds are not errors
            # the worker survived and keeps serving
            assert np.isfinite(engine.run(make_loss(0.05), inputs).scalar())
        finally:
            engine.close()

    def test_full_queue_sheds_instead_of_blocking_forever(self):
        """Deadline-bearing submissions reject with QueueFullError under
        overload instead of stalling the producer."""
        engine = ServingEngine(shards=1, config=config(), queue_depth=1, max_batch=1)
        try:
            inputs = make_inputs(seed=1)
            futures = [
                engine.submit(make_loss(0.05), inputs, deadline=1e-3)
                for _ in range(12)
            ]
            outcomes = {"served": 0, "queue_full": 0, "deadline": 0}
            for future in futures:
                try:
                    future.result(timeout=120)
                    outcomes["served"] += 1
                except QueueFullError:
                    outcomes["queue_full"] += 1
                except DeadlineExceededError:
                    outcomes["deadline"] += 1
            # the first compile takes far longer than the 1 ms budgets, so
            # most of the burst must have been shed one way or the other
            assert outcomes["queue_full"] + outcomes["deadline"] >= 1, outcomes
            assert engine.stats().sheds == outcomes["queue_full"] + outcomes["deadline"]
            # no-deadline traffic still gets classic back-pressure service
            assert np.isfinite(engine.run(make_loss(0.05), inputs).scalar())
        finally:
            engine.close()

    def test_default_deadline_applies_to_execute_submissions(self):
        with pytest.raises(ValueError, match="default_deadline"):
            ServingEngine(shards=1, config=config(), default_deadline=0.0)
        engine = ServingEngine(shards=1, config=config(), default_deadline=1e-6)
        try:
            future = engine.submit(make_loss(0.05), make_inputs(seed=2))
            with pytest.raises((DeadlineExceededError, QueueFullError)):
                future.result(timeout=60)
        finally:
            engine.close()

    def test_default_deadline_does_not_shed_warmup(self):
        """Compile-only work (deploy-time warm/plan_for) is expected to
        outlast a serving latency budget; only execute traffic inherits
        the engine default."""
        engine = ServingEngine(shards=1, config=config(), default_deadline=1e-6)
        try:
            compiled = engine.warm([make_loss(0.05)])
            assert compiled == 1
            assert engine.plan_for(make_loss(0.05)).fingerprint
            assert engine.stats().sheds == 0
        finally:
            engine.close()

    def test_expired_batch_sheds_before_compiling(self):
        """A batch of dead requests must not pay a compile (the shed check
        runs before plan resolution)."""
        engine = ServingEngine(shards=1, config=config(), max_batch=8)
        try:
            inputs = make_inputs(seed=3)
            slow = engine.submit(make_loss(0.05), inputs)  # occupies the worker
            # These expire while the worker is compiling `slow`'s shape;
            # their own shape (a different sparsity *band*, so a different
            # template — no sharing) must never compile.
            doomed = [
                engine.submit(make_loss(0.9), inputs, deadline=1e-4)
                for _ in range(4)
            ]
            slow.result(timeout=60)
            for future in doomed:
                with pytest.raises(DeadlineExceededError):
                    future.result(timeout=60)
            assert engine.compilations == 1, "dead batch must not compile"
            assert engine.stats().sheds == 4
        finally:
            engine.close()

    def test_size_ladder_shares_one_shard_and_one_compile(self):
        """Template routing: every ladder point lands on one shard and only
        the first size compiles."""
        def loss_at(rows):
            m, n = Dim("m", rows), Dim("n", COLS)
            X = Matrix("X", m, n, sparsity=0.05)
            return Sum((X - Vector("u", m) @ Vector("v", n).T) ** 2)

        ladder = [loss_at(rows) for rows in (60, 90, 120, 180)]
        signatures = [signature_of(expr) for expr in ladder]
        assert len({sig.template_digest for sig in signatures}) == 1
        engine = ServingEngine(shards=4, config=config())
        try:
            for rows, expr in zip((60, 90, 120, 180), ladder):
                rng = np.random.default_rng(rows)
                inputs = {
                    "X": MatrixValue.random_sparse(rows, COLS, 0.05, rng),
                    "u": MatrixValue.random_dense(rows, 1, rng),
                    "v": MatrixValue.random_dense(COLS, 1, rng),
                }
                expected = execute(expr, inputs).scalar()
                assert engine.run(expr, inputs).scalar() == pytest.approx(
                    expected, rel=1e-12
                )
            assert engine.compilations == 1
            stats = engine.stats()
            assert stats.template_hits == len(ladder) - 1
            assert stats.unique_templates == 1
            active = [s for s in engine.shards if s.snapshot()["served"] > 0]
            assert len(active) == 1, "a size ladder must land on one shard"
        finally:
            engine.close()

    def test_describe_is_json_shaped(self, engine):
        record = engine.describe()
        assert record["shards"] == 2
        assert record["store"] is None
        assert isinstance(record["per_shard"], list)
        for shard_record in record["per_shard"]:
            assert {"served", "cache_hit_rate", "compilations"} <= set(shard_record)


def record_serving_threads(shard, monkeypatch):
    """Wrap ``shard._serve_batch``: returns the list of (thread, batch inputs)
    it appends to, one entry per call, whichever thread makes it."""
    calls = []
    serve_batch = shard._serve_batch

    def recording(batch):
        calls.append((threading.current_thread(), [request.inputs for request in batch]))
        serve_batch(batch)

    monkeypatch.setattr(shard, "_serve_batch", recording)
    return calls


class Gate:
    """A stand-in ``_serving`` lock whose blocking acquire announces itself."""

    def __init__(self):
        self.lock = threading.Lock()
        self.waiting = threading.Event()

    def acquire(self, blocking=True):
        if blocking:
            self.waiting.set()
        return self.lock.acquire(blocking)

    def release(self):
        self.lock.release()

    def __enter__(self):
        self.acquire()

    def __exit__(self, *exc_info):
        self.release()


def wait_until(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestCallerRuns:
    """``run`` and ``plan_for`` serve an idle shard on the calling thread,
    through the shard's own ``_serve_batch``; anything else queues."""

    def test_idle_shard_is_served_on_the_calling_thread(self, monkeypatch):
        engine = ServingEngine(shards=1, config=config(), supervise=False)
        try:
            calls = record_serving_threads(engine.shards[0], monkeypatch)
            expr, inputs = make_loss(0.05), make_inputs(seed=10)
            assert engine.plan_for(expr).fingerprint
            result = engine.run(expr, inputs)
            assert result.scalar() == pytest.approx(execute(expr, inputs).scalar(), rel=1e-12)
            me = threading.current_thread()
            assert [thread for thread, _ in calls] == [me, me]
            assert calls[1][1][0] is inputs
            stats = engine.stats()
            assert (stats.served, stats.batches, stats.errors) == (2, 2, 0)
        finally:
            engine.close()

    def test_busy_shard_serves_run_on_the_worker_in_arrival_order(self, monkeypatch):
        engine = ServingEngine(shards=1, config=config(), supervise=False)
        shard = engine.shards[0]
        expr = make_loss(0.05)
        engine.warm([expr])
        calls = record_serving_threads(shard, monkeypatch)
        first, second, third = (make_inputs(seed) for seed in (11, 12, 13))
        results = {}

        def run_in_thread(name, inputs):
            thread = threading.Thread(
                target=lambda: results.__setitem__(name, engine.run(expr, inputs))
            )
            thread.start()
            return thread

        gate = Gate()
        gate.lock.acquire()
        shard._serving = gate
        try:
            try:
                queued = engine.submit(expr, first)
                # the worker drained `first` and now waits on _serving
                assert gate.waiting.wait(30)
                # (1) the shard holds _serving: run() queues behind it
                busy = run_in_thread("busy", second)
                wait_until(lambda: shard.queue.qsize() == 1)
                # (2) queued work and a free-looking lock: run() still queues
                shard._serving = threading.Lock()
                backlog = run_in_thread("backlog", third)
                wait_until(lambda: shard.queue.qsize() == 2)
            finally:
                shard._serving = gate
                gate.lock.release()
            queued.result(timeout=30)
            busy.join(30)
            backlog.join(30)
            assert set(results) == {"busy", "backlog"}
            assert all(thread is shard.thread for thread, _ in calls)
            served = [inputs for _, batch in calls for inputs in batch]
            assert list(map(id, served)) == list(map(id, (first, second, third)))
            for name, inputs in (("busy", second), ("backlog", third)):
                want = execute(expr, inputs).scalar()
                assert results[name].scalar() == pytest.approx(want, rel=1e-12)
        finally:
            engine.close()

    def test_fault_injection_always_queues(self, monkeypatch):
        faults = FaultInjector([FaultRule("shard.execute", ExecutionError, start=10**6)])
        engine = ServingEngine(
            shards=1, config=config(), fault_injector=faults, supervise=False
        )
        try:
            calls = record_serving_threads(engine.shards[0], monkeypatch)
            expr = make_loss(0.05)
            engine.plan_for(expr)
            for seed in range(3):
                engine.run(expr, make_inputs(seed))
            assert len(calls) == 4
            assert all(thread is engine.shards[0].thread for thread, _ in calls)
        finally:
            engine.close()

    def test_run_after_submit_hits_the_shards_result_cache(self, monkeypatch):
        engine = ServingEngine(shards=1, config=config(), supervise=False)
        shard = engine.shards[0]
        try:
            expr, inputs = make_loss(0.05), make_inputs(seed=14)
            queued = engine.submit(expr, inputs).result(timeout=30)
            calls = record_serving_threads(shard, monkeypatch)
            inline = engine.run(expr, dict(inputs))  # same value objects
            assert calls == []  # answered at the door: no serving call
            assert inline is queued
            assert engine.stats().result_cache_hits == 1
            assert len(shard._local) == 1  # one reuse state, whichever thread ran
        finally:
            engine.close()

    def test_run_deadline_is_a_parameter_and_sheds(self):
        engine = ServingEngine(shards=1, config=config(), supervise=False)
        try:
            expr, inputs = make_loss(0.05), make_inputs(seed=15)
            want = execute(expr, inputs).scalar()
            assert engine.run(expr, inputs, deadline=60.0).scalar() == pytest.approx(
                want, rel=1e-12
            )
            with pytest.raises((DeadlineExceededError, QueueFullError)):
                engine.run(expr, inputs, deadline=1e-9)
            stats = engine.stats()
            assert (stats.sheds, stats.served, stats.errors) == (1, 1, 0)
        finally:
            engine.close()

    def test_serve_batch_has_one_holder_at_a_time_under_stress(self, monkeypatch):
        """Six threads mixing run() and submit() on one shard, with a short
        switch interval: _serve_batch never runs twice at once, and every
        answer (result-cache hits included) is right."""
        engine = ServingEngine(shards=1, config=config(), supervise=False)
        shard = engine.shards[0]
        expr = make_loss(0.05)
        input_sets = [make_inputs(seed) for seed in range(3)]
        expected = [execute(expr, inputs).scalar() for inputs in input_sets]
        engine.warm([expr])
        guard = threading.Lock()
        inside = [0, 0]  # [now, most at once]
        serve_batch = shard._serve_batch

        def counting(batch):
            with guard:
                inside[0] += 1
                inside[1] = max(inside)
            try:
                serve_batch(batch)
            finally:
                with guard:
                    inside[0] -= 1

        monkeypatch.setattr(shard, "_serve_batch", counting)
        wrong = []

        def client(index):
            for step in range(30):
                which = (index + step) % len(input_sets)
                inputs = input_sets[which]
                if step % 3 == 0:  # fresh value objects: a result-cache miss
                    inputs = {k: MatrixValue(v.data.copy()) for k, v in inputs.items()}
                if (index + step) % 2:
                    result = engine.submit(expr, inputs).result(timeout=30)
                else:
                    result = engine.run(expr, inputs)
                if result.scalar() != pytest.approx(expected[which], rel=1e-12):
                    wrong.append((index, step))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            engine.close()
        assert not wrong
        assert inside[1] == 1
        assert engine.stats().served == 1 + 6 * 30  # the warm() request too

    def test_close_racing_run_loops_leaves_nothing_pending(self):
        engine = ServingEngine(shards=2, config=config())
        expr = make_loss(0.05)
        input_sets = [make_inputs(seed) for seed in range(4)]
        expected = [execute(expr, inputs).scalar() for inputs in input_sets]
        engine.warm([expr])
        outcomes = [[], []]

        def client(index):
            step = 0
            while True:
                which = step % len(input_sets)
                try:
                    value = engine.run(expr, input_sets[which]).scalar()
                except EngineClosedError:
                    outcomes[index].append("closed")
                    return
                ok = value == pytest.approx(expected[which], rel=1e-12)
                outcomes[index].append("ok" if ok else "wrong")
                step += 1

        threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        wait_until(lambda: all(len(out) >= 5 for out in outcomes))
        engine.close(timeout=5)
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive(), "a run() call outlived close()"
        for out in outcomes:
            assert out[-1] == "closed" and "wrong" not in out
        for shard in engine.shards:
            assert shard.queue.empty() and not shard.take_unresolved()


def home_shard(engine, expr):
    return engine.shards[engine.shard_of(engine.signature_for(expr).template_digest)]


class TestResultCacheAtTheDoor:
    """One engine-owned result cache, consulted on the caller's thread
    before anything is queued; the shards consult the same cache."""

    def test_a_repeat_resolves_before_submit_returns(self):
        engine = ServingEngine(shards=2, config=config(), supervise=False)
        try:
            expr, inputs = make_loss(0.05), make_inputs(seed=20)
            first = engine.submit(expr, inputs).result(timeout=30)
            home = home_shard(engine, expr)
            observed = engine._latency.count
            with home._serving:  # the home shard can serve nothing now
                future = engine.submit(expr, dict(inputs))  # same value objects
                assert future.done()
                assert future.result() is first
                assert home.queue.empty()
            assert engine._latency.count == observed + 1
            stats = engine.stats()
            assert (stats.submitted, stats.served, stats.result_cache_hits) == (2, 2, 1)
            assert (stats.batches, stats.errors) == (1, 0)
            assert home.snapshot()["result_cache_hits"] == 1
        finally:
            engine.close()

    def test_a_batch_mate_repeat_hits_what_its_twin_stored(self, monkeypatch):
        # Faults turn the door off, so both twins queue behind the busy home
        # shard, drain as one batch, and the second's execute-time lookup
        # finds the answer the first stored.
        faults = FaultInjector([FaultRule("shard.execute", ExecutionError, start=10**6)])
        engine = ServingEngine(
            shards=2, config=config(), fault_injector=faults, supervise=False
        )
        try:
            expr, inputs = make_loss(0.05), make_inputs(seed=21)
            home = home_shard(engine, expr)
            calls = record_serving_threads(home, monkeypatch)
            gate = Gate()
            gate.lock.acquire()
            home._serving = gate
            try:
                blocker = engine.submit(expr, make_inputs(seed=26))
                assert gate.waiting.wait(30)  # the worker drained it and waits
                twins = [engine.submit(expr, inputs) for _ in range(2)]
                assert home.queue.qsize() == 2
                assert not any(future.done() for future in twins)
            finally:
                gate.lock.release()
            blocker.result(timeout=30)
            first, second = (future.result(timeout=30) for future in twins)
            assert second is first
            assert [len(batch) for _, batch in calls] == [1, 2]
            assert all(thread is home.thread for thread, _ in calls)
            stats = engine.stats()
            assert (stats.result_cache_hits, stats.served, stats.batched_requests) == (1, 3, 2)
            assert home.snapshot()["result_cache_hits"] == 1
        finally:
            engine.close()

    def test_an_equal_copy_of_any_one_input_misses(self):
        engine = ServingEngine(shards=1, config=config(), supervise=False)
        try:
            expr, inputs = make_loss(0.05), make_inputs(seed=22)
            first = engine.run(expr, inputs)
            for name, value in inputs.items():
                copied = dict(inputs)
                copied[name] = MatrixValue(value.data.copy())
                result = engine.run(expr, copied)
                assert result is not first, name
                assert result.scalar() == pytest.approx(first.scalar(), rel=1e-12)
            assert engine.stats().result_cache_hits == 0
            assert engine.run(expr, inputs) is first
            assert engine.stats().result_cache_hits == 1
        finally:
            engine.close()

    def test_fault_injection_sends_a_repeat_to_the_shard(self, monkeypatch):
        faults = FaultInjector([FaultRule("shard.execute", ExecutionError, start=10**6)])
        engine = ServingEngine(
            shards=1, config=config(), fault_injector=faults, supervise=False
        )
        try:
            expr, inputs = make_loss(0.05), make_inputs(seed=23)
            first = engine.run(expr, inputs)
            calls = record_serving_threads(engine.shards[0], monkeypatch)
            assert engine.submit(expr, inputs).result(timeout=30) is first
            assert len(calls) == 1 and calls[0][0] is engine.shards[0].thread
            stats = engine.stats()
            # the shard's execute-time lookup counted the hit, once
            assert (stats.result_cache_hits, stats.served) == (1, 2)
        finally:
            engine.close()

    def test_a_bind_error_is_a_miss_the_shard_fails_and_counts_once(self):
        engine = ServingEngine(shards=1, config=config(), supervise=False)
        try:
            expr, inputs = make_loss(0.05), make_inputs(seed=25)
            engine.run(expr, inputs)
            with pytest.raises(PlanBindingError):
                engine.submit(expr, {"X": inputs["X"]}).result(timeout=30)  # u, v missing
            stats = engine.stats()
            assert (stats.errors, stats.served, stats.result_cache_hits) == (1, 1, 0)
        finally:
            engine.close()

    def test_a_repeat_whose_deadline_passed_is_shed_not_answered(self):
        engine = ServingEngine(shards=1, config=config(), supervise=False)
        try:
            expr, inputs = make_loss(0.05), make_inputs(seed=24)
            engine.run(expr, inputs)
            with pytest.raises((DeadlineExceededError, QueueFullError)):
                engine.run(expr, inputs, deadline=1e-9)
            stats = engine.stats()
            assert (stats.sheds, stats.result_cache_hits) == (1, 0)
        finally:
            engine.close()


class TestOneExecutable:
    """``plan.run`` and the shards execute one kind of object, bitwise equal
    to the reference interpreter, on the 14 paper roots + 4 SSSP/REACH roots."""

    @pytest.mark.parametrize("family", workload_names() + semiring_workload_names())
    def test_plan_and_shard_share_the_executable_and_match_the_oracle(self, family):
        if family in semiring_workload_names():
            workload = get_semiring_workload(family, "S")
        else:
            workload = get_workload(family, "S")
        inputs = workload.inputs(seed=7)
        pool = ServingEngine(
            shards=1,
            config=OptimizerConfig.sampling_greedy(semiring=workload.semiring),
            cache_size=8,
        )
        try:
            for root_name, root in workload.roots.items():
                plan = pool.plan_for(root)
                bound = {name: inputs[name] for name in plan.input_names}
                # the shard keys its local state by the executable it ran:
                # by identity, so membership means the very same object
                assert plan.executable() in pool.shards[0]._local, root_name
                expected = execute_slots(
                    plan._entry.slot_plan, plan.bind(bound), ring=plan.ring
                ).value
                for got in (plan.run(bound).value, pool.run(root, bound).value):
                    assert got.is_sparse == expected.is_sparse, root_name
                    assert np.array_equal(got.to_dense(), expected.to_dense()), root_name
        finally:
            pool.close()


class TestTapePlan:
    """The tape executes any slot-space expression, no optimizer needed."""

    def build(self, expr):
        signature = signature_of(expr)
        return TapePlan(slot_expression(expr, signature), len(signature.slots)), signature

    def test_matches_interpreter_and_reuse_is_sound(self):
        expr = make_loss(0.05)
        tape, signature = self.build(expr)
        slot_plan = slot_expression(expr, signature)
        reuse = StepReuseCache()
        for seed in range(3):
            inputs = make_inputs(seed)
            values = [inputs[name] for name in signature.var_order]
            expected = execute_slots(slot_plan, values).to_dense()
            for _ in range(2):  # second run exercises warm reuse entries
                got = tape.execute(values, reuse).to_dense()
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        assert reuse.hits > 0

    def test_reuse_never_serves_stale_pinned_state(self):
        m = Dim("m", ROWS)
        X = Matrix("X", m, Dim("n", COLS), sparsity=0.05)
        u = Vector("u", m)
        expr = X.T @ u  # the transpose step depends on X alone
        tape, signature = self.build(expr)
        reuse = StepReuseCache()
        first = make_inputs(seed=0)
        second = make_inputs(seed=1)  # a *different* X object
        for inputs in (first, second, first):
            values = [inputs[name] for name in signature.var_order]
            expected = execute(expr, inputs).to_dense()
            got = tape.execute(values, reuse).to_dense()
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_rejects_non_slot_expressions(self):
        from repro.runtime.engine import ExecutionError

        expr = make_loss(0.05)
        with pytest.raises(ExecutionError):
            TapePlan(expr, 3)  # named variables, not slots
