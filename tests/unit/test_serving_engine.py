"""Tests for the serving engine (callers run, one pooled queue) and the tape fast path."""

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import Session
from repro.api.plan import PlanBindingError
from repro.canonical.fingerprint import signature_of, slot_expression
from repro.lang import Dim, Matrix, Sum, Vector
from repro.lang import expr as la
from repro.lang.dims import Shape
from repro.optimizer import OptimizerConfig
from repro.reliability import (
    EngineClosedError,
    FaultInjector,
    FaultRule,
    OptimizerBudgetExceeded,
    PlanStoreError,
)
from repro.runtime import MatrixValue, execute, execute_slots
from repro.runtime.tape import StepReuseCache, TapePlan
from repro.serve import DeadlineExceededError, QueueFullError, ServingEngine
from repro.serve.engine import _PoolQueue
from repro.workloads import (
    get_semiring_workload,
    get_workload,
    semiring_workload_names,
    workload_names,
)
from tests.helpers import hold_first_pool_batch

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

    def test_each_fingerprint_is_counted_once(self):
        exprs = [make_loss(s) for s in (0.03, 0.05, 0.08, 0.12)]
        engine = ServingEngine(shards=2, config=config())
        try:
            inputs = make_inputs(seed=0)
            futures = []
            for expr in exprs:
                engine.run(expr, inputs)
                fresh = dict(inputs, u=MatrixValue(inputs["u"].data.copy()))
                futures.append(engine.submit(expr, fresh))
            engine.run_many([(expr, inputs) for expr in exprs])
            for future in futures:
                future.result(timeout=60)
            stats = engine.stats()
            assert stats.unique_fingerprints == len(exprs)
            assert stats.served == 3 * len(exprs) and stats.errors == 0
        finally:
            engine.close()

    def test_micro_batching_and_result_cache(self):
        expr = make_loss(0.05)
        inputs = make_inputs(seed=2)
        engine = ServingEngine(shards=1, config=config())
        try:
            results = engine.run_many([(expr, inputs)] * 40)
            values = {r.scalar() for r in results}
            assert len(values) == 1
            stats = engine.stats()
            # The burst was served in fewer wake-ups than requests.
            assert stats.batches < stats.served
            assert stats.batched_requests > 0
            # An answer stored by an execution answers a later repeat at the door.
            repeat = engine.submit(expr, inputs)
            assert repeat.done() and repeat.result().scalar() in values
            assert engine.stats().result_cache_hits > stats.result_cache_hits
        finally:
            engine.close()

    def test_one_drain_is_one_batch_served_largest_group_first(self):
        engine = ServingEngine(shards=1, config=config())
        engine.plan_for(make_loss(0.05))
        engine.plan_for(make_loss(0.9))
        before = engine.stats().batches
        busy, release = hold_first_pool_batch(engine)
        try:
            first = engine.submit(make_loss(0.05), make_inputs(seed=0))
            assert busy.wait(60)
            # Queued behind the held batch: a group of one, then a group of three.
            queued = [(make_loss(0.9), 1)] + [(make_loss(0.05), seed) for seed in (2, 3, 4)]
            order = []
            futures = []
            for index, (expr, seed) in enumerate(queued):
                future = engine.submit(expr, make_inputs(seed=seed))
                future.add_done_callback(lambda _f, i=index: order.append(i))
                futures.append(future)
            release.set()
            first.result(timeout=60)
            for future in futures:
                assert np.isfinite(future.result(timeout=60).scalar())
            stats = engine.stats()
            assert stats.batches - before == 2  # the held request, then the whole queue
            assert stats.batched_requests == 3
            engine.close()  # joins the pool thread, so every done-callback has run
            assert order == [1, 2, 3, 0]  # largest group first, arrival order within
        finally:
            release.set()
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
            {"shards": 0},
        ],
    )
    def test_out_of_range_options_fail_before_any_thread_starts(self, option):
        # queue.Queue(0) is unbounded and a pool of no threads serves no
        # submit(): none of these values means anything, so none constructs.
        before = set(threading.enumerate())
        with pytest.raises(ValueError):
            ServingEngine(config=config(), **{"shards": 2, **option})
        assert set(threading.enumerate()) <= before

    def test_an_idle_pool_thread_blocks_on_the_queue(self, monkeypatch):
        # Nothing watches a pool thread, so an idle one has nothing to
        # refresh: it waits in one blocking get, not a polling loop.
        calls = []
        get = _PoolQueue.get

        def counting(queue_, block=True, timeout=None):
            calls.append((block, timeout))
            return get(queue_, block, timeout)

        monkeypatch.setattr(_PoolQueue, "get", counting)
        engine = ServingEngine(shards=1, config=config())
        try:
            time.sleep(0.3)
            assert calls == [(True, None)]
        finally:
            engine.close(timeout=30)
        assert not any(thread.is_alive() for thread in engine._threads)

    def test_an_engine_starts_exactly_its_pool(self):
        before = set(threading.enumerate())
        engine = ServingEngine(shards=3, config=config())
        try:
            started = set(threading.enumerate()) - before
            assert len(started) == 3
            assert sorted(thread.name for thread in started) == [
                "spores-serve-0", "spores-serve-1", "spores-serve-2",
            ]
            assert not [t for t in threading.enumerate() if "supervis" in t.name]
            assert engine.stats().shards == 3
        finally:
            engine.close()
        assert not any(thread.is_alive() for thread in started)

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
        engine = ServingEngine(shards=1, config=config(), queue_depth=1)
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
        """Compile-only work (deploy-time warm/plan_for) is no request, so
        no serving latency budget can apply to it."""
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
        engine = ServingEngine(shards=1, config=config())
        busy, release = hold_first_pool_batch(engine)
        try:
            inputs = make_inputs(seed=3)
            slow = engine.submit(make_loss(0.05), inputs)  # occupies the worker
            assert busy.wait(60)
            # These expire in the queue behind the held batch; their own
            # shape (a different sparsity *band*, so a different template —
            # no sharing) must never compile.
            doomed = [
                engine.submit(make_loss(0.9), inputs, deadline=0.05)
                for _ in range(4)
            ]
            assert engine.queue.qsize() == 4
            latest = max(request.deadline for request in list(engine.queue.queue))
            wait_until(lambda: time.perf_counter() > latest)
            release.set()
            slow.result(timeout=60)
            for future in doomed:
                with pytest.raises(DeadlineExceededError):
                    future.result(timeout=60)
            assert engine.compilations == 1, "dead batch must not compile"
            assert engine.stats().sheds == 4
        finally:
            release.set()
            engine.close()

    def test_size_ladder_shares_one_compile(self):
        """Only the first size of a ladder compiles; the rest specialize."""
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
            assert stats.unique_fingerprints == len(ladder)
        finally:
            engine.close()

    def test_describe_is_json_shaped(self, engine):
        record = engine.describe()
        assert record["shards"] == 2
        assert record["store"] is None
        assert {"served", "result_cache_hits", "compilations", "sheds"} <= set(record)
        assert "hit_rate" in record["cache"]  # the session's plan-cache hit rate
        assert json.loads(json.dumps(record)) == record


def record_serving_threads(engine, monkeypatch):
    """Wrap ``engine._serve_batch``: returns the list of (thread, batch values)
    it appends to, one entry per call, whichever thread makes it."""
    calls = []
    serve_batch = engine._serve_batch

    def recording(batch):
        calls.append((threading.current_thread(), [request.values for request in batch]))
        serve_batch(batch)

    monkeypatch.setattr(engine, "_serve_batch", recording)
    return calls


def hold_the_pool(engine, monkeypatch):
    """Make the next batch wait in ``_serve_batch`` until released.

    Returns ``(held, release)``: ``held`` is set once the batch is inside,
    and setting ``release`` lets it (and every later batch) through."""
    held, release = threading.Event(), threading.Event()
    serve_batch = engine._serve_batch

    def holding(batch):
        if not held.is_set():
            held.set()
            assert release.wait(30)
        serve_batch(batch)

    monkeypatch.setattr(engine, "_serve_batch", holding)
    return held, release


def wait_until(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestCallerRuns:
    """``run`` serves on the calling thread, through the engine's own
    ``_serve_batch``; ``submit`` goes through the pool; ``plan_for`` and
    ``warm`` compile on the calling thread and serve nothing."""

    def test_run_serves_on_the_calling_thread_and_plan_for_serves_nothing(self, monkeypatch):
        engine = ServingEngine(shards=1, config=config())
        try:
            calls = record_serving_threads(engine, monkeypatch)
            expr, inputs = make_loss(0.05), make_inputs(seed=10)
            plan = engine.plan_for(expr)
            assert calls == []
            result = engine.run(expr, inputs)
            assert result.scalar() == pytest.approx(execute(expr, inputs).scalar(), rel=1e-12)
            assert [thread for thread, _ in calls] == [threading.current_thread()]
            (values,) = calls[0][1]
            assert all(v is inputs[name] for v, name in zip(values, plan.input_names))
            stats = engine.stats()
            assert (stats.served, stats.batches, stats.errors) == (1, 1, 0)
        finally:
            engine.close()

    def test_concurrent_runs_of_two_plans_each_serve_on_their_own_thread(self, monkeypatch):
        """Two callers run two plans at once, each on its own thread — even
        on a one-thread pool that is busy: nothing routes them anywhere."""
        engine = ServingEngine(shards=1, config=config())
        exprs = [make_loss(0.03), make_loss(0.9)]
        assert len({engine.signature_for(e).template_digest for e in exprs}) == 2
        engine.warm(exprs)
        both_inside = threading.Barrier(2, timeout=30)
        threads = {}
        execute_ = engine._execute

        def meeting(plan, entry, request, *rest):
            if threading.current_thread().name.startswith("caller-"):
                threads[id(request.expr)] = threading.current_thread()
                both_inside.wait()  # neither can finish until both execute
            return execute_(plan, entry, request, *rest)

        monkeypatch.setattr(engine, "_execute", meeting)
        held, release = hold_the_pool(engine, monkeypatch)
        results = {}
        try:
            blocker = engine.submit(exprs[0], make_inputs(seed=30))
            assert held.wait(30)  # the pool's only thread is busy
            callers = [
                threading.Thread(
                    target=lambda e=expr, i=index: results.__setitem__(
                        i, engine.run(e, make_inputs(seed=31 + i))
                    ),
                    name=f"caller-{index}",
                )
                for index, expr in enumerate(exprs)
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(30)
                assert not caller.is_alive()
            assert [threads[id(expr)] for expr in exprs] == callers
            release.set()
            blocker.result(timeout=30)
            for index, expr in enumerate(exprs):
                want = execute(expr, make_inputs(seed=31 + index)).scalar()
                assert results[index].scalar() == pytest.approx(want, rel=1e-12)
        finally:
            release.set()
            engine.close()

    def test_fault_injection_serves_inline_too(self, monkeypatch):
        faults = FaultInjector(
            [FaultRule("optimizer.saturate", OptimizerBudgetExceeded, start=10**6)]
        )
        engine = ServingEngine(shards=1, config=config(), fault_injector=faults)
        try:
            calls = record_serving_threads(engine, monkeypatch)
            expr = make_loss(0.05)
            engine.plan_for(expr)
            for seed in range(3):
                engine.run(expr, make_inputs(seed))
            assert [thread for thread, _ in calls] == [threading.current_thread()] * 3
        finally:
            engine.close()

    def test_an_error_inside_run_fails_that_run_and_the_next_is_answered_bitwise(
        self, monkeypatch
    ):
        """A tape error inside run() is raised on the calling thread, once;
        nothing hands the request to the pool, and the next run is served
        as if the failure never happened."""
        from repro.runtime import ExecutionError

        engine = ServingEngine(shards=1, config=config())
        try:
            expr, bad, good = make_loss(0.05), make_inputs(seed=16), make_inputs(seed=17)
            plan = engine.plan_for(expr)
            run_tape, executed = engine._run_tape, []

            def failing(tape, values):
                executed.append(threading.current_thread())
                if values[plan.signature.var_order.index("u")] is bad["u"]:
                    raise ExecutionError("kernel rejected its operand")
                return run_tape(tape, values)

            monkeypatch.setattr(engine, "_run_tape", failing)
            calls = record_serving_threads(engine, monkeypatch)
            with pytest.raises(ExecutionError, match="kernel rejected"):
                engine.run(expr, bad)
            got = engine.run(expr, good).value
            me = threading.current_thread()
            assert executed == [me, me]
            assert [thread for thread, _ in calls] == [me, me]
            want = plan.executable().execute(plan.bind(good)).value
            assert got.is_sparse == want.is_sparse
            assert np.array_equal(got.to_dense(), want.to_dense())
            stats = engine.stats()
            assert (stats.served, stats.errors) == (1, 1)  # the good run and the bad one
        finally:
            engine.close()

    def test_run_after_submit_hits_the_result_cache(self, monkeypatch):
        engine = ServingEngine(shards=1, config=config())
        try:
            expr, inputs = make_loss(0.05), make_inputs(seed=14)
            queued = engine.submit(expr, inputs).result(timeout=30)
            calls = record_serving_threads(engine, monkeypatch)
            inline = engine.run(expr, dict(inputs))  # same value objects
            assert calls == []  # answered at the door: no serving call
            assert inline is queued
            assert engine.stats().result_cache_hits == 1
            assert len(engine._local) == 0  # a lone request never stacks: no stacking state
        finally:
            engine.close()

    def test_run_deadline_is_a_parameter_and_sheds(self):
        engine = ServingEngine(shards=1, config=config())
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

    def test_one_holder_of_a_plans_stacking_state_under_stress(self, monkeypatch):
        """Six threads mixing run() and submit() of one stackable matvec, with
        a short switch interval: each executable's stacking state has one
        holder at a time, and every answer — stacked, executed alone or a
        result-cache hit — is bitwise the executable's own."""
        m, n = Dim("m", ROWS), Dim("n", COLS)
        expr = la.UnaryFunc("sigmoid", la.MatMul(Matrix("A", m, n), Vector("q", n)))
        rng = np.random.default_rng(0)
        pinned = MatrixValue.random_dense(ROWS, COLS, rng)
        vectors = [MatrixValue.random_dense(COLS, 1, rng) for _ in range(3)]
        engine = ServingEngine(shards=2, config=config())
        plan = engine.plan_for(expr)
        expected = [
            plan.executable().execute(plan.bind(A=pinned, q=vector)).value.to_dense()
            for vector in vectors
        ]
        guard = threading.Lock()
        inside, most = {}, [0]  # holders per stacking state now, most at once
        serve_stacked = engine._serve_stacked

        def counting(tape, local, members):
            with guard:
                inside[id(local)] = inside.get(id(local), 0) + 1
                most[0] = max(most[0], inside[id(local)])
            try:
                return serve_stacked(tape, local, members)
            finally:
                with guard:
                    inside[id(local)] -= 1

        monkeypatch.setattr(engine, "_serve_stacked", counting)
        wrong = []

        def client(index):
            for step in range(30):
                which = (index + step) % len(vectors)
                vector = vectors[which]
                if step % 3 == 0:  # a fresh value object: a result-cache miss
                    vector = MatrixValue(vector.data.copy())
                inputs = {"A": pinned, "q": vector}
                if (index + step) % 2:
                    result = engine.submit(expr, inputs).result(timeout=30)
                else:
                    result = engine.run(expr, inputs)
                if not np.array_equal(result.value.to_dense(), expected[which]):
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
        assert most[0] == 1
        stats = engine.stats()
        assert (stats.served, stats.errors) == (6 * 30, 0)

    def test_two_callers_of_one_plan_execute_side_by_side(self, monkeypatch):
        """No serving lock is held while a request executes: two inline
        callers of one plan are inside its executable at once."""
        engine = ServingEngine(shards=1, config=config())
        expr = make_loss(0.05)
        engine.warm([expr])
        both_inside = threading.Barrier(2, timeout=30)
        run_tape = engine._run_tape

        def meeting(tape, values):
            both_inside.wait()  # neither can finish until both execute
            return run_tape(tape, values)

        monkeypatch.setattr(engine, "_run_tape", meeting)
        results = {}
        try:
            callers = [
                threading.Thread(
                    target=lambda i=index: results.__setitem__(
                        i, engine.run(expr, make_inputs(seed=50 + i))
                    )
                )
                for index in range(2)
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60)
                assert not caller.is_alive()
        finally:
            engine.close()
        for index in range(2):
            want = execute(expr, make_inputs(seed=50 + index)).scalar()
            assert results[index].scalar() == pytest.approx(want, rel=1e-12)

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
        assert engine.queue.empty() and engine._in_flight == [[], []]


class TestOneCompilePerTemplate:
    """Concurrent misses of one size-free template compile it once; the
    other sizes wait for that compile and specialize off it."""

    @staticmethod
    def ladder():
        def loss_at(rows):
            m, n = Dim("m", rows), Dim("n", COLS)
            X = Matrix("X", m, n, sparsity=0.05)
            return Sum((X - Vector("u", m) @ Vector("v", n).T) ** 2)

        return [loss_at(rows) for rows in (60, 90, 120, 180)]

    @staticmethod
    def all_at_once(compile_):
        ladder = TestOneCompilePerTemplate.ladder()
        start = threading.Barrier(len(ladder), timeout=30)
        errors = []

        def go(expr):
            start.wait()
            try:
                compile_(expr)
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        threads = [threading.Thread(target=go, args=(expr,)) for expr in ladder]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors

    def test_through_a_session(self):
        session = Session(config())
        self.all_at_once(session.compile)
        assert (session.compilations, session.template_hits) == (1, 3)

    def test_through_the_engine(self):
        engine = ServingEngine(shards=2, config=config())
        try:
            self.all_at_once(engine.plan_for)
            stats = engine.stats()
            assert (stats.compilations, stats.template_hits) == (1, 3)
        finally:
            engine.close()


class TestResultCacheAtTheDoor:
    """One engine-owned result cache, looked up on the caller's thread
    before anything is served or queued — its only lookup — and filled by
    every execution."""

    def test_a_repeat_resolves_before_submit_returns(self, monkeypatch):
        engine = ServingEngine(shards=2, config=config())
        try:
            expr, inputs = make_loss(0.05), make_inputs(seed=20)
            first = engine.submit(expr, inputs).result(timeout=30)
            observed = engine._latency.count
            calls = record_serving_threads(engine, monkeypatch)
            future = engine.submit(expr, dict(inputs))  # same value objects
            assert future.done()
            assert future.result() is first
            assert engine.queue.empty() and calls == []
            assert engine._latency.count == observed + 1
            stats = engine.stats()
            assert (stats.submitted, stats.served, stats.result_cache_hits) == (2, 2, 1)
            assert (stats.batches, stats.errors) == (1, 0)
        finally:
            engine.close()

    def test_batch_mate_repeats_execute_and_a_later_repeat_hits_the_door(self, monkeypatch):
        # Neither twin is answered yet when both pass the door, so both queue
        # behind the busy pool thread, drain as one batch and execute: the
        # door is the cache's one lookup.  A repeat after them is answered there.
        engine = ServingEngine(shards=1, config=config())
        try:
            expr, inputs = make_loss(0.05), make_inputs(seed=21)
            engine.warm([expr])
            held, release = hold_the_pool(engine, monkeypatch)
            calls = record_serving_threads(engine, monkeypatch)
            try:
                blocker = engine.submit(expr, make_inputs(seed=26))
                assert held.wait(30)  # the pool thread drained it and waits
                twins = [engine.submit(expr, inputs) for _ in range(2)]
                assert engine.queue.qsize() == 2
                assert not any(future.done() for future in twins)
            finally:
                release.set()
            blocker.result(timeout=30)
            first, second = (future.result(timeout=30) for future in twins)
            assert second is not first and second.scalar() == first.scalar()
            assert [len(batch) for _, batch in calls] == [1, 2]
            assert all(thread is engine._threads[0] for thread, _ in calls)
            stats = engine.stats()
            assert (stats.result_cache_hits, stats.served, stats.batched_requests) == (0, 3, 2)
            repeat = engine.submit(expr, inputs)
            assert repeat.done() and repeat.result() is second
            assert engine.stats().result_cache_hits == 1
        finally:
            engine.close()

    def test_an_equal_copy_of_any_one_input_misses(self):
        engine = ServingEngine(shards=1, config=config())
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

    def test_a_bind_error_is_a_miss_that_fails_and_counts_once(self):
        engine = ServingEngine(shards=1, config=config())
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
        engine = ServingEngine(shards=1, config=config())
        try:
            expr, inputs = make_loss(0.05), make_inputs(seed=24)
            engine.run(expr, inputs)
            with pytest.raises((DeadlineExceededError, QueueFullError)):
                engine.run(expr, inputs, deadline=1e-9)
            stats = engine.stats()
            assert (stats.sheds, stats.result_cache_hits) == (1, 0)
        finally:
            engine.close()

    def test_a_degraded_answer_repeated_at_the_door_counts_as_degraded(self):
        engine = ServingEngine(shards=1, config=config(), optimizer_budget=1e-9)
        try:
            expr, inputs = make_loss(0.05), make_inputs(seed=27)
            first = engine.run(expr, inputs)
            assert engine.run(expr, inputs) is first  # answered at the door
            stats = engine.stats()
            assert (stats.served, stats.result_cache_hits, stats.degraded) == (2, 1, 2)
            assert engine.health()["degraded_rate"] == 1.0
            assert engine.plan_for(expr).degraded
        finally:
            engine.close()


class TestOnlyExecutionsAreRequests:
    """``warm`` and ``plan_for`` compile on the calling thread and are no
    request; a request that cannot bind fails at the door and compiles
    nothing: every request that reaches a batch executes."""

    def test_unbindable_requests_fail_at_the_door_and_compile_nothing(self):
        engine = ServingEngine(shards=1, config=config())
        try:
            expr, inputs = make_loss(0.05), make_inputs(seed=60)
            for _ in range(3):
                with pytest.raises(PlanBindingError):
                    engine.run(expr, {})
            future = engine.submit(expr, {"X": inputs["X"]})  # u, v missing
            assert future.done() and isinstance(future.exception(), PlanBindingError)
            assert engine.queue.empty()
            assert engine.compilations == 0
            stats = engine.stats()
            assert (stats.submitted, stats.errors, stats.served, stats.batches) == (4, 4, 0, 0)
            want = execute(expr, inputs).scalar()
            assert engine.run(expr, inputs).scalar() == pytest.approx(want, rel=1e-12)
            assert engine.submit(expr, dict(inputs)).result(timeout=30).scalar() == (
                pytest.approx(want, rel=1e-12)
            )
        finally:
            engine.close()

    def test_warm_and_plan_for_are_no_requests(self):
        engine = ServingEngine(shards=1, config=config())
        try:
            assert engine.warm([make_loss(0.05), make_loss(0.9)]) == 2
            assert engine.plan_for(make_loss(0.05)).fingerprint
            stats = engine.stats()
            assert (stats.submitted, stats.served, stats.batches) == (0, 0, 0)
            assert (stats.compilations, stats.throughput) == (2, 0.0)
            assert engine._latency.count == 0
        finally:
            engine.close()

    def test_throughput_counts_from_the_first_request(self):
        engine = ServingEngine(shards=1, config=config())
        try:
            expr = make_loss(0.05)
            engine.warm([expr])
            time.sleep(0.2)
            start = time.perf_counter()
            engine.run(expr, make_inputs(seed=61))
            # first submit and last completion both fall inside [start, now]
            assert engine.stats().throughput >= 1.0 / (time.perf_counter() - start)
        finally:
            engine.close()

    def test_plan_for_a_renamed_twin_binds_the_twins_names(self):
        m, n = Dim("m", ROWS), Dim("n", COLS)
        base = make_loss(0.05)
        twin = Sum((Matrix("A", m, n, sparsity=0.05) - Vector("b", m) @ Vector("c", n).T) ** 2)
        assert signature_of(base).digest == signature_of(twin).digest
        engine = ServingEngine(shards=1, config=config())
        try:
            engine.warm([base])
            plan = engine.plan_for(twin)
            assert sorted(plan.input_names) == ["A", "b", "c"]
            inputs = make_inputs(seed=62)
            renamed = {"A": inputs["X"], "b": inputs["u"], "c": inputs["v"]}
            want = execute(base, inputs).scalar()
            assert plan.run(renamed).scalar() == pytest.approx(want, rel=1e-12)
            assert engine.compilations == 1
        finally:
            engine.close()

    def test_warm_and_plan_for_on_a_closed_engine_raise(self):
        engine = ServingEngine(shards=1, config=config())
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.plan_for(make_loss(0.05))
        with pytest.raises(EngineClosedError):
            engine.warm([make_loss(0.05)])
        assert engine.compilations == 0


INJECTORS = {
    # store rules that fire on every other IO
    "store": lambda: FaultInjector(
        [
            FaultRule("store.read", PlanStoreError, every=2),
            FaultRule("store.write", PlanStoreError, every=2),
        ]
    ),
    # an enabled optimizer rule that never comes due
    "optimizer": lambda: FaultInjector(
        [FaultRule("optimizer.saturate", OptimizerBudgetExceeded, start=10**6)]
    ),
}


@pytest.mark.parametrize("faults", sorted(INJECTORS))
class TestStoreFaultsChangeNoServing:
    """An injector whose rules reach only the store or the optimizer leaves
    serving as it is without one: the door answers repeats and families
    still stack."""

    def test_a_repeat_is_answered_at_the_door(self, faults, tmp_path, monkeypatch):
        engine = ServingEngine(
            shards=1, config=config(), store_path=str(tmp_path),
            fault_injector=INJECTORS[faults](),
        )
        try:
            expr, inputs = make_loss(0.05), make_inputs(seed=28)
            first = engine.run(expr, inputs)
            calls = record_serving_threads(engine, monkeypatch)
            future = engine.submit(expr, inputs)
            assert future.done() and future.result() is first
            assert engine.queue.empty() and calls == []
            assert engine.stats().result_cache_hits == 1
        finally:
            engine.close()

    def test_a_stackable_family_still_stacks(self, faults, tmp_path):
        m, n = Dim("m", 96), Dim("n", 64)
        A = la.Var("A", Shape(m, n))
        q = la.Var("q", Shape(n, Dim("one", 1)))
        expr = la.UnaryFunc("sigmoid", la.MatMul(A, q))
        rng = np.random.default_rng(8)
        pinned = MatrixValue(rng.random((96, 64)))
        vectors = [MatrixValue(rng.random((64, 1))) for _ in range(8)]
        engine = ServingEngine(
            shards=1, store_path=str(tmp_path), fault_injector=INJECTORS[faults]()
        )
        release = None
        try:
            plan = engine.plan_for(expr)
            busy, release = hold_first_pool_batch(engine)
            occupier = engine.submit(expr, {"A": pinned, "q": MatrixValue(rng.random((64, 1)))})
            assert busy.wait(60)
            futures = [engine.submit(expr, {"A": pinned, "q": vector}) for vector in vectors]
            release.set()
            occupier.result(timeout=60)
            for future, vector in zip(futures, vectors):
                want = plan.executable().execute(plan.bind({"A": pinned, "q": vector}))
                want = want.value.to_dense()
                assert np.array_equal(future.result(timeout=60).value.to_dense(), want)
            stats = engine.stats()
            assert stats.errors == 0
            assert stats.stacked_batches >= 1
            assert stats.stacked_requests == len(vectors)
        finally:
            if release is not None:
                release.set()
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
            ran = []
            run_tape = pool._run_tape
            pool._run_tape = lambda tape, values: ran.append(tape) or run_tape(tape, values)
            for root_name, root in workload.roots.items():
                plan = pool.plan_for(root)
                bound = {name: inputs[name] for name in plan.input_names}
                expected = execute_slots(
                    plan._entry.slot_plan, plan.bind(bound), ring=plan.ring
                ).value
                for got in (plan.run(bound).value, pool.run(root, bound).value):
                    assert got.is_sparse == expected.is_sparse, root_name
                    assert np.array_equal(got.to_dense(), expected.to_dense()), root_name
                # by identity: the engine ran the very object the plan runs
                assert ran[-1] is plan.executable(), root_name
        finally:
            pool.close()

    def test_a_stream_on_pinned_objects_runs_the_bare_executable(self):
        """Requests that rebind the same ``X`` with fresh vectors run the
        executable as ``plan.run`` does: its ``t(X)`` step, which reads
        ``X`` alone, is memoized per engine no more than any other."""
        m, n = Dim("m", ROWS), Dim("n", COLS)
        X, u, v = Matrix("X", m, n, sparsity=0.05), Vector("u", m), Vector("v", n)
        expr = X.T @ u + v
        engine = ServingEngine(shards=1, config=config())
        try:
            pinned = make_inputs(seed=40)["X"]
            plan = engine.plan_for(expr)
            for seed in range(41, 45):
                inputs = dict(make_inputs(seed), X=pinned)
                got = engine.run(expr, inputs).value
                want = plan.run(inputs).value
                assert np.array_equal(got.to_dense(), want.to_dense())
            stats = engine.stats()
            assert (stats.result_cache_hits, stats.step_reuse_hits) == (0, 0)
        finally:
            engine.close()


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

    def test_a_failing_execution_fails_the_same_way_and_leaves_reuse_sound(self):
        """A kernel error is a pure function of the inputs: it repeats
        identically, and the pinned steps it memoized before failing serve
        the next, valid execution correctly."""
        m = Dim("m", ROWS)
        X = Matrix("X", m, Dim("n", COLS), sparsity=0.05)
        u = Vector("u", m)
        expr = X.T @ u
        tape, signature = self.build(expr)
        reuse = StepReuseCache()
        inputs = make_inputs(seed=2)
        rng = np.random.default_rng(3)
        bad = dict(inputs, u=MatrixValue.random_dense(ROWS + 1, 1, rng))
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as error:
                tape.execute([bad[name] for name in signature.var_order], reuse)
            messages.append(str(error.value))
        assert messages[0] == messages[1]
        got = tape.execute([inputs[name] for name in signature.var_order], reuse).to_dense()
        np.testing.assert_allclose(got, execute(expr, inputs).to_dense(), rtol=1e-12, atol=1e-12)
        assert reuse.hits >= 2  # the transpose of X was reused, not recomputed

    def test_rejects_non_slot_expressions(self):
        from repro.runtime.engine import ExecutionError

        expr = make_loss(0.05)
        with pytest.raises(ExecutionError):
            TapePlan(expr, 3)  # named variables, not slots
