"""Observability through the serving layer: spans, histogram, exposition.

The serving-side contract of :mod:`repro.obs`: the ``serve.request`` span
parents to its submit-side ``serve.enqueue`` span because the captured
context rides on the :class:`~repro.serve.worker.ShardRequest` — so
parentage must survive everything that can happen to a request between
submit and answer: micro-batching with strangers and the hand-off to a pool
thread.  Latency quantiles come from the
engine-owned histogram, and ``metrics_text()`` parses as Prometheus text
exposition.
"""

import logging

import numpy as np
import pytest

from repro import obs
from repro.api.plan import PlanBindingError
from repro.lang import Dim, Matrix, Sum, Vector
from repro.optimizer import OptimizerConfig
from repro.runtime import ExecutionError, MatrixValue
from repro.serve import ServingEngine

ROWS, COLS = 60, 30


@pytest.fixture(autouse=True)
def _obs_enabled():
    obs.reset()
    obs.enable()
    yield
    obs.reset()


def make_loss(sparsity=0.05):
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


def spans_by_name(name):
    return [s for s in obs.tracer().finished() if s.name == name]


def poison_the_tape(engine, monkeypatch, poison):
    """Executions that bind the ``poison`` value raise ExecutionError."""
    run_tape = engine._run_tape

    def failing(tape, values):
        if any(value is poison for value in values):
            raise ExecutionError("kernel rejected its operand")
        return run_tape(tape, values)

    monkeypatch.setattr(engine, "_run_tape", failing)


def assert_request_parents_enqueue():
    """Every serve.request span must parent to a serve.enqueue span."""
    enqueues = {s.span_id: s for s in spans_by_name("serve.enqueue")}
    requests = spans_by_name("serve.request")
    assert requests, "no serve.request spans recorded"
    for request in requests:
        assert request.parent_id in enqueues, (
            f"serve.request span lost its submit-side parent: {request!r}"
        )
        assert request.trace_id == enqueues[request.parent_id].trace_id
    return requests


class TestServeSpans:
    def test_parentage_survives_micro_batching(self):
        """Requests batched together keep their own submit-side parents."""
        engine = ServingEngine(shards=1, config=config())
        try:
            expr = make_loss()
            engine.warm([expr])
            # Submit a burst so the one pool thread drains them in batches.
            input_sets = [make_inputs(seed) for seed in range(8)]
            futures = [engine.submit(expr, inputs) for inputs in input_sets]
            for future in futures:
                future.result(timeout=60)
        finally:
            engine.close()
        requests = assert_request_parents_enqueue()
        assert len(requests) == 9  # the warm() compile-only request plus 8
        # each request has its own distinct trace (nothing was coalesced)
        assert len({s.trace_id for s in requests}) == 9
        # the worker recorded batch spans, and at least one request span
        # ran inside a batch that held strangers
        batches = spans_by_name("serve.batch")
        assert batches
        assert sum(int(s.attributes["size"]) for s in batches) >= 8
        # serve-side spans ran on the pool thread, not the submitter's
        enqueue_threads = {s.thread for s in spans_by_name("serve.enqueue")}
        request_threads = {s.thread for s in requests}
        assert request_threads.isdisjoint(enqueue_threads)

    def test_execute_span_nests_under_request_span(self):
        engine = ServingEngine(shards=1, config=config())
        try:
            engine.run(make_loss(), make_inputs(0))
        finally:
            engine.close()
        requests = {s.span_id for s in spans_by_name("serve.request")}
        executes = spans_by_name("serve.execute")
        assert executes
        for span in executes:
            assert span.parent_id in requests

    def test_a_failed_request_keeps_its_parent_and_marks_the_error(self, monkeypatch):
        """A request whose execution fails still parents to its enqueue
        span; its serve.request span says error and serve.execute names it."""
        engine = ServingEngine(shards=1, config=config())
        try:
            expr, bad = make_loss(), make_inputs(3)
            engine.warm([expr])
            poison_the_tape(engine, monkeypatch, bad["u"])
            obs.tracer().clear()
            with pytest.raises(ExecutionError):
                engine.submit(expr, bad).result(timeout=30)
        finally:
            engine.close()
        (request,) = assert_request_parents_enqueue()
        assert request.attributes["result"] == "error"
        (execute_span,) = spans_by_name("serve.execute")
        assert execute_span.parent_id == request.span_id
        assert execute_span.attributes["error"] == "ExecutionError"

    def test_door_hit_request_span_follows_its_enqueue_span(self):
        """A repeat answered at the door opens its serve.request span after
        serve.enqueue closed, parented to it, so a caller's span joins both."""
        engine = ServingEngine(shards=1, config=config())
        try:
            expr, inputs = make_loss(), make_inputs(2)
            engine.run(expr, inputs)
            obs.tracer().clear()
            with obs.tracer().span("client.request", parent=None) as carrier:
                assert engine.submit(expr, inputs).done()
        finally:
            engine.close()
        (request,) = assert_request_parents_enqueue()
        (enqueue,) = spans_by_name("serve.enqueue")
        assert enqueue.parent_id == carrier.context().span_id
        assert request.attributes["cache"] == "result"
        names = [s.name for s in obs.tracer().finished()]
        assert names.index("serve.enqueue") < names.index("serve.request")
        # start_time is wall clock and duration a perf_counter delta: allow
        # for the two clocks' resolution, not for an overlap
        assert request.start_time >= enqueue.start_time + enqueue.duration - 1e-4
        assert not spans_by_name("serve.execute")
        assert not spans_by_name("serve.batch")


class TestLatencyHistogram:
    def test_engine_quantiles_come_from_the_shared_histogram(self):
        engine = ServingEngine(shards=2, config=config())
        try:
            expr = make_loss()
            engine.warm([expr])
            for seed in range(6):
                engine.run(expr, make_inputs(seed))
            stats = engine.stats()
            assert stats.served == 7  # the warm() compile-only request plus 6
            assert stats.p50_latency > 0.0
            assert stats.p95_latency >= stats.p50_latency
            assert engine._latency.count == 7
            assert stats.p50_latency == engine._latency.quantile(0.5)
        finally:
            engine.close()

    def test_histogram_works_with_global_obs_disabled(self):
        """stats() p50/p95 must not depend on the global opt-in."""
        obs.disable()
        engine = ServingEngine(shards=1, config=config())
        try:
            engine.run(make_loss(), make_inputs(0))
            stats = engine.stats()
            assert stats.p50_latency > 0.0
        finally:
            engine.close()

    def test_a_failed_request_is_not_observed(self, monkeypatch):
        """The histogram times answers: a failed request is counted as an
        error, not as a latency sample."""
        engine = ServingEngine(shards=1, config=config())
        try:
            expr, bad = make_loss(), make_inputs(0)
            poison_the_tape(engine, monkeypatch, bad["u"])
            with pytest.raises(ExecutionError):
                engine.run(expr, bad)
            engine.run(expr, make_inputs(1))
            engine.run(expr, make_inputs(2))
            stats = engine.stats()
            assert (stats.served, stats.errors) == (2, 1)
            assert engine._latency.count == 2
        finally:
            engine.close()


class TestMetricsText:
    def test_exposition_parses_and_counts_requests(self):
        engine = ServingEngine(shards=2, config=config())
        try:
            expr = make_loss()
            for seed in range(3):
                engine.run(expr, make_inputs(seed))
            text = engine.metrics_text()
        finally:
            engine.close()
        parsed = obs.parse_exposition(text)
        assert parsed["repro_serve_latency_seconds_count"] == 3
        assert parsed['repro_serve_requests_total{result="ok"}'] == 3
        assert parsed["repro_compile_total"] >= 1
        assert parsed["repro_plan_cache_misses_total"] >= 1

    def test_every_record_series_reads_its_record_with_obs_disabled(self, tmp_path):
        """metrics_text() renders the stats records, not a disabled mirror.

        Two requests served, one shed and one corrupt store entry: each
        serve, plan-cache, session and plan-store series must equal the
        record it is rendered from, though the global registry is off.
        """
        from repro.api import Session
        from repro.serialize import PlanStore
        from repro.serve import QueueFullError

        obs.disable()
        store = PlanStore(tmp_path, config())
        Session(config(), store=store).compile(make_loss())
        (entry,) = [path for path in tmp_path.glob("*.json") if path.name != "manifest.json"]
        entry.write_text(entry.read_text()[:64])
        engine = ServingEngine(
            shards=2,
            config=config(),
            store=PlanStore(tmp_path, config()),
        )
        try:
            expr = make_loss()
            engine.run(expr, make_inputs(0))  # corrupt entry, alias hit
            engine.run(expr, make_inputs(1))
            with pytest.raises(QueueFullError):
                engine.submit(expr, make_inputs(2), deadline=1e-9).result(timeout=60)
            parsed = obs.parse_exposition(engine.metrics_text())
            stats, record = engine.stats(), engine.describe()
        finally:
            engine.close()
        cache, disk = record["cache"], record["store"]
        expected = {
            'repro_serve_requests_total{result="ok"}': stats.served,
            'repro_serve_requests_total{result="error"}': stats.errors,
            'repro_serve_requests_total{result="shed"}': stats.sheds,
            "repro_serve_degraded_total": stats.degraded,
            "repro_serve_batches_total": stats.batches,
            "repro_plan_cache_hits_total": cache["hits"],
            "repro_plan_cache_misses_total": cache["misses"],
            "repro_plan_cache_evictions_total": cache["evictions"],
            "repro_plan_cache_template_hits_total": cache["template_hits"],
            "repro_session_compilations_total": stats.compilations,
            "repro_session_degraded_total": cache["degraded_compilations"],
            "repro_session_drift_recompiles_total": cache["recompiles"],
            'repro_plan_store_loads_total{result="hit"}': disk["hits"],
            'repro_plan_store_loads_total{result="miss"}': disk["misses"],
            'repro_plan_store_loads_total{result="error"}': disk["load_errors"],
            'repro_plan_store_template_loads_total{result="hit"}': disk["template_hits"],
            'repro_plan_store_template_loads_total{result="miss"}': disk["template_misses"],
            'repro_plan_store_writes_total{result="ok"}': disk["writes"],
            'repro_plan_store_writes_total{result="error"}': disk["write_errors"],
            "repro_plan_store_evictions_total": disk["evictions"],
        }
        rendered = {
            name
            for name in parsed
            if name.startswith(("repro_serve_", "repro_plan_", "repro_session_"))
            and not name.startswith("repro_serve_latency_seconds")
        }
        assert rendered == set(expected)
        assert {name: parsed[name] for name in expected} == expected
        # the mix reached the counters it was built for
        assert (stats.served, stats.sheds) == (2, 1)
        # the corrupt entry is a load error; its intact template alias served
        assert disk["load_errors"] == disk["template_hits"] == cache["template_hits"] == 1

    def test_client_errors_are_counted_and_mark_nothing_sick(self):
        """Missing inputs are the client's error: counted as errors, while
        the engine stays ready and exports no sickness series."""
        engine = ServingEngine(shards=2, config=config())
        try:
            expr = make_loss()
            for _ in range(3):
                with pytest.raises(PlanBindingError):
                    engine.run(expr, {})
            engine.run(expr, make_inputs(0))
            parsed = obs.parse_exposition(engine.metrics_text())
            health = engine.health()
        finally:
            engine.close()
        assert parsed['repro_serve_requests_total{result="error"}'] == 3
        assert parsed['repro_serve_requests_total{result="ok"}'] == 1
        assert health["ready"]
        assert not [
            name for name in parsed if "breaker" in name or "rerout" in name
        ]

    def test_no_retry_or_restart_series_is_exported(self, monkeypatch):
        """A failure and a shed leave the retry and restart records at 0 and
        put no retry or restart series in the exposition or health()."""
        from repro.serve import DeadlineExceededError

        engine = ServingEngine(shards=1, config=config())
        try:
            expr, bad = make_loss(), make_inputs(0)
            engine.warm([expr])
            poison_the_tape(engine, monkeypatch, bad["u"])
            with pytest.raises(ExecutionError):
                engine.run(expr, bad)
            with pytest.raises(DeadlineExceededError):
                engine.run(expr, make_inputs(1), deadline=-1.0)
            parsed = obs.parse_exposition(engine.metrics_text())
            stats, health = engine.stats(), engine.health()
        finally:
            engine.close()
        assert (stats.errors, stats.sheds) == (1, 1)
        assert (stats.retries, stats.restarts) == (0, 0)
        assert not [name for name in parsed if "retr" in name or "restart" in name]
        assert set(health) == {"live", "ready", "queue_depth", "degraded_rate"}

    def test_an_escaping_error_is_logged(self, monkeypatch, caplog):
        engine = ServingEngine(shards=1, config=config())

        def broken(batch):
            raise RuntimeError("serving defect")

        monkeypatch.setattr(engine, "_serve_batch", broken)
        with caplog.at_level(logging.ERROR, logger="repro"):
            try:
                with pytest.raises(RuntimeError, match="serving defect"):
                    engine.submit(make_loss(), make_inputs(0)).result(timeout=30)
            finally:
                engine.close()
        (record,) = [r for r in caplog.records if "serving a batch failed" in r.getMessage()]
        assert record.levelno == logging.ERROR
        assert record.exc_info[1].args == ("serving defect",)


class TestProfilerReconciliation:
    def test_profiler_totals_reconcile_with_span_durations(self):
        """The profiler's per-step total is bounded by the run's wall span."""
        from repro.api import Session

        session = Session(config())
        plan = session.compile(make_loss())
        inputs = make_inputs(0)
        with obs.tracer().span("profile.run"):
            report = plan.profile(inputs, runs=3)
        span = next(s for s in obs.tracer().finished() if s.name == "profile.run")
        assert report.runs == 3
        assert 0.0 < report.total_seconds <= span.duration
        # per-step seconds sum to the report total (the same accumulators)
        assert report.total_seconds == pytest.approx(
            sum(step.seconds for step in report.steps)
        )
