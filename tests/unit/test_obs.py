"""Unit tests for the observability subsystem (:mod:`repro.obs`).

Covers the three pillars in isolation: the metrics registry (instrument
semantics, exposition round-trip, the enabled/disabled switch), trace
spans (nesting, cross-thread context handoff, JSON and Chrome exports),
and the tape profiler (per-step attribution reconciling with the plan's
cost model), plus the opt-in logging configuration.
"""

import json
import logging
import math
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.lang import Dim, Matrix, Sum, Vector
from repro.obs.metrics import MetricsRegistry, parse_exposition
from repro.obs.trace import Tracer, span_tree, spans_from_json
from repro.runtime import MatrixValue


@pytest.fixture(autouse=True)
def _clean_global_obs():
    """Global obs state must never leak between tests."""
    obs.reset()
    yield
    obs.reset()


class TestCounters:
    def test_counter_is_monotonic_and_get_or_create(self):
        registry = MetricsRegistry(namespace="t")
        counter = registry.counter("requests_total", "help text")
        assert registry.counter("requests_total") is counter
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labels_are_part_of_identity(self):
        registry = MetricsRegistry(namespace="t")
        ok = registry.counter("req_total", result="ok")
        err = registry.counter("req_total", result="error")
        assert ok is not err
        ok.inc(2)
        err.inc()
        # kwarg order never creates a duplicate series
        assert registry.counter("req_total", result="ok").value == 2

    def test_kind_collision_raises(self):
        registry = MetricsRegistry(namespace="t")
        registry.counter("x_total")
        with pytest.raises(TypeError):
            registry.histogram("x_total")

    def test_disabled_registry_is_a_noop(self):
        registry = MetricsRegistry(namespace="t", enabled=False)
        counter = registry.counter("x_total")
        hist = registry.histogram("lat_seconds")
        counter.inc()
        hist.observe(1.0)
        assert counter.value == 0
        assert hist.count == 0
        # flipping the switch turns the same objects live
        registry.enabled = True
        counter.inc()
        assert counter.value == 1


class TestHistograms:
    def test_quantiles_are_nearest_rank(self):
        registry = MetricsRegistry(namespace="t")
        hist = registry.histogram("lat_seconds")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.count == 100
        assert hist.quantile(0.5) == 50.0
        assert hist.quantile(0.95) == 95.0
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 100.0

    def test_reservoir_is_bounded_but_totals_are_monotonic(self):
        registry = MetricsRegistry(namespace="t")
        hist = registry.histogram("lat_seconds", reservoir=10)
        for value in range(100):
            hist.observe(float(value))
        assert hist.count == 100  # monotonic total
        assert hist.sum == float(sum(range(100)))
        # the window only holds the most recent ten observations
        assert hist.quantile(0.0) == 90.0

    def test_timer_observes_elapsed_seconds(self):
        registry = MetricsRegistry(namespace="t")
        hist = registry.histogram("op_seconds")
        with hist.time():
            time.sleep(0.01)
        assert hist.count == 1
        assert hist.sum >= 0.005

    def test_snapshot_shape(self):
        registry = MetricsRegistry(namespace="t")
        hist = registry.histogram("lat_seconds")
        hist.observe(2.0)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["p50"] == 2.0
        assert snap["min"] == snap["max"] == 2.0


class TestExposition:
    def test_exposition_round_trips_through_the_parser(self):
        registry = MetricsRegistry(namespace="repro")
        registry.counter("compile_total", "Compiles").inc(3)
        registry.counter("req_total", "Requests", result="ok").inc(7)
        hist = registry.histogram("lat_seconds", "Latency")
        hist.observe(0.25)
        text = registry.exposition()
        parsed = parse_exposition(text)
        assert parsed["repro_compile_total"] == 3
        assert parsed['repro_req_total{result="ok"}'] == 7
        assert parsed["repro_lat_seconds_count"] == 1
        assert parsed["repro_lat_seconds_sum"] == 0.25
        assert parsed['repro_lat_seconds{quantile="0.5"}'] == 0.25
        # HELP/TYPE comment lines present
        assert "# HELP repro_compile_total Compiles" in text
        assert "# TYPE repro_lat_seconds histogram" in text

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_exposition("this is not a metric line\n")

    def test_special_values_render(self):
        registry = MetricsRegistry(namespace="t")
        registry.counter("c_total").inc(math.inf)
        parsed = parse_exposition(registry.exposition())
        assert parsed["t_c_total"] == math.inf

    def test_registry_snapshot_is_json_serializable(self):
        registry = MetricsRegistry(namespace="t")
        registry.counter("c_total").inc()
        registry.histogram("h_seconds").observe(1.0)
        json.dumps(registry.snapshot())


class TestTracer:
    def test_nesting_via_context(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        spans = tracer.finished()
        assert [s.name for s in spans] == ["inner", "outer"]
        inner, outer_span = spans
        assert inner.parent_id == outer_span.span_id
        assert inner.trace_id == outer_span.trace_id
        assert outer.context() is not None

    def test_explicit_parent_beats_ambient_context(self):
        tracer = Tracer()
        with tracer.span("ambient"):
            with tracer.span("root", parent=None):
                pass
        root = next(s for s in tracer.finished() if s.name == "root")
        assert root.parent_id is None

    def test_capture_carries_context_across_threads(self):
        tracer = Tracer()
        with tracer.span("request") as request_span:
            context = tracer.capture()

        def worker():
            with tracer.span("served", parent=context):
                pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        served = next(s for s in tracer.finished() if s.name == "served")
        request = next(s for s in tracer.finished() if s.name == "request")
        assert served.parent_id == request_span.context().span_id
        assert served.thread != request.thread

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x") as span:
            span.set_attribute("k", "v")
        assert tracer.finished() == []
        assert span.context() is None

    def test_error_attribute_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("bad")
        span = tracer.finished()[0]
        assert "RuntimeError" in str(span.attributes["error"])

    def test_json_export_round_trips(self):
        tracer = Tracer()
        with tracer.span("a", key="value"):
            with tracer.span("b"):
                pass
        document = tracer.export_json()
        spans = spans_from_json(document)
        assert {s.name for s in spans} == {"a", "b"}
        original = {s.span_id: s for s in tracer.finished()}
        for span in spans:
            assert span.attributes == original[span.span_id].attributes
            assert span.parent_id == original[span.span_id].parent_id
        tree = span_tree(spans)
        a = next(s for s in spans if s.name == "a")
        assert [s.name for s in tree[a.span_id]] == ["b"]

    def test_json_export_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            spans_from_json(json.dumps({"version": 999, "spans": []}))

    def test_chrome_export_shape(self):
        tracer = Tracer()
        with tracer.span("compile"):
            pass
        document = json.loads(tracer.export_chrome())
        events = document["traceEvents"]
        assert len(events) == 1
        event = events[0]
        assert event["name"] == "compile"
        assert event["ph"] == "X"
        assert event["dur"] >= 0

    def test_span_buffer_is_bounded(self):
        tracer = Tracer(max_spans=4)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.finished()) == 4
        assert tracer.dropped == 6


class TestGlobalToggle:
    def test_enable_disable_reset(self):
        assert not obs.is_enabled()
        counter = obs.registry().counter("toggle_test_total")
        counter.inc()
        assert counter.value == 0  # disabled: a no-op
        obs.enable()
        assert obs.is_enabled()
        counter.inc()
        assert counter.value == 1
        with obs.tracer().span("alive"):
            pass
        assert len(obs.tracer().finished()) == 1
        obs.disable()
        counter.inc()
        assert counter.value == 1  # data kept, recording stopped
        obs.reset()
        assert obs.tracer().finished() == []


class TestLogging:
    def test_null_handler_by_default(self):
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)

    def test_configure_logging_is_idempotent(self):
        before = len(logging.getLogger("repro").handlers)
        first = obs.configure_logging()
        second = obs.configure_logging()
        try:
            handlers = logging.getLogger("repro").handlers
            assert len(handlers) == before + 1
            assert second in handlers and first not in handlers
        finally:
            obs.disable_logging()
        assert len(logging.getLogger("repro").handlers) == before

    def test_reliability_events_route_through_repro_logger(self, caplog):
        from repro.reliability import FaultInjector, FaultRule, ShardCrashError

        faults = FaultInjector([FaultRule("shard.execute", ShardCrashError, count=1)])
        with caplog.at_level(logging.INFO, logger="repro"):
            with pytest.raises(ShardCrashError):
                faults.check("shard.execute")
        assert any(
            r.name.startswith("repro.") and "injected fault at shard.execute" in r.message
            for r in caplog.records
        )


@pytest.fixture(scope="module")
def loss_session():
    """One session + compiled loss shared by the profiler tests.

    Profiling does not depend on the extractor, so this uses the suite's
    usual greedy preset rather than paying the default ILP extraction.
    """
    from repro.api import Session
    from repro.optimizer import OptimizerConfig

    m, n = Dim("m", 40), Dim("n", 20)
    X = Matrix("X", m, n, sparsity=0.1)
    u, v = Vector("u", m), Vector("v", n)
    expr = Sum((X - u @ v.T) ** 2)
    rng = np.random.default_rng(0)
    inputs = {
        "X": MatrixValue.random_sparse(40, 20, 0.1, rng),
        "u": MatrixValue.random_dense(40, 1, rng),
        "v": MatrixValue.random_dense(20, 1, rng),
    }
    session = Session(OptimizerConfig.sampling_greedy())
    session.compile(expr)
    return session, expr, inputs


@pytest.fixture(scope="module")
def loss_plan(loss_session):
    session, expr, inputs = loss_session
    return session.compile(expr), inputs


class TestTapeProfiler:
    def test_profile_reconciles_with_cost_model(self, loss_plan):
        plan, inputs = loss_plan
        report = plan.profile(inputs, runs=3)
        assert report.runs == 3
        assert report.steps, "a non-trivial plan must have tape steps"
        # every step ran exactly `runs` times and accumulated real time
        for step in report.steps:
            assert step.calls == 3
            assert step.seconds >= 0.0
        assert report.total_seconds == pytest.approx(
            sum(step.seconds for step in report.steps)
        )
        # predicted total matches the plan's own cost-model estimate for
        # the steps that carry plan nodes (constants predict nothing)
        predicted = [s.predicted_cost for s in report.steps if s.predicted_cost]
        assert predicted and report.predicted_total == pytest.approx(sum(predicted))
        # measured nnz is populated from real execution values
        assert any(step.nnz for step in report.steps)

    def test_profile_surfaces_in_explain_and_to_dict(self, loss_session):
        session, expr, inputs = loss_session
        plan = session.compile(expr)  # a cache hit: a fresh, unprofiled view
        assert "profile" not in plan.explain()
        plan.profile(inputs)
        text = plan.explain()
        assert "predicted cost vs measured" in text
        assert "cost%" in text
        record = plan.to_dict()
        assert record["profile"]["runs"] == 1
        json.dumps(record["profile"])

    def test_profile_runs_do_not_count_toward_plan_stats(self, loss_plan):
        plan, inputs = loss_plan
        runs_before = plan.stats.executions
        plan.profile(inputs, runs=2)
        assert plan.stats.executions == runs_before

    def test_profile_rejects_bad_runs(self, loss_plan):
        plan, inputs = loss_plan
        with pytest.raises(ValueError):
            plan.profile(inputs, runs=0)

    def test_table_includes_headline_columns(self, loss_plan):
        plan, inputs = loss_plan
        report = plan.profile(inputs)
        lines = report.table()
        header = lines[0]
        for column in ("step", "op", "time%", "cost%", "pred cost", "nnz"):
            assert column in header
        assert lines[-1].startswith("  total" ) or "total" in lines[-1]
