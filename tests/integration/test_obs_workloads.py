"""Integration: observability across the five evaluation workloads.

Cost-model validation is the profiler's reason to exist: for every root of
ALS, GLM, SVM, MLR and PNMF, ``CompiledPlan.profile()`` must produce a
predicted-cost-vs-measured table whose predictions come from the same
:class:`~repro.cost.la_cost.LACostModel` the extractor optimized under,
and ``explain()`` must surface it.  The trace exports must round-trip
(JSON and Chrome-trace) with spans covering both the compile phases and
the serve path.
"""

import json

import pytest

from repro import obs
from repro.api import Session
from repro.lang import dag
from repro.optimizer import OptimizerConfig
from repro.serve import ServingEngine
from repro.workloads import get_workload, workload_names

CONFIG = OptimizerConfig.sampling_greedy()


@pytest.fixture(autouse=True)
def _obs_enabled():
    obs.reset()
    obs.enable()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def session():
    return Session(CONFIG)


@pytest.mark.parametrize("name", workload_names())
def test_profile_validates_cost_model_on_workload(name, session):
    """Every root's profile table joins predicted cost to measured time."""
    workload = get_workload(name, "S")
    inputs = workload.inputs(seed=0)
    for root_name, plan in workload.session_plans(session).items():
        report = plan.profile({k: inputs[k] for k in plan.input_names})
        label = f"{name}/{root_name}"
        assert report.steps, f"{label}: empty profile"
        assert report.total_seconds > 0.0, label
        # at least one step must carry a cost-model prediction (constants
        # and pure-structural steps legitimately predict nothing)
        priced = [s for s in report.steps if s.predicted_cost is not None]
        assert priced, f"{label}: no step joined the cost model"
        assert report.predicted_total > 0.0, label
        # measured execution populated real output statistics
        assert any(s.cells for s in report.steps), label
        # the table renders and explain() carries it
        text = plan.explain()
        assert "predicted cost vs measured" in text, label
        assert "cost%" in text, label
        # the serialized record round-trips through JSON
        record = json.loads(json.dumps(plan.to_dict()))
        assert record["profile"]["steps"], label


def test_trace_exports_round_trip_across_compile_and_serve():
    """One trace covers compile phases and serve path; both exports parse."""
    engine = ServingEngine(shards=2, config=CONFIG)
    try:
        for name in workload_names():
            workload = get_workload(name, "S")
            inputs = workload.inputs(seed=0)
            for root in workload.roots.values():
                bound = {v.name: inputs[v.name] for v in dag.variables(root)}
                engine.run(root, bound)
    finally:
        engine.close()
    spans = obs.tracer().finished()
    names = {span.name for span in spans}
    for required in (
        "compile",
        "compile.lower",
        "compile.saturate",
        "compile.extract",
        "compile.lift",
        "serve.enqueue",
        "serve.batch",
        "serve.request",
        "serve.execute",
    ):
        assert required in names, f"missing span: {required}"

    # JSON round-trip preserves every span field
    restored = obs.spans_from_json(obs.tracer().export_json())
    assert len(restored) == len(spans)
    original = {span.span_id: span for span in spans}
    for span in restored:
        source = original[span.span_id]
        assert span.name == source.name
        assert span.parent_id == source.parent_id
        assert span.trace_id == source.trace_id
        assert span.attributes == source.attributes
        assert span.duration == pytest.approx(source.duration)

    # Chrome export: one complete event per span, microsecond timestamps
    chrome = json.loads(obs.tracer().export_chrome())
    events = chrome["traceEvents"]
    assert len(events) == len(spans)
    assert all(event["ph"] == "X" for event in events)
    assert all(event["dur"] >= 0 for event in events)

    # compile phases nest under their compile span
    compiles = {s.span_id for s in spans if s.name == "compile"}
    phases = [s for s in spans if s.name.startswith("compile.")]
    assert phases
    for phase in phases:
        assert phase.parent_id in compiles

    # "why did saturation stop here" is answerable from the span alone, and
    # the new stop reason is a counter label like the other four
    saturations = [s for s in spans if s.name == "compile.saturate"]
    plateaus = [s for s in saturations if s.attributes["stop_reason"] == "plateau"]
    assert plateaus and all(s.attributes["stale_iterations"] == 3 for s in plateaus)
    assert all(s.attributes["best_cost"] > 0 for s in saturations if s.attributes["enodes"] > 8)
    counted = obs.registry().counter("saturation_runs_total", stop_reason="plateau").value
    assert counted == len(plateaus)
