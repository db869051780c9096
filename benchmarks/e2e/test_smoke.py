"""Smoke test of the benchmark itself (collected by the tier-1 command).

Each workload runs in-process in *smoke mode*: size S everywhere, one 0.3 s
round, one layer sweep, traced, one set-up.  Smoke numbers mean nothing and
are never written anywhere — ``out_dir=None`` keeps even the run record and
the trace file off the disk.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO = os.path.dirname(os.path.dirname(_HERE))
for _path in (os.path.join(_REPO, "src"), os.path.dirname(_HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from e2e import catalog, spans  # noqa: E402
from e2e.run import result_line, run_workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

#: per workload, per-layer metrics that must come out non-zero in a traced run
MUST_MEASURE = {
    "compile_cold": ("egraph.saturate_ms", "egraph.enodes", "optimizer.compile_ms",
                     "extract.ilp_ms", "serialize.codec.bytes", "runtime.codegen.source_bytes",
                     "trace.compile_accounted_share"),
    "exec_warm": ("runtime.interp_ms", "runtime.tape_ms", "runtime.codegen.fused_ms",
                  "runtime.tape.steps", "runtime.intermediate_cells"),
    "serve_unique": ("serve.request_ms", "serve.execute_ms", "serve.batches",
                     "trace.serve_accounted_share", "trace.joined_share"),
    "serve_burst": ("serve.request_ms", "serve.stacked_batches",
                    "serve.result_cache_hit_share", "trace.joined_share"),
}


def test_manifest_matches_catalog_and_contract():
    with open(os.path.join(_REPO, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert manifest == catalog.manifest()
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 2 <= len(manifest["workloads"]) <= 8
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in manifest[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert catalog.EXACT <= set(catalog.PER_LAYER_UNITS)


@pytest.mark.parametrize("workload", catalog.WORKLOAD_NAMES)
def test_workload_smoke(workload):
    record = run_workload(workload, seed=7, seconds=0.3, trace=True, smoke=True, out_dir=None)
    assert record.failed == 0 and record.attempted >= 1

    # every named metric is present, with a unit, under both --trace values
    traced = result_line(record, trace=True)
    assert set(traced["metrics"]) == set(catalog.PER_LAYER_UNITS)
    untraced = result_line(record, trace=False)
    assert set(untraced["metrics"]) == set(catalog.END_TO_END_UNITS)
    for metrics in (traced["metrics"], untraced["metrics"]):
        assert all(m["unit"] and isinstance(m["value"], float) for m in metrics.values())
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    assert traced["correct"] and traced["failed"] == 0
    for name in MUST_MEASURE[workload]:
        assert record.layers[name] > 0, name
    assert record.layers["obs.tracing_overhead"] > 0

    if workload == "serve_unique":
        engine = record.notes["engine"]
        assert engine["result_cache_hits"] == 0 and engine["stacked_requests"] == 0
    if workload == "serve_burst":
        engine = record.notes["engine"]
        assert engine["result_cache_hits"] > 0 and engine["stacked_requests"] > 0
    if workload.startswith("serve"):
        assert record.layers["trace.joined_share"] > 0.9


def test_span_bookkeeping():
    recorder = spans.SpanRecorder()
    root = recorder.add("root", 0.0, 10.0)
    recorder.add("a", 1.0, 4.0, parent=root)
    recorder.add("b", 3.0, 6.0, parent=root)  # overlaps a: covered once
    recorder.add("late", 9.0, 12.0, parent=root)  # clipped to the parent
    selfs = spans.self_times(recorder.spans)
    assert selfs[root] == pytest.approx(10.0 - 5.0 - 1.0)
    assert min(selfs.values()) >= 0
    assert spans.orphans(recorder.spans) == []
    recorder.add("lost", 0.0, 1.0, parent=999)
    assert [s.name for s in spans.orphans(recorder.spans)] == ["lost"]
