"""Fused-kernel benchmark — interpreter vs. instruction tape vs. codegen.

The code-generation tier (:mod:`repro.runtime.codegen`) promises *bitwise
identical results for strictly less work*: elementwise chains fold into
their consuming contraction so interior temporaries are never wrapped,
compacted, or materialized as plan values.  This harness measures that
promise on three executors over identical inputs:

* **interpreter** — :meth:`Executor.execute_slots`, the reference DAG
  walker (the parity oracle);
* **tape** — :class:`TapePlan`, the plain positional instruction tape
  (one kernel call + value wrap per step);
* **fused** — :class:`FusedPlan` from :func:`compile_fused`, what
  ``plan.run`` and the serving shards execute: regions compiled to python
  source with interiors on raw ndarrays.

Workloads are (a) synthetic dense elementwise chains sized to the serving
sweet spot (the fusion planner's target shape) and (b) every root of the
five paper workloads at size S, compiled through a real :class:`Session`
so slot plans, sparsity hints, and ring selection are exactly production's.
A third record measures columnwise micro-batch stacking: K same-template
matvec requests served as one matmat, the serving tier's transform.

In-bench acceptance (all hard-asserted here, not just reported):

* every fused execution is **bitwise identical** to the tape's
  (``np.array_equal`` on dense values + matching representation);
* every plan with a fused region materializes **strictly fewer
  intermediate cells** than its tape;
* the best dense-chain fused-vs-tape speedup >= ``MIN_FUSED_SPEEDUP``.

Writes ``BENCH_kernels.json`` (headline: best dense fused-vs-tape
throughput ratio ``fused_vs_tape_speedup``) for the CI bench-gate.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest

from repro.api.session import Session
from repro.lang import expr as la
from repro.lang.dims import Dim, Shape
from repro.obs.profile import TapeProfiler
from repro.runtime.codegen import compile_fused
from repro.runtime.data import MatrixValue
from repro.runtime.engine import Executor
from repro.runtime.tape import TapePlan
from repro.workloads import get_workload, workload_names

from benchmarks.reporting import format_table, write_json, write_report

#: acceptance bar: best dense-chain fused-vs-tape wall-clock ratio
MIN_FUSED_SPEEDUP = 1.5

#: best-of-N single-execution timings
REPS_SYNTHETIC = 15
REPS_WORKLOAD = 8

SIZE = "S"

_results: dict = {}


# ---------------------------------------------------------------------------
# Synthetic dense chains (the fusion planner's target shape)
# ---------------------------------------------------------------------------


def _chain(kind: str, depth: int, rows: int) -> la.LAExpr:
    m, n = Dim("bm", rows), Dim("bn", rows)
    A = la.Var("@0", Shape(m, n))
    B = la.Var("@1", Shape(m, n))
    C = la.Var("@2", Shape(m, n))
    expr: la.LAExpr = A
    others = [B, C]
    if kind == "plus":
        for i in range(depth):
            expr = la.ElemPlus(expr, others[i % 2])
    else:
        ops = [la.ElemPlus, la.ElemMinus, la.ElemMul]
        for i in range(depth):
            expr = ops[i % 3](expr, others[i % 2])
    if kind == "sum":
        return la.Sum(expr)
    return expr


#: name -> (expression factory args, matrix side); the 64-side chain is the
#: serving sweet spot where per-step dispatch dominates, the larger sides
#: show the bandwidth-bound regime
SYNTHETIC = {
    "chain_plus_64": ("plus", 24, 64),
    "chain_plus_256": ("plus", 16, 256),
    "chain_mix_384": ("mix", 16, 384),
    "chain_sum_384": ("sum", 12, 384),
}


def _dense_values(n_slots: int, rows: int, seed: int) -> List[MatrixValue]:
    rng = np.random.default_rng(seed)
    return [MatrixValue(rng.random((rows, rows))) for _ in range(n_slots)]


def _best_seconds(run, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def _materialized_cells(executor, values: Sequence[MatrixValue]) -> int:
    """Total cells the tape/fused executor materializes in one run."""
    profiler = TapeProfiler(len(executor))
    executor.execute(values, None, None, profiler)
    profiler.finish_run()
    return int(sum(profiler.cells))


def _assert_bitwise(fused_value, tape_value, context: str) -> None:
    assert fused_value.is_sparse == tape_value.is_sparse, (
        f"{context}: representation drifted"
    )
    assert np.array_equal(fused_value.to_dense(), tape_value.to_dense()), (
        f"{context}: fused result is not bitwise identical to the tape's"
    )


def _measure(
    name: str,
    slot_plan: la.LAExpr,
    n_slots: int,
    values: Sequence[MatrixValue],
    reps: int,
    slot_sparsity: Optional[Dict[int, Optional[float]]] = None,
) -> dict:
    """One contender triple over one binding; hard-asserts parity."""
    interp = Executor()
    tape = TapePlan(slot_plan, n_slots, ring="real")
    fused = compile_fused(
        slot_plan, n_slots, ring="real", slot_sparsity=slot_sparsity
    )

    tape_value = tape.execute(values).value
    record = {
        "name": name,
        "tape_steps": len(tape),
        "fused_compiled": fused is not None,
        "regions": len(fused) if fused is not None else len(tape),
        "fused_regions": fused.fused_regions if fused is not None else 0,
        "tape_cells": _materialized_cells(tape, values),
    }
    if fused is not None:
        _assert_bitwise(fused.execute(values).value, tape_value, name)
        record["fused_cells"] = _materialized_cells(fused, values)
        assert fused.fallback_runs == 0 or record["fused_regions"] == 0
    else:
        record["fused_cells"] = record["tape_cells"]

    record["interp_seconds"] = _best_seconds(
        lambda: interp.execute_slots(slot_plan, values), reps
    )
    record["tape_seconds"] = _best_seconds(lambda: tape.execute(values), reps)
    if fused is not None:
        record["fused_seconds"] = _best_seconds(lambda: fused.execute(values), reps)
    else:
        record["fused_seconds"] = record["tape_seconds"]
    record["fused_vs_tape"] = record["tape_seconds"] / record["fused_seconds"]
    record["fused_vs_interp"] = record["interp_seconds"] / record["fused_seconds"]

    # a fused region exists iff interior temporaries were elided — the cells
    # saving must be real, not just predicted
    if record["fused_regions"] > 0:
        assert record["fused_cells"] < record["tape_cells"], (
            f"{name}: fused plan materialized {record['fused_cells']} cells, "
            f"tape {record['tape_cells']} — fusion saved nothing"
        )
    return record


# ---------------------------------------------------------------------------
# Columnwise micro-batch stacking (the serving-tier transform)
# ---------------------------------------------------------------------------


def _measure_stacking(rows: int = 512, cols: int = 384, k: int = 32) -> dict:
    """K matvecs one by one vs. the serving tier's one stacked matmat."""
    m, n, one = Dim("sm", rows), Dim("sn", cols), Dim("sone", 1)
    A = la.Var("@0", Shape(m, n))
    q = la.Var("@1", Shape(n, one))
    expr = la.UnaryFunc("sigmoid", la.MatMul(A, q))
    tape = TapePlan(expr, 2, ring="real")
    rng = np.random.default_rng(5)
    pinned = MatrixValue(rng.random((rows, cols)))
    vectors = [MatrixValue(rng.random((cols, 1))) for _ in range(k)]
    stacked_q = MatrixValue(
        np.concatenate([v.to_dense() for v in vectors], axis=1)
    )

    individual = [tape.execute([pinned, v]).value.to_dense() for v in vectors]
    stacked = tape.execute([pinned, stacked_q]).value.to_dense()
    for j, expected in enumerate(individual):
        assert np.array_equal(
            np.ascontiguousarray(stacked[:, j : j + 1]), expected
        ), "stacked matvec batch is not bitwise identical to individual serving"

    def run_individual():
        for vector in vectors:
            tape.execute([pinned, vector])

    individual_seconds = _best_seconds(run_individual, REPS_SYNTHETIC)
    stacked_seconds = _best_seconds(
        lambda: tape.execute([pinned, stacked_q]), REPS_SYNTHETIC
    )
    return {
        "requests": k,
        "rows": rows,
        "cols": cols,
        "individual_seconds": individual_seconds,
        "stacked_seconds": stacked_seconds,
        "speedup": individual_seconds / stacked_seconds,
    }


# ---------------------------------------------------------------------------
# Benchmark tests
# ---------------------------------------------------------------------------


def test_kernel_fusion(benchmark):
    """Fused codegen: bitwise parity, fewer cells, and the dense speedup."""

    def run() -> dict:
        record: dict = {"synthetic": [], "workloads": []}

        for name, (kind, depth, rows) in SYNTHETIC.items():
            values = _dense_values(3, rows, seed=17)
            record["synthetic"].append(
                _measure(name, _chain(kind, depth, rows), 3, values, REPS_SYNTHETIC)
            )

        session = Session()
        for workload_name in workload_names():
            workload = get_workload(workload_name, size=SIZE)
            inputs = workload.inputs(seed=23)
            for root_name, plan in workload.session_plans(session).items():
                entry = plan._entry
                if getattr(plan.ring, "name", plan.ring) != "real":
                    continue
                values = plan.bind({k: inputs[k] for k in plan.input_names})
                slot_sparsity = {
                    spec.index: spec.sparsity for spec in plan.signature.slots
                }
                record["workloads"].append(
                    _measure(
                        f"{workload_name}/{root_name}",
                        entry.slot_plan,
                        len(plan.signature.slots),
                        values,
                        REPS_WORKLOAD,
                        slot_sparsity=slot_sparsity,
                    )
                )

        record["stacking"] = _measure_stacking()
        record["fused_vs_tape_speedup"] = max(
            row["fused_vs_tape"] for row in record["synthetic"]
        )
        return record

    record = benchmark.pedantic(run, rounds=1, iterations=1)
    _results["kernels"] = record

    # at least one production workload root must actually take the fused path
    assert any(row["fused_regions"] > 0 for row in record["workloads"]), (
        "no workload root compiled to a fused region — the tier is dormant"
    )
    assert record["stacking"]["speedup"] > 1.0, (
        "stacked matmat serving was slower than one-by-one matvecs"
    )
    assert record["fused_vs_tape_speedup"] >= MIN_FUSED_SPEEDUP, (
        f"best dense fused-vs-tape speedup "
        f"{record['fused_vs_tape_speedup']:.2f}x is under the "
        f"{MIN_FUSED_SPEEDUP:.1f}x floor"
    )


def test_kernels_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    record = _results.get("kernels")
    if not record:
        pytest.skip("run the fusion benchmark first")

    rows = []
    for row in record["synthetic"] + record["workloads"]:
        rows.append(
            [
                row["name"],
                f"{row['tape_steps']}/{row['regions']}",
                f"{row['interp_seconds'] * 1e3:.2f}",
                f"{row['tape_seconds'] * 1e3:.2f}",
                f"{row['fused_seconds'] * 1e3:.2f}",
                f"{row['fused_vs_tape']:.2f}x",
                f"{row['tape_cells']}",
                f"{row['fused_cells']}",
            ]
        )
    table = format_table(
        [
            "workload",
            "steps/regions",
            "interp ms",
            "tape ms",
            "fused ms",
            "fused vs tape",
            "tape cells",
            "fused cells",
        ],
        rows,
    )
    stacking = record["stacking"]
    write_report(
        "kernels",
        "Fused kernels — interpreter vs. tape vs. generated code (bitwise identical)",
        table
        + [
            "",
            f"best dense fused-vs-tape speedup "
            f"{record['fused_vs_tape_speedup']:.2f}x (floor {MIN_FUSED_SPEEDUP:.1f}x); "
            "every fused plan materialized strictly fewer intermediate cells;",
            f"columnwise stacking: {stacking['requests']} matvecs as one matmat "
            f"ran {stacking['speedup']:.2f}x faster than one-by-one.",
        ],
    )
    write_json(
        "BENCH_kernels",
        {
            "headline": {
                "name": "fused_vs_tape_speedup",
                "value": record["fused_vs_tape_speedup"],
            },
            "floor": MIN_FUSED_SPEEDUP,
            "size": SIZE,
            "synthetic": record["synthetic"],
            "workloads": record["workloads"],
            "stacking": stacking,
        },
    )
