"""Resilience benchmark — a seeded fault storm against the serving engine.

The reliability layer (:mod:`repro.reliability` threaded through
:class:`repro.serve.ServingEngine`) claims that faults cost *latency*,
never *answers*: a store read/write fault demotes to a cache miss /
skipped persist, and an optimizer fault degrades to the unoptimized
baseline plan (semantically identical under SPORES' R_EQ contract).
Execution has no fault site: plans are pure, so an execution error is
deterministic and fails its request, with nothing to recover.  This harness measures that claim end to end on all five
evaluation workloads:

* **Clean pass.**  A fresh engine on a warm plan store serves every
  stream fault-free — the reference results (bitwise) and the clean
  throughput denominator.  The warm-up deliberately covers only four of
  the five workloads (a deploy that missed one), so every pass pays one
  workload's compiles at pool start — which is what puts the storm's
  optimizer faults on a real code path instead of behind a warm store.
* **Degraded reference pass.**  A second engine whose optimizer *always*
  faults serves the same streams entirely from baseline plans — the
  bitwise reference for any storm request answered in degraded mode.
* **Storm pass.**  A third engine serves the identical streams under a
  deterministic, seeded fault schedule: store read/write faults
  (``store.read`` / ``store.write`` → :class:`PlanStoreError`) and
  optimizer faults on recompiles (``optimizer.saturate`` →
  :class:`OptimizerBudgetExceeded`).
* **Acceptance.**  The storm pass completes 100% of submitted requests
  (zero lost: every future resolves; zero duplicated: ``served`` equals
  ``submitted``; zero errors, zero sheds), and every single response is
  bitwise-identical to the clean reference *or* to the degraded-mode
  reference — a demoted store fault reproduces the optimized answer
  exactly, and degraded fallback reproduces the baseline answer exactly.

Writes ``BENCH_resilience.json`` (headline: storm-vs-clean throughput
ratio — how much of the engine's throughput survives the storm) for the
CI bench-gate to track, alongside recovery latency percentiles.
"""

from __future__ import annotations

import gc
import tempfile
import time
from typing import Dict, List, Mapping, Tuple

import numpy as np
import pytest

from repro.lang import dag
from repro.lang import expr as la
from repro.optimizer import OptimizerConfig
from repro.reliability import (
    FaultInjector,
    FaultRule,
    OptimizerBudgetExceeded,
    PlanStoreError,
)
from repro.serialize.store import PlanStore
from repro.serve import ServingEngine, warm_store
from repro.workloads import get_workload, parse_selection, workload_names

from benchmarks.reporting import format_table, write_json, write_report

SIZE = "S"
SHARDS = 4
#: requests per workload stream (5 workloads -> 1250 requests per pass)
REQUESTS = 250
#: paired clean+storm timed repetitions; the headline is the median of
#: the per-rep ratios, so a scheduler hiccup in one rep cannot fake (or
#: mask) a regression
REPETITIONS = 3
#: distinct popular parameter versions per workload (the serving hot set)
POPULAR_VERSIONS = 4
#: fraction of requests drawn from the popular set
POPULAR_FRACTION = 0.7

#: parameter-side inputs that vary per request; everything else is pinned
VARYING: Dict[str, Tuple[str, ...]] = {
    "ALS": ("U", "V"),
    "GLM": ("w", "p", "mu", "beta"),
    "SVM": ("w", "s"),
    "MLR": ("P", "v"),
    "PNMF": ("W", "H"),
}

#: every schedule below is a pure function of this seed — rerunning the
#: bench replays the exact same storm, fault for fault
STORM_SEED = 2020

#: the workload the deploy-time warm-up "missed": its roots compile at
#: pool start in every pass, so the storm's optimizer faults hit real
#: compiles (a fully warm store would never consult the optimizer at all)
COLD_WORKLOAD = "PNMF"


def storm_schedule() -> FaultInjector:
    """The seeded storm: store faults and optimizer faults.  Every rule is
    counter-based, so the schedule is exactly reproducible, and every rule
    fires in each storm pass (``test_fault_storm_survival`` asserts it).
    """
    return FaultInjector(
        [
            # every fourth store load fails -> demoted to a miss (recompile)
            FaultRule("store.read", PlanStoreError, start=0, every=4),
            # every other persist fails -> demoted to a skipped write
            FaultRule("store.write", PlanStoreError, start=0, every=2),
            # the first saturation region overruns -> that compile degrades;
            # the others finish, so their persists meet the store.write rule
            # (a degraded entry is never persisted)
            FaultRule("optimizer.saturate", OptimizerBudgetExceeded, start=0, count=1),
        ],
        seed=STORM_SEED,
    )


_results: dict = {}


class StreamFactory:
    """Builds one identical request stream served by all three passes.

    Pinned inputs (the data matrices) and the popular parameter versions
    are built once; the stream itself is drawn once and *reused verbatim*
    by the clean, degraded-reference and storm passes, so result
    comparison is exact — same expressions, same value objects.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.workload = get_workload(name, SIZE)
        self.pinned = self.workload.inputs(seed=0)
        self.varying = VARYING[name]
        self.popular = [self._version(1_000 + v) for v in range(POPULAR_VERSIONS)]
        self.roots = list(self.workload.roots.items())
        self.root_vars = {
            root_name: tuple(var.name for var in dag.variables(root))
            for root_name, root in self.roots
        }

    def _version(self, seed: int) -> Dict[str, object]:
        fresh = self.workload.inputs(seed=seed)
        return {key: fresh[key] for key in self.varying}

    def stream(self) -> List[Tuple[la.LAExpr, Mapping[str, object]]]:
        rng = np.random.default_rng(4242)
        out: List[Tuple[la.LAExpr, Mapping[str, object]]] = []
        for index in range(REQUESTS):
            root_name, root = self.roots[index % len(self.roots)]
            if rng.random() < POPULAR_FRACTION:
                params = self.popular[int(rng.integers(len(self.popular)))]
            else:
                params = self._version(10_000 + index)
            merged = dict(self.pinned)
            merged.update(params)
            out.append((root, {k: merged[k] for k in self.root_vars[root_name]}))
        return out


def _serve_pass(engine: ServingEngine, streams, all_roots) -> Tuple[dict, float]:
    """Warm from the store (deploy time, untimed), then serve every stream.

    Returns ``(results, serve_seconds)`` — the timed region covers serving
    only, the same envelope for every pass, so the throughput ratio
    isolates what the storm costs at steady state (degraded execution)
    instead of re-measuring compile time.
    """
    engine.warm(all_roots)
    served: Dict[str, List] = {}
    # Collect before timing: earlier passes leave cyclic garbage (closed
    # engines, result graphs) whose collection would otherwise land as a
    # pause inside whichever timed region runs next.
    gc.collect()
    started = time.perf_counter()
    for name, stream in streams.items():
        served[name] = engine.run_many(stream)
    return served, time.perf_counter() - started


def _warmed_store(store_dir: str, config, warm_names: str) -> PlanStore:
    """A pristine store warmed for every workload except the cold one."""
    store = PlanStore(store_dir, config)
    warm_store(store, parse_selection(warm_names, SIZE), config)
    return store


def test_fault_storm_survival(benchmark):
    """The storm pass must complete 100% of requests, bitwise-correct."""
    config = OptimizerConfig.sampling_greedy()
    streams = {name: StreamFactory(name).stream() for name in workload_names()}
    all_roots = [
        root for name in workload_names() for root in get_workload(name, SIZE).root_list
    ]

    warm_names = ",".join(n for n in workload_names() if n != COLD_WORKLOAD)

    def run() -> dict:
        record: dict = {"per_workload": {}}

        # Degraded-reference pass: every compile degrades to the baseline
        # plan (no store, so nothing warm short-circuits the always-
        # faulting optimizer) — the bitwise reference for any storm
        # response answered in degraded mode.
        degraded_engine = ServingEngine(
            shards=SHARDS,
            config=config,
            fault_injector=FaultInjector(
                [FaultRule("optimizer.saturate", OptimizerBudgetExceeded)]
            ),
        )
        try:
            degraded, _ = _serve_pass(degraded_engine, streams, all_roots)
            degraded_stats = degraded_engine.stats()
            assert degraded_stats.degraded == degraded_stats.served
        finally:
            degraded_engine.close()

        # Paired reps: each runs a fault-free clean pass (the bitwise
        # reference results and the throughput denominator) back to back
        # with a storm pass (the seeded schedule, replayed fault-for-fault
        # each rep by a fresh injector) over the identical streams.  Pairing means machine-load drift
        # hits both sides of a rep's ratio alike, and the median ratio is
        # what a one-rep hiccup cannot move.  Each pass mounts a pristine
        # store copy — a pass compiles and persists the cold workload,
        # which must not leak into any other pass.
        clean_seconds: List[float] = []
        storm_seconds: List[float] = []
        for rep in range(REPETITIONS):
            with tempfile.TemporaryDirectory() as store_dir:
                engine = ServingEngine(
                    shards=SHARDS,
                    config=config,
                    store=_warmed_store(store_dir, config, warm_names),
                )
                try:
                    served, seconds = _serve_pass(engine, streams, all_roots)
                    clean_seconds.append(seconds)
                    if rep == 0:
                        clean, clean_stats = served, engine.stats()
                finally:
                    engine.close()

            faults = storm_schedule()
            with tempfile.TemporaryDirectory() as store_dir:
                _warmed_store(store_dir, config, warm_names)
                engine = ServingEngine(
                    shards=SHARDS,
                    config=config,
                    store=PlanStore(store_dir, config, fault_injector=faults),
                    fault_injector=faults,
                    # bounds the cold workload's compiles, and the recompile
                    # behind a faulted store load: over budget they degrade
                    # to the baseline plan instead of paying an unbounded
                    # saturation mid-storm (S-size compiles take milliseconds,
                    # so only the scheduled fault degrades one)
                    optimizer_budget=0.25,
                )
                try:
                    storm, seconds = _serve_pass(engine, streams, all_roots)
                    storm_seconds.append(seconds)
                    storm_stats = engine.stats()
                    health = engine.health()
                finally:
                    engine.close()

            # Bitwise verdicts: every storm response must match the clean
            # reference (an optimized plan, however its store probe went) or
            # the degraded reference (answered by the baseline fallback)
            # exactly.
            matched_optimized = matched_degraded = 0
            for name, stream in streams.items():
                workload_matches = 0
                for clean_result, degraded_result, storm_result in zip(
                    clean[name], degraded[name], storm[name]
                ):
                    clean_value = clean_result.to_dense()
                    storm_value = storm_result.to_dense()
                    via_clean = np.array_equal(storm_value, clean_value)
                    via_degraded = np.array_equal(
                        storm_value, degraded_result.to_dense()
                    )
                    assert via_clean or via_degraded, (
                        f"{name}: a storm response matches neither the optimized "
                        f"nor the degraded reference bitwise (rep {rep})"
                    )
                    np.testing.assert_allclose(
                        storm_value, clean_value, rtol=1e-9, atol=1e-9,
                        err_msg=f"{name}: storm response numerically diverged",
                    )
                    matched_optimized += via_clean
                    matched_degraded += via_degraded and not via_clean
                    workload_matches += 1
                record["per_workload"][name] = {"requests": workload_matches}
            if rep == 0:
                record["matched_optimized"] = matched_optimized
                record["matched_degraded"] = matched_degraded
                record["storm"] = storm_stats.to_dict()
                record["health"] = health
                record["faults"] = faults.describe()

        ratios = sorted(c / s for c, s in zip(clean_seconds, storm_seconds))
        record["clean_seconds"] = min(clean_seconds)
        record["storm_seconds"] = min(storm_seconds)
        record["ratios"] = ratios
        record["clean_seconds_all"] = clean_seconds
        record["storm_seconds_all"] = storm_seconds
        record["clean"] = clean_stats.to_dict()
        record["throughput_ratio"] = ratios[len(ratios) // 2]
        return record

    record = benchmark.pedantic(run, rounds=1, iterations=1)
    _results["resilience"] = record

    storm = record["storm"]
    requests_total = REQUESTS * len(workload_names())
    # Zero lost: every submission was served (run_many resolving every
    # future already proved none hung or failed); zero duplicated: served
    # never exceeds submitted.
    assert storm["served"] == storm["submitted"]
    assert storm["errors"] == 0
    assert storm["sheds"] == 0
    assert record["matched_optimized"] + record["matched_degraded"] == requests_total
    # The storm actually stormed: every rule of the schedule fired (each
    # rule has a site of its own), so every recovery mechanism ran.
    fired = record["faults"]["fired_by_site"]
    unfired = [rule.site for rule in storm_schedule().rules if fired.get(rule.site, 0) < 1]
    assert not unfired, f"storm rules that never fired: {unfired} (fired: {fired})"
    assert storm["degraded"] >= 1, "no request was answered in degraded mode"
    health = record["health"]
    assert health["live"] and health["ready"]
    assert record["throughput_ratio"] > 0.0


def test_resilience_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    record = _results.get("resilience")
    if not record:
        pytest.skip("run the fault-storm test first")
    storm, clean = record["storm"], record["clean"]
    requests_total = sum(p["requests"] for p in record["per_workload"].values())
    table = format_table(
        ["pass", "requests", "seconds", "req/s", "p95 latency [ms]"],
        [
            [
                "clean",
                requests_total,
                f"{record['clean_seconds']:.2f}",
                f"{requests_total / record['clean_seconds']:.0f}",
                f"{clean['p95_latency'] * 1e3:.2f}",
            ],
            [
                "storm",
                requests_total,
                f"{record['storm_seconds']:.2f}",
                f"{requests_total / record['storm_seconds']:.0f}",
                f"{storm['p95_latency'] * 1e3:.2f}",
            ],
        ],
    )
    fired = record["faults"]["fired_by_site"]
    write_report(
        "resilience",
        "Serving resilience — a seeded fault storm vs. the clean engine",
        table
        + [
            "",
            f"storm kept {record['throughput_ratio']:.0%} of clean throughput under "
            f"{record['faults']['fired']} injected faults ({fired});",
            f"recovery: {storm['degraded']} requests answered by the degraded baseline;",
            f"correctness: {record['matched_optimized']} responses bitwise-matched "
            f"the optimized reference, {record['matched_degraded']} the degraded "
            f"reference — {requests_total}/{requests_total} accounted for, "
            "zero lost, zero duplicated, zero errors.",
        ],
    )
    payload = {
        "headline": {
            "name": "storm_vs_clean_throughput",
            "value": record["throughput_ratio"],
        },
        "seed": STORM_SEED,
        "requests_per_workload": REQUESTS,
        "repetitions": REPETITIONS,
        "shards": SHARDS,
        "throughput_ratio": record["throughput_ratio"],
        "ratios": record["ratios"],
        "clean_seconds": record["clean_seconds"],
        "storm_seconds": record["storm_seconds"],
        "clean_seconds_all": record["clean_seconds_all"],
        "storm_seconds_all": record["storm_seconds_all"],
        "matched_optimized": record["matched_optimized"],
        "matched_degraded": record["matched_degraded"],
        "faults": record["faults"],
        "recovery": {
            "degraded": storm["degraded"],
            "clean_p95_latency": clean["p95_latency"],
            "storm_p95_latency": storm["p95_latency"],
        },
        "storm": {
            key: storm[key]
            for key in ("submitted", "served", "errors", "sheds", "throughput")
        },
        "health": {
            "live": record["health"]["live"],
            "ready": record["health"]["ready"],
            "degraded_rate": record["health"]["degraded_rate"],
        },
    }
    write_json("BENCH_resilience", payload)
