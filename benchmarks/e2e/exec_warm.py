"""``exec_warm`` — the run time of the optimized plans (the paper's Fig. 15).

op = one ``CompiledPlan.run``.  One thread round-robins the 14 paper plans at
size M and the 4 SSSP/REACH plans at size L, all compiled once in set-up;
parameter inputs rotate over 8 pre-generated versions, the data matrices stay
pinned.  ``runtime`` (interpreter + kernels) and ``api.plan`` (bind, shape
checks, statistics) do all the work; the optimizer and ``serve`` do none.

The clock is paused after every sweep over the 18 plans while that sweep's
outputs are checked against their references, so at most 18 results are
ever retained.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api import Session
from repro.obs.profile import TapeProfiler
from repro.optimizer import OptimizerConfig
from repro.runtime.codegen import compile_fused
from repro.runtime.data import MatrixValue
from repro.runtime.engine import Executor
from repro.runtime.tape import StepReuseCache, TapePlan

from e2e import inputs as gen
from e2e import references
from e2e.measure import Clock, Op, Round, RunRecord, calibrate, median, tracing_overhead
from e2e.spans import SpanRecorder

@dataclass
class PlanUnderTest:
    kind: str  # "GLM/gradient"
    family: gen.FamilyInputs
    root: str
    plan: object  # CompiledPlan
    #: one request per parameter version, wrapped once (plan.run has no
    #: identity-keyed cache, so reusing the objects changes nothing)
    requests: List[Dict[str, MatrixValue]]
    expected: List[object]


@dataclass
class State:
    plans: List[PlanUnderTest]
    sweeps: int = 0  # rotates the parameter version across rounds


class ExecWarm:
    name = "exec_warm"
    round_seconds = 2.0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.families: Dict[str, gen.FamilyInputs] = {}

    # -- inputs ----------------------------------------------------------------
    def generate(self) -> None:
        paper_size = "S" if self.smoke else "M"
        ring_size = "S" if self.smoke else "L"
        paper, semiring = gen.families_for(self.smoke)
        for name in paper:
            self.families[name] = gen.paper_family(name, paper_size, self.seed)
        for name in semiring:
            self.families[name] = gen.semiring_family(name, ring_size, self.seed)

    # -- set-up ----------------------------------------------------------------
    def setup(self) -> State:
        sessions: Dict[str, Session] = {}
        plans: List[PlanUnderTest] = []
        for name, root in gen.all_roots(self.families):
            family = self.families[name]
            ring = family.workload.semiring
            session = sessions.get(ring)
            if session is None:
                session = sessions[ring] = Session(
                    OptimizerConfig.sampling_greedy(semiring=ring)
                )
            plan = session.compile(family.workload.roots[root])
            requests = [
                gen.request_inputs(family, root, version) for version in range(gen.VERSIONS)
            ]
            plan.run(requests[0])  # warm-up: first-run lazy state belongs to set-up
            plans.append(PlanUnderTest(f"{name}/{root}", family, root, plan, requests, []))
        return State(plans)

    def teardown(self, state: State) -> None:
        state.plans.clear()

    def describe(self, state: State) -> Dict[str, object]:
        return {"plans": len(state.plans), "sweeps": state.sweeps}

    def prepare_references(self, state: State) -> None:
        expected = {
            name: [
                references.expected_values(family, family.arrays(version))
                for version in range(gen.VERSIONS)
            ]
            for name, family in self.families.items()
        }
        for item in state.plans:
            item.expected = [per_root[item.root] for per_root in expected[item.family.name]]
        probe = state.plans[0]
        references.self_check(probe.family, probe.root, probe.plan.run(probe.requests[0]).value)

    # -- one timed round -------------------------------------------------------
    def round(
        self, state: State, seconds: float, recorder: Optional[SpanRecorder] = None
    ) -> Round:
        clock = Clock()
        ops: List[Op] = []
        attempted = failed = 0
        perf = time.perf_counter
        before = calibrate()
        while clock.wall < seconds:
            version = state.sweeps % gen.VERSIONS
            state.sweeps += 1
            outputs: List[Tuple[PlanUnderTest, Optional[MatrixValue], float, float]] = []
            before = clock.wall
            clock.start()
            sweep_start = perf()
            for item in state.plans:
                request = item.requests[version]
                start = perf()
                try:
                    value = item.plan.run(request).value
                except Exception:  # an op that raises is a failed op, not a crash
                    value = None
                end = perf()
                outputs.append((item, value, end - start, before + end - sweep_start))
                if recorder is not None:
                    recorder.add("plan.run", start, end)
            clock.stop()
            if recorder is not None:
                recorder.add("sweep", sweep_start, perf())
            for item, value, elapsed, at in outputs:
                attempted += 1
                if value is not None and references.matches(value, item.expected[version]):
                    ops.append(Op(item.kind, elapsed, at))  # only correct ops count
                else:
                    failed += 1
        calib_ms = (before + calibrate()) / 2.0
        return Round(clock.wall, clock.cpu, ops, attempted, failed, calib_ms)

    # -- the traced run --------------------------------------------------------
    def trace(
        self, state: State, seconds: float, record: RunRecord, recorder: SpanRecorder
    ) -> None:
        layers = record.layers
        executors = self._build_executors(state)
        layer_budget = seconds / 2.0
        samples: Dict[str, Dict[str, List[float]]] = {}
        fallback_deltas: List[int] = []
        started = time.perf_counter()
        sweeps = 0
        while sweeps < 2 or time.perf_counter() - started < layer_budget:
            version = sweeps % gen.VERSIONS
            before = sum(e["fused"].fallback_runs for e in executors.values() if e["fused"])
            sweep_span = recorder.begin("layer_sweep")
            for item in state.plans:
                self._time_layers(item, executors[item.kind], version, samples, recorder)
            recorder.finish(sweep_span)
            after = sum(e["fused"].fallback_runs for e in executors.values() if e["fused"])
            fallback_deltas.append(after - before)
            sweeps += 1
            if self.smoke:
                break
        if len(set(fallback_deltas)) > 1:
            raise AssertionError(f"runtime.codegen.fallback_runs drifted: {fallback_deltas}")

        def mean_of_medians(layer: str) -> float:
            rows = [median(per_layer[layer]) for per_layer in samples.values()]
            return sum(rows) / len(rows)

        layers["api.plan.bind_us"] = mean_of_medians("bind") * 1e6
        layers["api.plan.run_self_us"] = (
            mean_of_medians("run_outside_executor") - mean_of_medians("bind")
        ) * 1e6
        layers["runtime.interp_ms"] = mean_of_medians("interp") * 1e3
        layers["runtime.tape_ms"] = mean_of_medians("tape") * 1e3
        layers["runtime.tape.reuse_ms"] = mean_of_medians("reuse") * 1e3
        layers["runtime.codegen.fused_ms"] = mean_of_medians("fused") * 1e3
        semiring = [
            median(per_layer["interp"])
            for kind, per_layer in samples.items()
            if kind.split("/")[0] in gen.SEMIRING_FAMILIES
        ]
        layers["runtime.semiring_ms"] = sum(semiring) * 1e3
        layers["runtime.tape.steps"] = sum(len(e["tape"]) for e in executors.values())
        fused = [e["fused"] for e in executors.values() if e["fused"] is not None]
        layers["runtime.codegen.regions"] = sum(len(f) for f in fused)
        layers["runtime.codegen.fused_regions"] = sum(f.fused_regions for f in fused)
        layers["runtime.codegen.fallback_runs"] = fallback_deltas[0]
        layers["runtime.intermediate_cells"] = self._profiled_cells(state, executors, "tape")
        layers["runtime.codegen.intermediate_cells"] = self._profiled_cells(
            state, executors, "fused"
        )
        record.notes["layer_sweeps"] = sweeps
        record.notes["plan_layers_ms"] = {
            kind: {layer: median(values) * 1e3 for layer, values in per_layer.items()}
            for kind, per_layer in samples.items()
        }

        length = seconds if self.smoke else 1.0
        count = int((seconds - layer_budget) / length)
        layers["obs.tracing_overhead"] = tracing_overhead(
            lambda tracing: self.round(state, length, recorder if tracing else None),
            record.rounds,
            lambda index: not self.smoke and index < count,
        )

    def _build_executors(self, state: State) -> Dict[str, Dict[str, object]]:
        executors: Dict[str, Dict[str, object]] = {}
        for item in state.plans:
            plan = item.plan
            slot_plan = plan._entry.slot_plan  # what CompiledPlan.run and the shards execute
            n_slots = len(plan.signature.slots)
            executors[item.kind] = {
                "slot_plan": slot_plan,
                "interp": Executor(plan.ring),
                "tape": TapePlan(slot_plan, n_slots, ring=plan.ring),
                "reuse": StepReuseCache(),
                "fused": compile_fused(
                    slot_plan,
                    n_slots,
                    ring=plan.ring,
                    slot_sparsity={s.index: s.sparsity for s in plan.signature.slots},
                ),
            }
        return executors

    @staticmethod
    def _time_layers(
        item: PlanUnderTest,
        executor: Dict[str, object],
        version: int,
        samples: Dict[str, Dict[str, List[float]]],
        recorder: SpanRecorder,
    ) -> None:
        perf = time.perf_counter
        request = item.requests[version]
        per_layer = samples.setdefault(item.kind, {})
        op_span = recorder.begin(f"op:{item.kind}")

        def timed(layer: str, span_name: str, call) -> object:
            start = perf()
            result = call()
            end = perf()
            per_layer.setdefault(layer, []).append(end - start)
            recorder.add(span_name, start, end, parent=op_span.span_id)
            return result

        values = timed("bind", "api.plan.bind", lambda: item.plan.bind(request))
        timed(
            "interp", "runtime.interp",
            lambda: executor["interp"].execute_slots(executor["slot_plan"], values),
        )
        timed("tape", "runtime.tape", lambda: executor["tape"].execute(values))
        timed(
            "reuse", "runtime.tape.reuse",
            lambda: executor["tape"].execute(values, executor["reuse"]),
        )
        fused = executor["fused"] or executor["tape"]  # the fallback build_executable takes
        timed("fused", "runtime.codegen.fused", lambda: fused.execute(values))
        # run = bind + execute + record; the executor reports its own elapsed
        # on the result, so everything of `run` outside it is api.plan's
        start = perf()
        result = item.plan.run(request)
        end = perf()
        per_layer.setdefault("run_outside_executor", []).append(
            end - start - result.stats.elapsed
        )
        recorder.add("api.plan.run", start, end, parent=op_span.span_id)
        recorder.finish(op_span)

    @staticmethod
    def _profiled_cells(state: State, executors: Dict[str, Dict[str, object]], which: str) -> int:
        total = 0
        for item in state.plans:
            executor = executors[item.kind][which] or executors[item.kind]["tape"]
            profiler = TapeProfiler(len(executor))
            executor.execute(item.plan.bind(item.requests[0]), profiler=profiler)
            total += sum(profiler.cells)
        return total
