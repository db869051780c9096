"""``compile_cold`` — compile time (the paper's Fig. 16).

op = one sweep: a fresh ``Session(OptimizerConfig.sampling_greedy(semiring=…))``
per ring, no store, ``Session.compile`` on the 14 paper roots at size S plus
the 4 SSSP/REACH roots.  ``canonical``, ``translate``, ``egraph``, ``rules``,
``extract``, ``cost`` and ``optimizer.guards`` do all the work; ``runtime``
and ``serve`` do none, so a saturation, e-matching or extraction change
shows here and must show nowhere else.

Greedy extraction, not the paper-default ILP: under ``sampling_ilp`` the ALS
roots alone spend the 10 s ``ilp_time_limit``, which would turn the metric
into a solver-timeout constant.  ILP is a per-layer metric instead
(``extract.ilp_ms``, MLR and PNMF roots, where it finishes in well under
0.1 s per family).

After the clock stops every compiled plan of the sweep is *executed* on the
seeded size-S inputs and compared with its reference — a sweep whose plans
compute the wrong thing is a failed op — and the sweep's optimized
expression texts, e-graph counts and costs are compared with the first
sweep's: the sampling strategy is CRC-seeded, so they must repeat exactly.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.api import PlanEntry, PlanStore, Session
from repro.canonical.fingerprint import signature_of, slot_expression
from repro.cost.la_cost import LACostModel
from repro.egraph.graph import EGraph
from repro.egraph.runner import Runner
from repro.extract import GreedyExtractor, ILPExtractor
from repro.lang import dag
from repro.lang import expr as la
from repro.optimizer import OptimizerConfig
from repro.optimizer.guards import derive_guard
from repro.optimizer.pipeline import compile_expression
from repro.ra.rexpr import RPlanOutput
from repro.rules import relational_rules
from repro.runtime.codegen import clear_module_cache, compile_fused
from repro.runtime.fusion import fuse_operators
from repro.runtime.tape import TapePlan
from repro.serialize import dumps_entry, loads_entry
from repro.systemml import optimize_opt2
from repro.translate import LiftError, LoweringError, lift, lower, simplify
from repro.translate.lower import is_barrier
from repro.workloads import SEMIRING_WORKLOADS, WORKLOADS

from e2e import catalog
from e2e import inputs as gen
from e2e import references
from e2e.measure import (
    Clock, Op, Round, RunRecord, calibrate, geomean, median, scratch_dir, tracing_overhead,
)
from e2e.spans import SpanRecorder

#: families whose ILP extraction is cheap enough to time every traced sweep
ILP_FAMILIES = ("MLR", "PNMF")


@dataclass
class Root:
    kind: str  # "GLM/deviance"
    family: gen.FamilyInputs
    name: str
    ring: str
    expr: la.LAExpr
    expected: object = None


@dataclass
class State:
    roots: List[Root]
    #: the first sweep's per-root determinism record; later sweeps must equal it
    baseline: Optional[Dict[str, tuple]] = None
    #: the first sweep's ‡ counts, from the plans' own reports
    exact: Dict[str, float] = field(default_factory=dict)
    scratch: Optional[str] = None


def config_for(ring: str) -> OptimizerConfig:
    return OptimizerConfig.sampling_greedy(semiring=ring)


class CompileCold:
    name = "compile_cold"
    #: a round is exactly one sweep; this is only its expected length
    round_seconds = 1.0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.families: Dict[str, gen.FamilyInputs] = {}

    def generate(self) -> None:
        paper, semiring = gen.families_for(self.smoke)
        for name in paper:
            self.families[name] = gen.paper_family(name, "S", self.seed)
        for name in semiring:
            self.families[name] = gen.semiring_family(name, "S", self.seed)

    # -- set-up ----------------------------------------------------------------
    def setup(self) -> State:
        roots = []
        for name, root in gen.all_roots(self.families):
            family = self.families[name]
            # Rebuild the expression objects: a cold compile starts from a
            # freshly declared program, not from one an earlier sweep walked.
            registry = WORKLOADS if name in WORKLOADS else SEMIRING_WORKLOADS
            workload = registry[name].build("S")
            roots.append(
                Root(f"{name}/{root}", family, root, workload.semiring, workload.roots[root])
            )
        state = State(roots)
        self._sweep(state)  # warm-up: imports, lazy module state, first-call paths
        return state

    def teardown(self, state: State) -> None:
        if state.scratch is not None:
            shutil.rmtree(state.scratch, ignore_errors=True)
            state.scratch = None

    def describe(self, state: State) -> Dict[str, object]:
        """For the run record: the ‡ counts of the untraced sweep, so that a
        traced record of the same commit can be compared with them."""
        return {"exact": dict(state.exact)}

    def prepare_references(self, state: State) -> None:
        expected = {
            name: references.expected_values(family, family.arrays(0))
            for name, family in self.families.items()
        }
        for root in state.roots:
            root.expected = expected[root.family.name][root.name]

    # -- one sweep -------------------------------------------------------------
    def _sweep(
        self, state: State, recorder: Optional[SpanRecorder] = None
    ) -> Tuple[Clock, List[Op], List[object]]:
        clock = Clock()
        rows: List[Op] = []
        plans: List[object] = []
        perf = time.perf_counter
        sweep_span = recorder.begin("sweep") if recorder is not None else None
        clock.start()
        sweep_start = perf()
        sessions: Dict[str, Session] = {}
        for root in state.roots:
            session = sessions.get(root.ring)
            if session is None:
                session = sessions[root.ring] = Session(config_for(root.ring))
            start = perf()
            plan = session.compile(root.expr)
            end = perf()
            rows.append(Op(root.kind, end - start, end - sweep_start))
            plans.append(plan)
            if recorder is not None:
                recorder.add("Session.compile", start, end, parent=sweep_span.span_id)
        clock.stop()
        if recorder is not None:
            recorder.finish(sweep_span)
        compilations = sum(session.compilations for session in sessions.values())
        self._guard_determinism(state, plans, compilations)
        return clock, rows, plans

    @staticmethod
    def _guard_determinism(state: State, plans: List[object], compilations: int) -> None:
        observed = {}
        for root, plan in zip(state.roots, plans):
            report = plan.report
            observed[root.kind] = (
                str(plan.optimized),
                tuple(run.num_iterations for run in report.saturation_reports),
                tuple(run.final_enodes for run in report.saturation_reports),
                report.original_cost,
                report.optimized_cost,
                plan.cache_hit,
                plan.template_hit,
            )
        if state.baseline is None:
            state.baseline = observed
            state.exact = exact_counts(plans, compilations)
            return
        drifted = [kind for kind in observed if observed[kind] != state.baseline[kind]]
        before = state.exact["api.session.compilations"]
        if drifted or compilations != before:
            raise AssertionError(
                f"compile_cold is not deterministic: {drifted or 'compilations'} changed "
                f"between sweeps ({before} -> {compilations} real compilations)"
            )

    def round(
        self, state: State, seconds: float, recorder: Optional[SpanRecorder] = None
    ) -> Round:
        before = calibrate()
        clock, rows, plans = self._sweep(state, recorder)
        calib_ms = (before + calibrate()) / 2.0
        wrong = 0
        for root, plan in zip(state.roots, plans):
            try:
                value = plan.run(gen.request_inputs(root.family, root.name, 0)).value
                wrong += not references.matches(value, root.expected)
            except Exception:  # a plan that cannot run is a wrong plan
                wrong += 1
        ops = [] if wrong else [Op("sweep", clock.wall, clock.wall)]
        return Round(
            clock.wall, clock.cpu, ops, attempted=1, failed=int(bool(wrong)),
            calib_ms=calib_ms, rows=[] if wrong else rows,
        )

    # -- the traced run --------------------------------------------------------
    def trace(
        self, state: State, seconds: float, record: RunRecord, recorder: SpanRecorder
    ) -> None:
        probe = state.roots[0]
        plan = Session(config_for(probe.ring)).compile(probe.expr)
        references.self_check(
            probe.family, probe.name,
            plan.run(gen.request_inputs(probe.family, probe.name, 0)).value,
        )
        state.scratch = scratch_dir("compile_cold_")
        sweeps: List[Dict[str, float]] = []
        started = time.perf_counter()
        while len(sweeps) < 2 or time.perf_counter() - started < seconds * 0.7:
            sweeps.append(self._layer_sweep(state, recorder, len(sweeps), record.notes))
            if self.smoke:
                break
        exact = sorted(catalog.EXACT.intersection(sweeps[0]))
        for name in exact:
            values = {sweep[name] for sweep in sweeps}
            if len(values) > 1:
                raise AssertionError(f"{name} must repeat exactly, saw {sorted(values)}")
        for name in sweeps[0]:
            record.layers[name] = median(sweep[name] for sweep in sweeps)
        for name, value in state.exact.items():
            if record.layers[name] != value:
                raise AssertionError(
                    f"{name}: the staged pipeline counted {record.layers[name]}, "
                    f"the untraced Session.compile sweep reported {value}"
                )
        record.notes["layer_sweeps"] = len(sweeps)
        record.notes["exact"] = {name: record.layers[name] for name in exact}

        record.layers["obs.tracing_overhead"] = tracing_overhead(
            lambda tracing: self.round(state, 0.0, recorder if tracing else None),
            record.rounds,
            lambda index: (
                not self.smoke and index < 12 and time.perf_counter() - started < seconds
            ),
        )

    def _layer_sweep(
        self, state: State, recorder: SpanRecorder, index: int, notes: Dict[str, object]
    ) -> Dict[str, float]:
        """Time every layer once over the sweep's roots, calling the pipeline's
        public functions in the order ``compile_expression`` does.

        Roots the real sweep serves from the session cache (canonical twins,
        template hits) are not staged: they compile nothing there either.
        """
        perf = time.perf_counter
        totals: Dict[str, float] = {}
        sweep_span = recorder.begin("layer_sweep")

        def timed(layer: str, call: Callable[[], object], parent: int) -> object:
            start = perf()
            result = call()
            end = perf()
            totals[layer] = totals.get(layer, 0.0) + (end - start) * 1e3
            recorder.add(layer, start, end, parent=parent)
            return result

        counts = dict.fromkeys(("iterations", "enodes", "applied", "found", "fallbacks"), 0)
        cost_ratios: List[float] = []
        ilp_ratios: List[float] = []
        entries: List[Tuple[Root, PlanEntry]] = []
        sessions: Dict[str, Session] = {}
        outside_pipeline_ms = 0.0
        for root in state.roots:
            span = recorder.begin(f"root:{root.kind}", parent=sweep_span.span_id)
            parent = span.span_id
            config = config_for(root.ring)
            compiles = not state.baseline[root.kind][-2]  # not a cache hit in the real sweep
            if compiles:
                signature = timed(
                    "canonical.fingerprint_ms", lambda: signature_of(root.expr), parent
                )
                staged = StagedCompile(config, timed, parent, ilp=root.family.name in ILP_FAMILIES)
                optimized = staged.run(root.expr)
                for key in counts:
                    counts[key] += staged.counts[key]
                ilp_ratios.extend(staged.ilp_ratios)
                artifact = timed(
                    "optimizer.compile_ms", lambda: compile_expression(root.expr, config), parent
                )
                if str(artifact.optimized) != str(optimized):
                    raise AssertionError(
                        f"{root.kind}: staged pipeline and compile_expression disagree"
                    )
                timed("runtime.fuse_ms", lambda: artifact.fused, parent)
                guard = timed(
                    "optimizer.guard_ms", lambda: derive_guard(signature, artifact, config), parent
                )
                report = artifact.report
                if report.optimized_cost > 0:
                    cost_ratios.append(report.original_cost / report.optimized_cost)
                entries.append(
                    (root, PlanEntry(
                        artifact=artifact,
                        slot_plan=slot_expression(artifact.fused, signature),
                        signature=signature,
                        guard=guard,
                    ))
                )
            session = sessions.get(root.ring)
            if session is None:
                session = sessions[root.ring] = Session(config)
            # The program's own `compile` span is the pipeline's share of this
            # very call; the calls timed above ran at another moment, and a
            # difference of two separately timed seconds is mostly noise.
            obs.enable(metrics=False)
            try:
                start = perf()
                session.compile(root.expr)
                middle = perf()
            finally:
                obs.disable()
            session.compile(root.expr)
            end = perf()
            recorder.add("Session.compile", start, middle, parent=parent)
            recorder.add("api.cache.hit_us", middle, end, parent=parent)
            if compiles:
                inside = [s for s in obs.tracer().finished() if s.name == "compile"][-1]
                outside_pipeline_ms += (middle - start - inside.duration) * 1e3
            totals["api.cache.hit_us"] = totals.get("api.cache.hit_us", 0.0) + (end - middle) * 1e6
            recorder.finish(span)

        # taken now: a rung whose guard refuses it really compiles, below
        compilations = sum(s.compilations for s in sessions.values())
        rest = recorder.begin("persist+build", parent=sweep_span.span_id)
        notes["template_hits"] = self._template_rung(state, sessions, timed, rest.span_id)
        codec_bytes = self._persistence(state, entries, timed, rest.span_id, index)
        source_bytes = self._builds(entries, timed, rest.span_id)
        for root in state.roots:
            if root.ring == "real":  # Fig. 16's baseline row
                timed("systemml.opt2_ms",
                      lambda: fuse_operators(optimize_opt2(root.expr).optimized), rest.span_id)
        recorder.finish(rest)
        recorder.finish(sweep_span)

        layers = dict(totals)
        staged_ms = sum(totals[name] for name in _STAGES)
        layers["trace.compile_accounted_share"] = (staged_ms + totals["optimizer.guard_ms"]) / (
            totals["optimizer.compile_ms"] + totals["optimizer.guard_ms"]
        )
        layers["api.session.compile_self_ms"] = outside_pipeline_ms - sum(
            totals[name] for name in _BESIDE_PIPELINE
        )
        layers["egraph.iterations"] = counts["iterations"]
        layers["egraph.enodes"] = counts["enodes"]
        layers["egraph.matches_applied"] = counts["applied"]
        layers["egraph.match_yield"] = counts["applied"] / max(1, counts["found"])
        layers["extract.greedy_vs_ilp_cost"] = geomean(ilp_ratios) if ilp_ratios else 0.0
        layers["cost.plan_cost_ratio_geomean"] = geomean(cost_ratios)
        layers["optimizer.fallback_regions"] = counts["fallbacks"]
        layers["api.session.compilations"] = compilations
        layers["serialize.codec.bytes"] = codec_bytes
        layers["runtime.codegen.source_bytes"] = source_bytes
        return layers

    @staticmethod
    def _template_rung(state: State, sessions: Dict[str, Session], timed, parent: int) -> int:
        """Compile the next ``build_ladder`` point through the warm sessions."""
        hits = 0
        for name in dict.fromkeys(root.family.name for root in state.roots):
            registry = WORKLOADS if name in WORKLOADS else SEMIRING_WORKLOADS
            rung = registry[name].build_ladder(count=2, base_label="S")[1]
            for expr in rung.roots.values():
                plan = timed(
                    "api.cache.template_hit_ms",
                    lambda: sessions[rung.semiring].compile(expr), parent,
                )
                hits += bool(plan.template_hit)
        return hits

    @staticmethod
    def _persistence(state: State, entries, timed, parent: int, index: int) -> int:
        total_bytes = 0
        stores: Dict[str, PlanStore] = {}
        for root, entry in entries:
            raw = timed("serialize.codec.dumps_ms", lambda: dumps_entry(entry), parent)
            total_bytes += len(raw)
            loaded = timed("serialize.codec.loads_ms", lambda: loads_entry(raw), parent)
            if str(loaded.slot_plan) != str(entry.slot_plan):
                raise AssertionError(f"{root.kind}: codec round-trip changed the plan")
            store = stores.get(root.ring)
            if store is None:
                path = os.path.join(state.scratch, f"store_{index}_{root.ring}")
                store = stores[root.ring] = PlanStore(path, config_for(root.ring))
            timed("serialize.store.save_ms",
                  lambda: store.save(entry.signature.digest, entry), parent)
        cold = {ring: PlanStore(store.path, config_for(ring)) for ring, store in stores.items()}
        for root, entry in entries:
            loaded = timed("serialize.store.load_ms",
                           lambda: cold[root.ring].load(entry.signature.digest), parent)
            if loaded is None:
                raise AssertionError(f"{root.kind}: saved entry did not load back")
        warm = {
            ring: Session(config_for(ring), store=PlanStore(store.path, config_for(ring)))
            for ring, store in stores.items()
        }
        for root in state.roots:
            timed("api.session.store_warm_ms",
                  lambda: warm[root.ring].compile(root.expr), parent)
        if any(session.compilations for session in warm.values()):
            raise AssertionError("a session on the warm store compiled something")
        return total_bytes

    @staticmethod
    def _builds(entries, timed, parent: int) -> int:
        source_bytes = 0
        for root, entry in entries:
            timed("runtime.tape.build_ms",
                  lambda: TapePlan(entry.slot_plan, len(entry.signature.slots), ring=root.ring),
                  parent)
        clear_module_cache()
        for layer in ("runtime.codegen.build_ms", "runtime.codegen.cached_build_ms"):
            for root, entry in entries:
                slots = entry.signature.slots
                fused = timed(
                    layer,
                    lambda: compile_fused(
                        entry.slot_plan, len(slots), ring=root.ring,
                        slot_sparsity={s.index: s.sparsity for s in slots},
                    ),
                    parent,
                )
                if fused is not None and layer == "runtime.codegen.build_ms":
                    source_bytes += len(fused.source)
        return source_bytes


class StagedCompile:
    """``compile_expression`` spelled out stage by stage, each stage timed.

    Mirrors ``repro.optimizer.pipeline``: split at barriers, then per
    sum-product region lower → saturate → extract → lift (+ simplify), keep
    the region only if its fused cost does not regress, simplify the whole.
    """

    def __init__(self, config: OptimizerConfig, timed, parent: int, ilp: bool) -> None:
        self.config = config
        self.ring = config.ring()
        self.cost_model = LACostModel(ring=self.ring)
        self.timed = timed
        self.parent = parent
        self.ilp = ilp
        self.counts = {"iterations": 0, "enodes": 0, "applied": 0, "found": 0, "fallbacks": 0}
        self.ilp_ratios: List[float] = []

    def run(self, expr: la.LAExpr) -> la.LAExpr:
        optimized = self._node(expr, {})
        optimized = self.timed(
            "translate.lift_ms", lambda: simplify(optimized, ring=self.ring), self.parent
        )
        original_cost, optimized_cost = self.timed(
            "cost.estimate_ms",
            lambda: (self.cost_model.total(expr), self.cost_model.total(optimized)),
            self.parent,
        )
        return expr if optimized_cost > original_cost else optimized

    def _node(self, expr: la.LAExpr, cache: Dict[la.LAExpr, la.LAExpr]) -> la.LAExpr:
        if expr in cache:
            return cache[expr]
        if is_barrier(expr) or any(is_barrier(node) for node in dag.postorder(expr)):
            children = [self._node(child, cache) for child in expr.children]
            result = expr if not expr.children else expr.with_children(children)
        else:
            result = self._region(expr)
        cache[expr] = result
        return result

    def _plan_cost(self, expr: la.LAExpr) -> float:
        if self.config.fusion_aware and self.ring.is_real:
            expr = fuse_operators(expr)
        return self.cost_model.total(expr)

    def _region(self, expr: la.LAExpr) -> la.LAExpr:
        if not expr.children:
            return expr
        timed, parent = self.timed, self.parent
        try:
            lowering = timed("translate.lower_ms", lambda: lower(expr), parent)
            egraph = EGraph()

            def saturate():
                root = egraph.add_term(lowering.plan.body)
                rules = relational_rules(indexed=self.config.indexed_matching, ring=self.ring)
                return root, Runner(self.config.runner).run(egraph, rules)

            root, report = timed("egraph.saturate_ms", saturate, parent)
            self.counts["iterations"] += report.num_iterations
            self.counts["enodes"] += report.final_enodes
            self.counts["applied"] += sum(i.matches_applied for i in report.iterations)
            self.counts["found"] += sum(i.matches_found for i in report.iterations)
            extraction = timed(
                "extract.greedy_ms", lambda: GreedyExtractor().extract(egraph, root), parent
            )
            if self.ilp:
                exact = timed(
                    "extract.ilp_ms",
                    lambda: ILPExtractor(time_limit=self.config.ilp_time_limit).extract(
                        egraph, root
                    ),
                    parent,
                )
                if exact.cost > 0:
                    self.ilp_ratios.append(extraction.cost / exact.cost)

            def lift_back():
                plan = RPlanOutput(extraction.expr, lowering.plan.row_attr, lowering.plan.col_attr)
                lifted = lift(plan, lowering.symbols, lowering.ones_dims)
                return simplify(lifted, ring=self.ring) if self.config.simplify_output else lifted

            lifted = timed("translate.lift_ms", lift_back, parent)
        except (LoweringError, LiftError):
            self.counts["fallbacks"] += 1
            return expr
        regressed = timed(
            "cost.estimate_ms", lambda: self._plan_cost(lifted) > self._plan_cost(expr), parent
        )
        if regressed:
            self.counts["fallbacks"] += 1
            return expr
        return lifted


def exact_counts(plans: List[object], compilations: int) -> Dict[str, float]:
    """The ‡ counts visible without tracing, from the compiled plans' own reports.

    The traced run recomputes them through the staged pipeline and fails if
    the two disagree — the "byte-identical between the untraced and the
    traced run" guard.  Cache-hit plans (twins, template hits) share a
    report with the plan that compiled and are skipped: they saturated nothing.
    """
    totals = dict.fromkeys(("iterations", "enodes", "applied", "found", "fallbacks"), 0)
    ratios = []
    for plan in plans:
        if plan.cache_hit:
            continue
        report = plan.report
        if report.optimized_cost > 0:
            ratios.append(report.original_cost / report.optimized_cost)
        totals["fallbacks"] += report.fallback_regions
        for run in report.saturation_reports:
            totals["iterations"] += run.num_iterations
            totals["enodes"] += run.final_enodes
            totals["applied"] += sum(i.matches_applied for i in run.iterations)
            totals["found"] += sum(i.matches_found for i in run.iterations)
    return {
        "egraph.iterations": totals["iterations"],
        "egraph.enodes": totals["enodes"],
        "egraph.matches_applied": totals["applied"],
        "egraph.match_yield": totals["applied"] / max(1, totals["found"]),
        "cost.plan_cost_ratio_geomean": geomean(ratios),
        "optimizer.fallback_regions": totals["fallbacks"],
        "api.session.compilations": compilations,
    }


#: the stages ``compile_expression`` is made of, as the staged pipeline times them
_STAGES = (
    "translate.lower_ms", "egraph.saturate_ms", "extract.greedy_ms",
    "translate.lift_ms", "cost.estimate_ms",
)

#: what ``Session.compile`` calls on a miss besides ``compile_expression``;
#: the rest of the call is its self time
_BESIDE_PIPELINE = ("canonical.fingerprint_ms", "runtime.fuse_ms", "optimizer.guard_ms")
