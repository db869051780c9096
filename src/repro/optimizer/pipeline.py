"""The SPORES optimizer pipeline (Fig. 13).

The core is the pure function :func:`compile_expression`: it takes an LA
expression (a HOP-DAG root in SystemML terms) and returns a serializable
:class:`PlanArtifact` — the equivalent, hopefully cheaper, expression plus
its full lineage (report, fused physical plan).  The phases:

1. the DAG is split at *optimization barriers* (operators outside the
   sum-product fragment — element-wise division, ``exp``/``log``/…,
   fractional powers).  Each barrier's children are optimized recursively
   and the barrier itself is preserved, exactly as SystemML's DAGs are "cut
   into small pieces by uninterpreted functions" (Sec. 4.3);
2. each sum-product region is lowered to RA (R_LR);
3. the RA plan seeds an e-graph which is saturated with R_EQ under the
   configured strategy (sampling or depth-first);
4. the cheapest equivalent plan is extracted (greedy or ILP) under the
   sparsity/nnz cost model;
5. the plan is lifted back to LA and cleaned up.

Every phase is timed; the resulting :class:`OptimizationReport` is what the
compile-time figures of the paper (Fig. 16) are built from.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro import obs
from repro.cost.la_cost import LACostModel
from repro.egraph.graph import EGraph
from repro.egraph.runner import Runner, RunReport
from repro.extract import GreedyExtractor, ILPExtractor
from repro.lang import dag
from repro.lang import expr as la
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.ring_gate import check_ring_compatibility
from repro.ra.rexpr import RPlanOutput
from repro.reliability.errors import OptimizerBudgetExceeded
from repro.reliability.faults import NO_FAULTS, FaultInjector
from repro.runtime.fusion import fuse_operators
from repro.runtime.layout import row_major_reads
from repro.runtime.semiring import resolve_semiring
from repro.translate import LiftError, LoweringError, lift, lower, simplify
from repro.translate.lower import is_barrier

# Global observability instruments (no-ops until `repro.obs.enable()`).
# Resolved once at import: the registry hands back the same objects for the
# same names, so these are stable references, not per-call lookups.
_TRACER = obs.tracer()
_COMPILES = obs.registry().counter(
    "compile_total", "Expressions compiled through the optimizer pipeline"
)
_COMPILE_SECONDS = obs.registry().histogram(
    "compile_seconds", "Wall-clock seconds per compiled expression"
)
_REGION_FALLBACKS = obs.registry().counter(
    "compile_region_fallbacks_total",
    "Sum-product regions that fell back to their original expression",
)


@dataclass
class PhaseTimes:
    """Wall-clock seconds spent in each optimizer phase."""

    translate: float = 0.0
    saturate: float = 0.0
    extract: float = 0.0

    @property
    def total(self) -> float:
        return self.translate + self.saturate + self.extract

    def __iadd__(self, other: "PhaseTimes") -> "PhaseTimes":
        self.translate += other.translate
        self.saturate += other.saturate
        self.extract += other.extract
        return self


@dataclass
class OptimizationReport:
    """Result of optimizing one LA expression."""

    original: la.LAExpr
    optimized: la.LAExpr
    #: ``None`` on a report decoded from a plan store: wall-clock readings
    #: are not part of the persisted artifact
    phase_times: Optional[PhaseTimes] = field(default_factory=PhaseTimes)
    saturation_reports: List[RunReport] = field(default_factory=list)
    original_cost: float = 0.0
    optimized_cost: float = 0.0
    #: regions that fell back to the original expression (lift failure or no
    #: improvement found)
    fallback_regions: int = 0
    regions: int = 0

    @property
    def improved(self) -> bool:
        return self.optimized_cost < self.original_cost

    @property
    def speedup_estimate(self) -> float:
        """Estimated cost ratio original/optimized.

        A zero optimized cost against a positive original cost is a *real*
        (unbounded) speedup — e.g. the whole expression folded to a constant
        — and reports ``inf`` rather than pretending nothing improved.  Only
        when both costs are zero (nothing to optimize) is the ratio 1.
        """
        if self.optimized_cost <= 0:
            return float("inf") if self.original_cost > 0 else 1.0
        return self.original_cost / self.optimized_cost

    @property
    def saturated(self) -> bool:
        return all(report.saturated for report in self.saturation_reports)


# ---------------------------------------------------------------------------
# The pure pipeline core
# ---------------------------------------------------------------------------


def _optimize_node(
    expr: la.LAExpr,
    report: OptimizationReport,
    cache: Dict[la.LAExpr, la.LAExpr],
    config: OptimizerConfig,
    cost_model: LACostModel,
    faults: FaultInjector,
    deadline: Optional[float],
) -> la.LAExpr:
    """Optimize ``expr``, splitting at barrier operators."""
    if expr in cache:
        return cache[expr]
    if is_barrier(expr) or _contains_barrier(expr):
        children = [
            _optimize_node(child, report, cache, config, cost_model, faults, deadline)
            for child in expr.children
        ]
        result = expr if not expr.children else expr.with_children(children)
    else:
        result = _optimize_region(expr, report, config, cost_model, faults, deadline)
    cache[expr] = result
    return result


def _contains_barrier(expr: la.LAExpr) -> bool:
    return any(is_barrier(node) for node in dag.postorder(expr))


def _check_budget(deadline: Optional[float], report: OptimizationReport) -> None:
    """Raise :class:`OptimizerBudgetExceeded` once the compile deadline passed.

    Checked between phases and regions (Python can't preempt a saturation
    run mid-iteration; the runner's own ``time_limit`` bounds each run), so
    an overrunning compile stops at the next phase boundary instead of
    starting another region's saturation.
    """
    if deadline is not None and time.perf_counter() > deadline:
        raise OptimizerBudgetExceeded(
            f"optimizer budget exhausted after {report.regions} region(s); "
            "falling back to the baseline plan is sound (R_EQ)"
        )


def _optimize_region(
    expr: la.LAExpr,
    report: OptimizationReport,
    config: OptimizerConfig,
    cost_model: LACostModel,
    faults: FaultInjector,
    deadline: Optional[float],
) -> la.LAExpr:
    """Optimize one sum-product region: lower, saturate, extract, lift.

    Fault contract (``optimizer.saturate``): checked once per region just
    before the saturation run, alongside the wall-clock budget.  A raised
    :class:`OptimizerBudgetExceeded` propagates out of the whole compile —
    the session catches it and degrades to the baseline plan; nothing
    half-optimized is ever returned.
    """
    report.regions += 1
    if not expr.children:
        return expr
    phase = PhaseTimes()
    _check_budget(deadline, report)
    faults.check("optimizer.saturate", str(report.regions - 1))
    try:
        # Each phase keeps its PhaseTimes accumulation (the compile-time
        # figures depend on it) and additionally opens a trace
        # span — spans carry tree structure and export; PhaseTimes stays the
        # cheap always-on aggregate.
        with _TRACER.span("compile.lower", region=report.regions - 1):
            start = time.perf_counter()
            lowering = lower(expr)
            phase.translate += time.perf_counter() - start

        egraph = EGraph()
        egraph.pinned_vars = _pinned_names(lowering)
        runner = config.runner
        if egraph.pinned_vars:
            # A pinned plan is amortised over the runs that adopt it, and the
            # hoisted form (distribute, swap sums, factor out the Gram class)
            # is several rewrites deep: saturate to the fixpoint.
            runner = replace(runner, plateau=0)
        with _TRACER.span("compile.saturate", region=report.regions - 1) as saturate_span:
            start = time.perf_counter()
            root = egraph.add_term(lowering.plan.body)
            run_report = Runner(runner).run(egraph, config.rules())
            phase.saturate += time.perf_counter() - start
            saturate_span.set_attribute("iterations", run_report.num_iterations)
            saturate_span.set_attribute("stop_reason", run_report.stop_reason.value)
            saturate_span.set_attribute("enodes", run_report.final_enodes)
            saturate_span.set_attribute("best_cost", run_report.best_cost)
            saturate_span.set_attribute("stale_iterations", run_report.stale_iterations)
        report.saturation_reports.append(run_report)
        _check_budget(deadline, report)

        with _TRACER.span("compile.extract", region=report.regions - 1) as extract_span:
            start = time.perf_counter()
            extractor = _make_extractor(config)
            extraction = extractor.extract(egraph, root)
            phase.extract += time.perf_counter() - start
            extract_span.set_attribute("extractor", config.extractor)

        with _TRACER.span("compile.lift", region=report.regions - 1):
            start = time.perf_counter()
            plan = RPlanOutput(extraction.expr, lowering.plan.row_attr, lowering.plan.col_attr)
            lifted = lift(plan, lowering.symbols, lowering.ones_dims)
            lifted = simplify(lifted, ring=config.ring()) if config.simplify_output else lifted
            phase.translate += time.perf_counter() - start
    except (LoweringError, LiftError):
        report.fallback_regions += 1
        _REGION_FALLBACKS.inc()
        report.phase_times += phase
        return expr
    report.phase_times += phase

    # Rewrites must not regress (SystemML behaves the same way): keep the
    # region's original when the extracted plan estimates costlier — or, with
    # symbolic dims, would need an extent the original runs without.
    if _fills_unsized(lifted) or (
        _plan_cost(lifted, config, cost_model) > _plan_cost(expr, config, cost_model)
    ):
        report.fallback_regions += 1
        _REGION_FALLBACKS.inc()
        return expr
    return lifted


def _pinned_names(lowering) -> frozenset:
    """RA names of a region's pinned inputs, plus its ones vectors (constants)
    when there is any pinned input at all."""
    pinned = frozenset(name for name, var in lowering.symbols.items() if var.pinned)
    return pinned | frozenset(lowering.ones_dims) if pinned else pinned


def breakeven_runs(pinned: "PlanArtifact", unpinned: "PlanArtifact", ring=None) -> float:
    """Repeats of the pinned inputs after which the pinned plan pays (ski rental).

    ``pinned`` was compiled with some inputs marked ``Var.pinned``; its
    :class:`~repro.cost.la_cost.LACostModel` report splits into the per-run
    ``total`` and the ``hoisted`` cost paid once per pinned value.  It is
    priced as its executable runs it, layout steps included
    (:func:`~repro.runtime.layout.row_major_reads` on the real ring).  Each
    run saves ``total(unpinned) - total(pinned)``, so the hoisted build pays
    for itself after ``N* = hoisted / saving`` runs on the same pinned
    values; ``inf`` when the pinned plan saves nothing per run.
    """
    model = LACostModel(ring=resolve_semiring(ring))
    plan = pinned.fused
    if model.ring.is_real:
        plan = row_major_reads(plan)
    report = model.cost(plan)
    saving = model.total(unpinned.fused) - report.total
    if saving <= 0:
        return math.inf
    return float(math.ceil(report.hoisted / saving))


def _fills_unsized(expr: la.LAExpr) -> bool:
    """Whether a plan holds a ``matrix(v, r, c)`` the runtime could not
    materialise: lifting turns an aggregate over a broadcast into a sum of
    ones over the dim, which only a declared size makes executable."""
    return any(
        isinstance(node, la.FilledMatrix) and node.fill_shape.ncells() is None
        for node in dag.postorder(expr)
    )


def _plan_cost(expr: la.LAExpr, config: OptimizerConfig, cost_model: LACostModel) -> float:
    """Estimated cost of a plan, after fusion when fusion-aware.

    Fusion only applies under the real ring: the fused operators (wsloss,
    sprop, mmchain, …) hard-code real arithmetic, so for any other ring the
    candidate plans are compared — and later executed — unfused.
    """
    if config.fusion_aware and config.ring().is_real:
        expr = fuse_operators(expr)
    return cost_model.total(expr)


def _make_extractor(config: OptimizerConfig):
    if config.extractor == "ilp":
        return ILPExtractor(time_limit=config.ilp_time_limit)
    return GreedyExtractor()


# ---------------------------------------------------------------------------
# Compile-once artifacts (the Session API's unit of caching)
# ---------------------------------------------------------------------------


@dataclass
class PlanArtifact:
    """The result of compiling one LA expression, with full lineage.

    This is the serializable artifact the Session API (:mod:`repro.api`)
    caches and executes: the declared expression, the logical plan the
    extractor chose, the physical plan after operator fusion, and the
    :class:`OptimizationReport` (phase timings, saturation reports, costs)
    the compile-time figures are built from.  ``fused`` is what the runtime
    executes; ``optimized`` is kept so the algebraic rewrite remains
    inspectable after fusion has collapsed it into physical operators.
    """

    original: la.LAExpr
    optimized: la.LAExpr
    report: OptimizationReport
    extractor: str = "greedy"
    #: whether the physical plan applies operator fusion (config.fusion_aware)
    fusion_aware: bool = True
    _fused: Optional[la.LAExpr] = field(default=None, repr=False)

    @property
    def fused(self) -> la.LAExpr:
        """The physical plan, fusing lazily on first access.

        Callers that only read the report never pay the fusion pass; it runs
        when something (the Session, serialization) actually needs the
        executable plan.  The computation is idempotent, making the
        unsynchronized cache benign under concurrent access.
        """
        if self._fused is None:
            self._fused = (
                fuse_operators(self.optimized) if self.fusion_aware else self.optimized
            )
        return self._fused

    @property
    def improved(self) -> bool:
        return self.report.improved

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable lineage record of this compilation.

        Expressions are rendered with the DML-like printer; the record is an
        audit artifact (what was compiled, what it became, what it cost),
        not a loadable plan format — the loadable codec lives in
        :mod:`repro.serialize`, which the persistent plan store uses to
        round-trip whole artifacts across processes.
        """
        report = self.report
        speedup = report.speedup_estimate
        times = report.phase_times
        return {
            "original": str(self.original),
            "optimized": str(self.optimized),
            "fused": str(self.fused),
            "extractor": self.extractor,
            "original_cost": report.original_cost,
            "optimized_cost": report.optimized_cost,
            # strict-JSON safe: an unbounded speedup serializes as null, not
            # the non-standard Infinity token json.dumps would emit
            "speedup_estimate": speedup if math.isfinite(speedup) else None,
            "regions": report.regions,
            "fallback_regions": report.fallback_regions,
            "phase_times": None
            if times is None
            else {
                "translate": times.translate,
                "saturate": times.saturate,
                "extract": times.extract,
                "total": times.total,
            },
            "saturation": [
                {
                    "stop_reason": run.stop_reason.value,
                    "saturated": run.saturated,
                    "iterations": run.num_iterations,
                    "final_enodes": run.final_enodes,
                    "final_classes": run.final_classes,
                    "best_cost": run.best_cost,
                    "stale_iterations": run.stale_iterations,
                    "total_time": run.total_time,
                }
                for run in report.saturation_reports
            ],
        }


def compile_expression(
    expr: la.LAExpr,
    config: Optional[OptimizerConfig] = None,
    faults: Optional[FaultInjector] = None,
    budget: Optional[float] = None,
) -> PlanArtifact:
    """Compile ``expr`` once: lower, saturate, extract, lift, fuse.

    This is the pipeline's single entry point and its only stateful-looking
    seam — a pure function of ``(expr, config)``: the same inputs always
    produce the same artifact.  The Session API builds its plan cache on it.

    ``budget`` bounds the whole compile's wall clock (seconds): on overrun
    — checked at phase boundaries — the compile raises
    :class:`~repro.reliability.OptimizerBudgetExceeded` instead of
    returning, and the caller (the session's degraded-mode path) falls
    back to :func:`baseline_artifact`.  ``faults`` threads the
    fault-injection schedule through the ``optimizer.saturate`` site; the
    defaults keep the function pure and quiet.
    """
    config = config or OptimizerConfig()
    ring = config.ring()
    if not ring.is_real:
        check_ring_compatibility(expr, ring)
    cost_model = LACostModel(ring=ring)
    injector = faults or NO_FAULTS
    deadline = None if budget is None else time.perf_counter() + budget
    report = OptimizationReport(original=expr, optimized=expr)
    with _TRACER.span("compile") as compile_span, _COMPILE_SECONDS.time():
        optimized = _optimize_node(expr, report, {}, config, cost_model, injector, deadline)
        if config.simplify_output:
            optimized = simplify(optimized, ring=ring)
        compile_span.set_attribute("regions", report.regions)
        compile_span.set_attribute("fallback_regions", report.fallback_regions)
    _COMPILES.inc()
    report.optimized = optimized
    report.original_cost = cost_model.total(expr)
    report.optimized_cost = cost_model.total(optimized)
    if report.optimized_cost > report.original_cost:
        report.optimized = expr
        report.optimized_cost = report.original_cost
    return PlanArtifact(
        original=expr,
        optimized=report.optimized,
        report=report,
        extractor=config.extractor,
        fusion_aware=config.fusion_aware and ring.is_real,
    )


def baseline_artifact(
    expr: la.LAExpr, config: Optional[OptimizerConfig] = None
) -> PlanArtifact:
    """The degraded-mode artifact: ``expr`` unoptimized, no saturation.

    Sound by construction — R_EQ guarantees every optimized plan equals
    the input, so the input itself is always a correct plan.  Operator
    fusion (when configured) is still applied lazily by the artifact: it
    is the physical lowering both the cost model and the executor assume,
    not an algebraic rewrite.  This is what the session executes when the
    optimizer overruns its budget or crashes; it costs two cost-model
    walks and nothing else.
    """
    config = config or OptimizerConfig()
    ring = config.ring()
    cost = LACostModel(ring=ring).total(expr)
    report = OptimizationReport(original=expr, optimized=expr)
    report.original_cost = cost
    report.optimized_cost = cost
    return PlanArtifact(
        original=expr,
        optimized=expr,
        report=report,
        extractor=config.extractor,
        fusion_aware=config.fusion_aware and ring.is_real,
    )
