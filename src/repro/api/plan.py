"""Compiled plans: the execute-many half of the Session API.

A :class:`CompiledPlan` is what :meth:`repro.api.Session.compile` returns.
It wraps the shared, cached compilation artifact (the name-free slot-space
physical plan plus its optimization lineage) together with *this request's*
view of it: the mapping from the request's input names to slots.  Two
requests whose expressions are renamed-but-isomorphic share one cached
artifact and hold two cheap :class:`CompiledPlan` views.

``plan.run(**inputs)`` binds concrete values to the slots — validating that
every declared input is provided, nothing extra is, and the shapes match
the compiled dimension sizes — and executes the slot-space plan on the
plan's one executable (:func:`repro.runtime.codegen.build_executable`, built
on first use; the serving engine runs the same object).  Every execution is
recorded in per-plan statistics, including the observed sparsity of each
input; when the observed non-zero count drifts far from the hint the cost
model optimized under, the owning Session recompiles the plan against the
observed statistics (the plan object keeps working, now backed by the
re-optimized artifact).

A plan also learns which of its inputs are *pinned*: the same object run
after run, like a solver's data ``X`` while its parameters move.  When some
but not all slots repeat, the owning Session compiles a variant with those
slots pinned — the cost model charges what only they determine once, so
extraction may pick a Gram form ``(t(X) %*% X) %*% s`` — and the plan
adopts it once the pinned objects have repeated as often as the variant
needs to repay its hoisted build.  A pinned object that changes sends the
plan back to its unpinned entry before the run that brought it.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.canonical.fingerprint import (
    ExprSignature,
    SlotSpec,
    rebind_dim_sizes,
    signature_of,
    slot_dim_name,
)
from repro.lang import dag
from repro.lang import expr as la
from repro.optimizer.guards import TemplateGuard
from repro.optimizer.pipeline import OptimizationReport, PlanArtifact
from repro.runtime.codegen import FusedPlan, build_executable, stackable_slot
from repro.runtime.data import MatrixValue, as_value
from repro.runtime.engine import ExecutionResult
from repro.runtime.semiring import Semiring, resolve_semiring
from repro.runtime.tape import TapePlan

InputValue = Union[MatrixValue, np.ndarray, float, int]

logger = logging.getLogger(__name__)


class PlanBindingError(ValueError):
    """Raised when inputs cannot be bound to a compiled plan's slots."""


class TemplateGuardError(ValueError):
    """Raised when an instantiation falls outside a template's guard."""


#: observed nnz may exceed (or undershoot) the compiled hint by this factor
#: before a plan is considered stale
DEFAULT_DRIFT_FACTOR = 8.0

#: weight of the newest observation in the per-slot sparsity EWMA that
#: gates drift detection.  The EWMA is seeded at the compiled hint, so one
#: moderate outlier cannot trigger a recompile (the smoothed value moves
#: only this weight of the way), while a sustained regime change converges
#: on the observed level within a few executions and trips the drift factor.
DEFAULT_DRIFT_ALPHA = 0.4


@dataclass(frozen=True)
class PlanEntry:
    """The cached unit: one compilation artifact in slot space.

    Shared by every :class:`CompiledPlan` whose expression fingerprints to
    the same key; immutable so sharing across threads is safe.

    Since the plan-template refactor an entry doubles as a **guarded
    template**: ``guard`` records the compile-time size of every dimension
    slot, and the artifact may serve *other* instance digests of the same
    :attr:`template_digest` through cheap size re-pinning wherever its plan
    still costs no more than the original at the requested sizes
    (:func:`specialize_entry`).  ``guard=None`` means exact-match only.
    """

    artifact: PlanArtifact
    #: the fused physical plan with inputs renamed to slot variables
    slot_plan: la.LAExpr
    #: signature of the expression this entry serves.  For a freshly
    #: compiled entry that is the compiling expression's signature; for a
    #: template specialization it is the *instance's* signature (sizes
    #: re-pinned, names of whoever triggered the specialization).
    signature: ExprSignature
    #: cross-size validity region, or ``None`` for exact-match only
    guard: Optional[TemplateGuard] = None
    #: this entry is the *unoptimized baseline* plan, installed because the
    #: optimizer overran its budget or crashed (sound by construction —
    #: R_EQ keeps every rewrite semantically equal to the input).  Degraded
    #: entries are never persisted to the store and never serve as
    #: templates; a later compile with budget to spare replaces them.
    degraded: bool = False

    @property
    def template_digest(self) -> str:
        """Size-free digest this entry can serve (via its guard)."""
        return self.signature.template_digest

    def executable(self, ring: Union[str, Semiring, None] = None) -> TapePlan:
        """The one executor of this entry on ``ring``, built on first use.

        :func:`~repro.runtime.codegen.build_executable` over the slot plan:
        a :class:`~repro.runtime.codegen.FusedPlan` under real arithmetic,
        the plain :class:`~repro.runtime.tape.TapePlan` otherwise.  Every
        :class:`CompiledPlan` view of the entry and the serving engine run
        this object.  The memo is not a dataclass field, so neither equality
        nor the codec sees it; ``dict.setdefault`` makes concurrent first
        uses agree on one object.
        """
        ring = resolve_semiring(ring)
        memo = self.__dict__.setdefault("_executables", {})
        built = memo.get(ring.name)
        if built is None:
            built = build_executable(
                self.slot_plan,
                len(self.signature.slots),
                ring=ring,
                slot_sparsity={spec.index: spec.sparsity for spec in self.signature.slots},
                pinned=frozenset(spec.index for spec in self.signature.slots if spec.pinned),
            )
            built = memo.setdefault(ring.name, built)
        return built


def specialize_entry(entry: PlanEntry, signature: ExprSignature) -> Optional[PlanEntry]:
    """Re-pin a template entry to a new instance's sizes, if its guard admits them.

    Returns ``None`` unless ``entry.guard`` admits the instance
    (:meth:`~repro.optimizer.guards.TemplateGuard.admits`: one cost
    comparison at the instance's sizes).  Callers match the template
    digest first.  On admission the slot-space physical plan is rebuilt
    with every canonical dimension slot bound to the instance's size — one
    linear DAG walk, no saturation — and the entry adopts the instance's
    signature (its sizes, sparsity hints and input names).  The artifact
    and guard are shared with the pivot: specializations compose, so a
    specialized entry is itself a valid template candidate for further
    sizes.
    """
    if entry.guard is None or not entry.guard.admits(signature, entry.artifact):
        return None
    sizes = {
        slot_dim_name(index): size
        for index, size in enumerate(signature.dim_sizes)
    }
    return PlanEntry(
        artifact=entry.artifact,
        slot_plan=rebind_dim_sizes(entry.slot_plan, sizes),
        signature=signature,
        guard=entry.guard,
        degraded=entry.degraded,
    )


@dataclass
class PlanStats:
    """Per-plan execution statistics (one plan = one request-side view)."""

    executions: int = 0
    total_elapsed: float = 0.0
    drift_events: int = 0
    recompiles: int = 0
    #: adoptions of a pinned variant, and returns to the unpinned entry
    pin_adoptions: int = 0
    pin_reverts: int = 0
    #: last observed sparsity per slot index
    observed_sparsity: Dict[int, float] = field(default_factory=dict)
    #: per-slot EWMA of the observed sparsity, seeded at the compiled hint;
    #: this smoothed value — not the raw last observation — is what drift
    #: detection compares against the hint, so one outlier request cannot
    #: trigger a recompile
    smoothed_sparsity: Dict[int, float] = field(default_factory=dict)

    @property
    def mean_elapsed(self) -> float:
        if not self.executions:
            return 0.0
        return self.total_elapsed / self.executions

    def snapshot(self) -> "PlanStats":
        """A consistent copy (callers must hold the owning plan's lock).

        ``run`` mutates several fields per execution; reading them one at a
        time from another thread can observe a torn record (executions
        incremented, elapsed not yet).  ``to_dict``/``explain`` snapshot
        through this under :attr:`CompiledPlan._lock` instead.
        """
        return PlanStats(
            executions=self.executions,
            total_elapsed=self.total_elapsed,
            drift_events=self.drift_events,
            recompiles=self.recompiles,
            pin_adoptions=self.pin_adoptions,
            pin_reverts=self.pin_reverts,
            observed_sparsity=dict(self.observed_sparsity),
            smoothed_sparsity=dict(self.smoothed_sparsity),
        )


class CompiledPlan:
    """An optimized, executable plan bound to one request's input names."""

    def __init__(
        self,
        entry: PlanEntry,
        signature: ExprSignature,
        source: la.LAExpr,
        session: Optional[object] = None,
        cache_hit: bool = False,
        template_hit: bool = False,
        ring: Union[str, Semiring, None] = None,
    ) -> None:
        self._entry = entry
        self.signature = signature
        self.source = source
        #: the owning Session, held strongly: drift and pinned recompiles go
        #: through it, and a solver loop often keeps its plans, not its session
        self._session = session
        #: whether this plan came out of the cache (saturation was skipped)
        self.cache_hit = cache_hit
        #: whether the backing artifact was specialized from a plan template
        #: compiled at *different* sizes (a guard hit): saturation was
        #: skipped, only size re-pinning was paid
        self.template_hit = template_hit
        #: the semiring this plan executes over — inherited from the owning
        #: session's config at compile time; a detached plan keeps it so
        #: re-instantiation stays in-ring
        self.ring = resolve_semiring(ring)
        self.stats = PlanStats()
        self._lock = threading.Lock()
        #: last :class:`repro.obs.profile.ProfileReport` from :meth:`profile`
        self._profile = None
        #: pinned-input learning (see :meth:`run`): the previous run's
        #: values, each slot's count of consecutive repeats, the resolved
        #: pinned variants with their break-even repeat counts, and — while
        #: a variant is adopted — its pinned slots and the unpinned entry
        self._learns = len(signature.slots) > 1 and not source.shape.is_scalar
        self._seen: Optional[List[MatrixValue]] = None
        self._repeats: List[int] = [0] * len(signature.slots)
        self._variants: Dict[Tuple[int, ...], Tuple[PlanEntry, float]] = {}
        self._pinned: Tuple[int, ...] = ()
        self._unpinned: Optional[PlanEntry] = None

    # -- introspection ---------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Canonical fingerprint of the artifact currently backing the plan."""
        return self._entry.signature.digest

    @property
    def template_digest(self) -> str:
        """Size-free template digest of the backing artifact."""
        return self._entry.template_digest

    @property
    def guard(self) -> Optional[TemplateGuard]:
        """The cross-size validity guard of the backing template (if any)."""
        return self._entry.guard

    @property
    def degraded(self) -> bool:
        """Whether this plan is the unoptimized baseline (budget fallback).

        A degraded plan computes exactly the declared expression — results
        are bitwise-identical to the optimized plan's (R_EQ soundness) —
        it just skipped the saturation the optimizer could not afford.
        """
        return self._entry.degraded

    @property
    def artifact(self) -> PlanArtifact:
        return self._entry.artifact

    @property
    def report(self) -> OptimizationReport:
        return self._entry.artifact.report

    @property
    def optimized(self) -> la.LAExpr:
        return self._entry.artifact.optimized

    @property
    def slots(self) -> Tuple[SlotSpec, ...]:
        """Slot metadata under *this request's* names.

        The request signature is digest-equal to the cached entry's — same
        sizes, same sparsity hints — so it is the authoritative description
        of the slots, with the names this plan actually binds (a cache-hit
        twin must not leak the names of whoever compiled first).
        """
        return self.signature.slots

    @property
    def input_names(self) -> Tuple[str, ...]:
        """The input names this plan binds, in slot order."""
        return self.signature.var_order

    def _in_request_names(
        self,
        expr: la.LAExpr,
        entry: Optional[PlanEntry] = None,
        signature: Optional[ExprSignature] = None,
        source: Optional[la.LAExpr] = None,
    ) -> la.LAExpr:
        """Render a cached (compile-time-named) expression in this plan's names.

        A cache-hit twin shares an artifact compiled from someone else's
        expression; everything user-facing must speak the twin's own names.
        The substitution is *simultaneous* (``dag.substitute`` applies one
        bottom-up pass over the whole mapping), which matters when the
        request permutes names the compiling expression also used — e.g.
        compiled with ``(A, B)``, requested with ``(B, A)`` in swapped
        roles — so ``A -> B`` can never collide with ``B -> A`` mid-walk.
        Callers that snapshot under the plan lock pass the snapshotted
        entry/signature/source explicitly.
        """
        entry = entry if entry is not None else self._entry
        signature = signature if signature is not None else self.signature
        source = source if source is not None else self.source
        request_vars = {var.name: var for var in dag.variables(source)}
        bindings = {
            entry_name: request_vars[request_name]
            for entry_name, request_name in zip(
                entry.signature.var_order, signature.var_order
            )
            if entry_name != request_name and request_name in request_vars
        }
        if not bindings:
            return expr
        return dag.substitute_vars(expr, bindings)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable record: lineage plus binding and run statistics.

        Everything mutable — the backing entry (a drift recompile can swap
        it), the signature, and the run statistics — is snapshotted under
        the plan lock first, so a record taken while another thread is in
        ``run`` is internally consistent, never torn.
        """
        with self._lock:
            entry = self._entry
            signature = self.signature
            source = self.source
            stats = self.stats.snapshot()
            profile = self._profile
        record = entry.artifact.to_dict()
        record["original"] = str(source)
        record["optimized"] = str(
            self._in_request_names(entry.artifact.optimized, entry, signature, source)
        )
        record["fused"] = str(
            self._in_request_names(entry.artifact.fused, entry, signature, source)
        )
        record["fingerprint"] = entry.signature.digest
        record["template_digest"] = entry.template_digest
        record["cache_hit"] = self.cache_hit
        record["template_hit"] = self.template_hit
        record["degraded"] = entry.degraded
        record["guard"] = entry.guard.to_json() if entry.guard is not None else None
        record["slots"] = [
            {
                "index": spec.index,
                "name": name,
                "rows": spec.rows,
                "cols": spec.cols,
                "sparsity": spec.sparsity,
            }
            for spec, name in zip(signature.slots, signature.var_order)
        ]
        record["stats"] = {
            "executions": stats.executions,
            "total_elapsed": stats.total_elapsed,
            "mean_elapsed": stats.mean_elapsed,
            "drift_events": stats.drift_events,
            "recompiles": stats.recompiles,
            "pin_adoptions": stats.pin_adoptions,
            "pin_reverts": stats.pin_reverts,
            "observed_sparsity": {
                str(slot): value for slot, value in sorted(stats.observed_sparsity.items())
            },
            "smoothed_sparsity": {
                str(slot): value for slot, value in sorted(stats.smoothed_sparsity.items())
            },
        }
        if profile is not None:
            record["profile"] = profile.to_dict()
        record["codegen"] = self.codegen_info()
        return record

    def executable(self) -> TapePlan:
        """The backing entry's one executor (:meth:`PlanEntry.executable`).

        ``run``, ``profile``, ``codegen_info`` and the serving engine all
        execute or describe this object; after a drift recompile swaps the
        entry, it is the new entry's.
        """
        return self._entry.executable(self.ring)

    def codegen_info(self) -> Dict[str, object]:
        """What this plan executes behind: its executable's region structure.

        Reports whether the executable is fused, its regions against the
        plain tape's step count, and the columnwise batching slot.  Purely
        introspective — it reads :meth:`executable` and executes nothing.
        """
        executable = self.executable()
        with self._lock:
            entry = self._entry
        info: Dict[str, object] = {
            "fused": isinstance(executable, FusedPlan),
            "tape_steps": executable.tape_steps,
            "batch_slot": stackable_slot(entry.slot_plan, executable.n_slots),
        }
        if isinstance(executable, FusedPlan):
            info["regions"] = len(executable)
            info["fused_regions"] = executable.fused_regions
            info["fused_operators"] = executable.fused_operators
            info["region_labels"] = [
                executable.step_label(index) for index in range(len(executable))
            ]
        return info

    def explain(self) -> str:
        """Human-readable summary of what this plan is and where it came from."""
        with self._lock:
            entry = self._entry
            signature = self.signature
            source = self.source
            stats = self.stats.snapshot()
        report = entry.artifact.report
        times = report.phase_times
        guard = entry.guard.describe() if entry.guard is not None else "none (exact)"
        smoothed = (
            ", ".join(
                f"slot {slot}: {value:.3g}"
                for slot, value in sorted(stats.smoothed_sparsity.items())
            )
            or "-"
        )
        lines = [
            f"fingerprint : {entry.signature.digest}",
            f"template    : {entry.template_digest}"
            f" ({'template hit' if self.template_hit else 'pivot'})",
            f"guard       : {guard}",
            f"cache hit   : {self.cache_hit}"
            + (" (degraded: baseline plan, optimizer budget fallback)" if entry.degraded else ""),
            "inputs      : "
            + ", ".join(
                replace(spec, pinned=backing.pinned).describe()
                for spec, backing in zip(signature.slots, entry.signature.slots)
            ),
            f"declared    : {source}",
            f"optimized   : {self._in_request_names(entry.artifact.optimized, entry, signature, source)}",
            f"physical    : {self._in_request_names(entry.artifact.fused, entry, signature, source)}",
            f"codegen     : {self._describe_codegen()}",
            f"cost        : {report.original_cost:.4g} -> {report.optimized_cost:.4g}"
            f" ({report.speedup_estimate:.3g}x estimated)",
            "compile     : loaded from a plan store (timings are not persisted)"
            if times is None
            else f"compile     : translate {times.translate * 1e3:.1f} ms,"
            f" saturate {times.saturate * 1e3:.1f} ms,"
            f" extract {times.extract * 1e3:.1f} ms",
            "saturation  : "
            + ("; ".join(run.describe() for run in report.saturation_reports) or "-"),
            f"runs        : {stats.executions}"
            f" (mean {stats.mean_elapsed * 1e3:.2f} ms,"
            f" drift events {stats.drift_events}, recompiles {stats.recompiles},"
            f" pinned variant adopted {stats.pin_adoptions}x, reverted {stats.pin_reverts}x)",
            f"sparsity    : smoothed {smoothed}",
        ]
        with self._lock:
            profile = self._profile
        if profile is not None:
            lines.append("profile     : predicted cost vs measured, per tape step")
            lines.extend("  " + line for line in profile.table())
        return "\n".join(lines)

    def _describe_codegen(self) -> str:
        """One truthful ``explain()`` line about the plan's executable."""
        info = self.codegen_info()
        batch = (
            f", column-stackable in slot {info['batch_slot']}"
            if info["batch_slot"] is not None
            else ""
        )
        if not info["fused"]:
            return f"tape (ring {self.ring.name}), {info['tape_steps']} steps{batch}"
        return (
            f"python source: {info['regions']} regions"
            f" ({info['fused_regions']} fused, {info['fused_operators']} operators"
            f" fused) vs tape {info['tape_steps']} steps{batch}"
        )

    # -- profiling ---------------------------------------------------------------
    def profile(
        self,
        inputs: Optional[Mapping[str, InputValue]] = None,
        /,
        runs: int = 1,
        **named: InputValue,
    ):
        """Execute the plan under the per-step profiler.

        Runs the plan's :meth:`executable` ``runs`` times over the given
        inputs with every step individually timed, and joins the
        measurements against the analytic cost model's per-node estimates.
        Returns the resulting :class:`repro.obs.profile.ProfileReport`; the
        report is also retained so subsequent :meth:`explain` calls render
        its predicted-cost-vs-measured table.

        A fused executable reports one row per *region*, with each row's
        predicted cost summed over the plan nodes the region covers
        (``step_group``), so fused rows stay truthful about what they
        measure; ``measured_cells`` counts what was actually materialized.

        Unlike :meth:`run`, profiling executions do not count toward the
        plan's serving statistics or drift detection — the profiler's
        per-step timing overhead would pollute both.
        """
        # Local import: repro.obs.profile pulls in the cost model, which
        # this module must not import eagerly.
        from repro.obs.profile import TapeProfiler, build_report

        if runs < 1:
            raise ValueError("profile requires runs >= 1")
        values = self._bind(inputs, named)
        with self._lock:
            entry = self._entry
        executable = self.executable()
        profiler = TapeProfiler(len(executable))
        for _ in range(runs):
            executable.execute(values, profiler=profiler)
            profiler.finish_run()
        report = build_report(executable, profiler, entry.slot_plan)
        with self._lock:
            self._profile = report
        return report

    @property
    def profile_report(self):
        """The last :meth:`profile` report, or ``None`` if never profiled."""
        with self._lock:
            return self._profile

    # -- execution -------------------------------------------------------------
    def run(
        self,
        inputs: Optional[Mapping[str, InputValue]] = None,
        /,
        **named: InputValue,
    ) -> ExecutionResult:
        """Bind inputs to slots, validate them, execute, record statistics.

        Inputs may be passed as one mapping, as keyword arguments, or both
        (keywords win on overlap).  Every declared input must be provided
        and nothing else: unknown names are rejected rather than ignored so
        typos fail loudly.  The mapping parameter is positional-only, so a
        plan input literally named ``inputs`` still binds by keyword.

        **What a plan learns.**  Under a Session with ``auto_recompile``,
        a plan with two or more inputs and a non-scalar output counts, per
        slot, the consecutive runs that bound the very same object.  When
        a non-empty strict subset of the slots repeats, the Session
        compiles the variant with those slots pinned (once per subset,
        cached like any plan) and prices it: the variant saves
        ``total(unpinned) - total(pinned)`` per run and pays its hoisted
        cost once per pinned value, so it pays after ``N* = hoisted /
        saving`` repeats.  The plan **adopts** the variant on the run where
        the pinned objects' repeat count reaches ``N*`` — its executable
        then computes each pinned-only step once per pinned value — and
        **reverts** to the unpinned entry, before executing, on the first
        run that binds a new object to a pinned slot.  Scalar outputs
        never learn: their pinned forms (``wᵀGw − 2wᵀXᵀy + yᵀy``) cancel.
        """
        values = self._bind(inputs, named)
        result = self._learn(values).execute(values)
        self._record(values, result)
        return result

    def run_batch(
        self, batches: Iterable[Mapping[str, InputValue]]
    ) -> List[ExecutionResult]:
        """Execute the plan once per input mapping (compile paid once)."""
        return [self.run(batch) for batch in batches]

    def bind(
        self,
        inputs: Optional[Mapping[str, InputValue]] = None,
        /,
        **named: InputValue,
    ) -> List[MatrixValue]:
        """Validate and coerce inputs into the plan's positional slot vector.

        The binding half of :meth:`run`, exposed for callers that execute
        the slot vector themselves (the serving tier, the benchmarks).
        Raises :class:`PlanBindingError` exactly as ``run`` would.
        """
        return self._bind(inputs, named)

    def __call__(self, **named: InputValue) -> ExecutionResult:
        return self.run(**named)

    # -- template instantiation ------------------------------------------------
    def instantiate(self, bindings: Mapping[str, int]) -> "CompiledPlan":
        """A plan for this computation at *different* dimension sizes.

        ``bindings`` maps this plan's dimension names (as declared in its
        source expression — e.g. ``{"m": 50_000}``) to new concrete sizes;
        unnamed dims keep their compiled sizes.  When the template's guard
        admits the resized instance, the returned plan shares this plan's
        artifact with only its sizes re-pinned — no saturation.

        Guard semantics: a plan owned by a :class:`~repro.api.Session` is
        instantiated through the session's normal compile path, so a guard
        miss *falls back to a fresh specialization* (a real compile at the
        new sizes, cached as usual) rather than failing.  A detached plan
        has nowhere to compile, so a guard miss raises
        :class:`TemplateGuardError`.
        """
        known = set(self.signature.dim_names)
        unknown = sorted(set(bindings) - known)
        if unknown:
            raise TemplateGuardError(
                f"unknown dimensions: {', '.join(unknown)}; "
                f"this plan's dims: {', '.join(sorted(known))}"
            )
        resized = rebind_dim_sizes(self.source, dict(bindings))
        signature = signature_of(resized)
        if signature.digest == self.signature.digest:
            return self
        session = self._session
        if session is not None:
            return session.compile(resized, signature)
        with self._lock:
            entry = self._entry
        specialized = (
            specialize_entry(entry, signature)
            if signature.template_digest == entry.template_digest
            else None
        )
        if specialized is None:
            guard = entry.guard.describe() if entry.guard is not None else "exact"
            raise TemplateGuardError(
                f"instance {dict(bindings)} is outside this template's guard "
                f"({guard}) and the plan has no session to respecialize through"
            )
        return CompiledPlan(
            specialized,
            signature,
            resized,
            session=None,
            cache_hit=True,
            template_hit=True,
            ring=self.ring,
        )

    # -- binding and validation ------------------------------------------------
    def _bind(
        self,
        inputs: Optional[Mapping[str, InputValue]],
        named: Mapping[str, InputValue],
    ) -> List[MatrixValue]:
        return bind_signature(self.signature, inputs, named)

    # -- pinned inputs -----------------------------------------------------------
    def _learn(self, values: List[MatrixValue]) -> TapePlan:
        """Count repeated input objects; adopt or leave a pinned variant.

        Returns the executable this run executes on.
        """
        session = self._session
        if not self._learns or session is None or not session.auto_recompile:
            return self.executable()
        with self._lock:
            seen, self._seen = self._seen, values
            repeats = self._repeats
            for slot, value in enumerate(values):
                repeats[slot] = repeats[slot] + 1 if seen is not None and value is seen[slot] else 0
            if self._pinned and not all(repeats[slot] for slot in self._pinned):
                self._entry, self._unpinned, self._pinned = self._unpinned, None, ()
                self.stats.pin_reverts += 1
            pinned = tuple(slot for slot, count in enumerate(repeats) if count)
            base = self._entry
            if self._pinned or not pinned or len(pinned) == len(values):
                return base.executable(self.ring)
            count = min(repeats[slot] for slot in pinned)
            variant = self._variants.get(pinned)
        if variant is None:
            try:
                variant = session._pinned_variant(self, base, pinned)
            except Exception as error:  # a variant is an optimization, never a failure
                logger.warning("pinned variant of %s failed: %s", base.signature.digest[:12], error)
                variant = (base, math.inf)
            with self._lock:
                self._variants[pinned] = variant
        entry, breakeven = variant
        if count >= breakeven:
            with self._lock:
                if self._entry is base:
                    self._entry, self._unpinned, self._pinned = entry, base, pinned
                    self.stats.pin_adoptions += 1
        return self.executable()

    # -- statistics and drift --------------------------------------------------
    def _record(self, values: List[MatrixValue], result: ExecutionResult) -> None:
        drifted: Dict[int, float] = {}
        session = self._session
        # counting non-zeros is the expensive part and needs no lock: a value
        # memoises its count, so pinned inputs are counted once, ever
        observations = [
            (spec, value.sparsity, float(value.cells))
            for spec, value in zip(self.signature.slots, values)
            if value.cells > 1
        ]
        with self._lock:
            self.stats.executions += 1
            self.stats.total_elapsed += result.stats.elapsed
            for spec, observed, cells in observations:
                self.stats.observed_sparsity[spec.index] = observed
                hint = spec.sparsity if spec.sparsity is not None else 1.0
                # Drift detection compares the *smoothed* observation, not
                # the last one: the per-slot EWMA is seeded at the compiled
                # hint, so a lone outlier moves it only the EWMA weight of the way
                # while a sustained regime change converges and trips the
                # factor within a few runs.
                previous = self.stats.smoothed_sparsity.get(spec.index, hint)
                smoothed = DEFAULT_DRIFT_ALPHA * observed + (1.0 - DEFAULT_DRIFT_ALPHA) * previous
                self.stats.smoothed_sparsity[spec.index] = smoothed
                # Expected nnz for *this* value: the compiled hint times the
                # actual cell count (shape checks already pinned concrete
                # dims, and for symbolic dims the hint still applies).
                expected_nnz = max(hint * cells, 1.0)
                smoothed_nnz = max(smoothed * cells, 1.0)
                if (
                    smoothed_nnz > expected_nnz * DEFAULT_DRIFT_FACTOR
                    or expected_nnz > smoothed_nnz * DEFAULT_DRIFT_FACTOR
                ):
                    drifted[spec.index] = observed
            if drifted:
                self.stats.drift_events += 1
        if drifted and session is not None and getattr(session, "auto_recompile", False):
            session._recompile_plan(self, drifted)

    def _adopt(
        self, entry: PlanEntry, signature: ExprSignature, source: la.LAExpr
    ) -> None:
        """Switch this plan to a re-optimized artifact (drift recompilation)."""
        with self._lock:
            self._entry = entry
            self.signature = signature
            self.source = source
            self.stats.recompiles += 1
            # The smoothed estimates described the *old* hints' regime; the
            # fresh artifact carries new hints, so smoothing restarts from
            # them on the next execution.
            self.stats.smoothed_sparsity.clear()
            # pinned variants were compiled under the old hints: relearn
            self._variants = {}
            self._pinned, self._unpinned = (), None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompiledPlan {self.fingerprint[:12]} inputs={list(self.input_names)} "
            f"runs={self.stats.executions}>"
        )


def bind_signature(
    signature: ExprSignature,
    inputs: Optional[Mapping[str, InputValue]],
    named: Optional[Mapping[str, InputValue]] = None,
) -> List[MatrixValue]:
    """Validate and coerce named inputs into ``signature``'s slot vector.

    The signature is the authority on names: two requests that share a
    cached artifact but permute or rename inputs each bind through their
    *own* signature, never the compiling request's (the serving tier binds
    here directly, since its per-fingerprint state is shared by every twin
    of a shape).  Raises :class:`PlanBindingError` on missing, unknown, or
    shape-mismatched inputs.
    """
    provided: Dict[str, InputValue] = dict(inputs or {})
    provided.update(named or {})
    order = signature.var_order
    declared = set(order)
    missing = [name for name in order if name not in provided]
    if missing:
        raise PlanBindingError(f"missing inputs: {', '.join(sorted(missing))}")
    unknown = sorted(name for name in provided if name not in declared)
    if unknown:
        raise PlanBindingError(
            f"unknown inputs: {', '.join(unknown)}; "
            f"this plan binds: {', '.join(order)}"
        )
    values: List[MatrixValue] = []
    dim_sizes: Dict[str, Tuple[int, str]] = {}
    for spec, name in zip(signature.slots, order):
        try:
            value = as_value(provided[name])
        except Exception as error:
            raise PlanBindingError(f"cannot coerce input {name!r}: {error}") from error
        _check_shape(spec, name, value, dim_sizes)
        values.append(value)
    return values


def _check_shape(
    spec: SlotSpec,
    name: str,
    value: MatrixValue,
    dim_sizes: Dict[str, Tuple[int, str]],
) -> None:
    """Validate one value against its slot.

    Concrete compile-time sizes must match exactly.  Symbolic (unsized)
    dims are bound by the first input that carries them and every other
    input sharing the dim must agree — so ``X: m x n`` and ``u: m x 1``
    cannot silently disagree on ``m`` even when ``m`` has no declared
    size.
    """
    rows, cols = value.shape
    for axis, dim_name, expected, actual in (
        ("rows", spec.row_dim, spec.rows, rows),
        ("columns", spec.col_dim, spec.cols, cols),
    ):
        if expected is not None:
            if actual != expected:
                raise PlanBindingError(
                    f"input {name!r}: expected {expected} {axis}, got {actual} "
                    f"(compiled for {spec.describe()})"
                )
            if dim_name is not None:
                dim_sizes.setdefault(dim_name, (expected, name))
        elif dim_name is not None:
            bound = dim_sizes.get(dim_name)
            if bound is None:
                dim_sizes[dim_name] = (actual, name)
            elif bound[0] != actual:
                raise PlanBindingError(
                    f"input {name!r}: {axis} = {actual}, but dimension "
                    f"{dim_name!r} was bound to {bound[0]} by input {bound[1]!r}"
                )
