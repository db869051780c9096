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
recorded in statistics, including the observed sparsity of each input.

**One learning state per entry.**  What runs teach a plan lives on the
cached entry the Session resolved for the instance digest
(:attr:`PlanEntry.learning`), not on the view: every view of the entry — a
later ``compile`` of the same expression, a renamed twin, the serving
engine's per-request views — counts repeats, records statistics and moves
the entry in force on one :class:`PlanLearning`.  An entry the Session's
cache evicts takes its learning state with it.

**Context.**  An entry is optimized under a :class:`PlanContext`: the
sparsity hint of every input and the inputs held *pinned* (the same object
run after run, like a solver's data ``X`` while its parameters move — the
cost model charges what only pinned inputs determine once, so extraction
may pick a Gram form ``(t(X) %*% X) %*% s``).  Adaptation only ever moves
a plan to another context, through one table ``{context: (entry, N*)}``
that the owning Session fills (:meth:`Session._variant`).  After a run whose
smoothed sparsity drifted off the hints, the plan moves to the observed
hints (``N* = 0``: adopted at once).  Before a run, a plan whose inputs
partly repeat moves to the context with those inputs pinned once they have
repeated ``N*`` times, and back to the unpinned context of the same hints
as soon as a pinned input changes.  ``signature`` and ``source`` stay as
compiled; the hints in force are the backing entry's.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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

if TYPE_CHECKING:
    from repro.api.session import Session

InputValue = Union[MatrixValue, np.ndarray, float, int]

logger = logging.getLogger(__name__)


class PlanBindingError(ValueError):
    """Raised when inputs cannot be bound to a compiled plan's slots."""


class TemplateGuardError(ValueError):
    """Raised when an instantiation names a dimension the plan does not have."""


#: observed nnz may exceed (or undershoot) the compiled hint by this factor
#: before a plan is considered stale
DEFAULT_DRIFT_FACTOR = 8.0

#: weight of the newest observation in the per-slot sparsity EWMA that
#: gates drift detection.  The EWMA is seeded at the compiled hint, so one
#: moderate outlier cannot trigger a recompile (the smoothed value moves
#: only this weight of the way), while a sustained regime change converges
#: on the observed level within a few executions and trips the drift factor.
DEFAULT_DRIFT_ALPHA = 0.4


class PlanContext(NamedTuple):
    """What an entry was optimized under: per-slot sparsity hints and pinned slots."""

    hints: Tuple[Optional[float], ...]
    pinned: Tuple[int, ...] = ()


@dataclass(frozen=True)
class PlanEntry:
    """The cached unit: one compilation artifact in slot space.

    Shared by every :class:`CompiledPlan` whose expression fingerprints to
    the same key.  Its fields are immutable; what runs learn lives in its
    :attr:`learning` state, which has its own lock.

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

    def __post_init__(self) -> None:
        # not a field: neither equality nor the codec sees it
        object.__setattr__(self, "learning", PlanLearning(self))

    @property
    def template_digest(self) -> str:
        """Size-free digest this entry can serve (via its guard)."""
        return self.signature.template_digest

    @cached_property
    def context(self) -> PlanContext:
        """The hints and pinned slots this entry was compiled under."""
        slots = self.signature.slots
        return PlanContext(
            tuple(spec.sparsity for spec in slots),
            tuple(spec.index for spec in slots if spec.pinned),
        )

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
    """Execution statistics of one cached entry, shared by every view of it."""

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
        """A consistent copy (callers must hold :attr:`PlanLearning.lock`).

        ``run`` mutates several fields per execution; reading them one at a
        time from another thread can observe a torn record (executions
        incremented, elapsed not yet).  ``to_dict``/``explain`` snapshot
        through this under the learning lock instead.
        """
        return replace(
            self,
            observed_sparsity=dict(self.observed_sparsity),
            smoothed_sparsity=dict(self.smoothed_sparsity),
        )


class PlanLearning:
    """What the runs of every view of one entry have taught it.

    ``entry`` is the entry in force — the owner itself until a run moves it
    to another context — and ``contexts`` every context resolved so far,
    with its entry and the repeats ``N*`` after which moving to it pays.
    Pinned-input learning keeps the previous run's values (``seen``) and
    each slot's count of consecutive repeats; a plan with fewer than two
    inputs, a scalar output, or inputs its source pins itself keeps its
    context as compiled (``learns`` is false).  ``lock`` guards all of it.
    """

    def __init__(self, entry: PlanEntry) -> None:
        slots = len(entry.signature.slots)
        self.lock = threading.Lock()
        self.entry = entry
        self.stats = PlanStats()
        self.contexts: Dict[PlanContext, Tuple[PlanEntry, float]] = {entry.context: (entry, 0.0)}
        self.learns = slots > 1 and not entry.slot_plan.shape.is_scalar and not entry.context.pinned
        self.seen: Optional[Sequence[MatrixValue]] = None
        self.repeats: List[int] = [0] * slots


class CompiledPlan:
    """An optimized, executable plan bound to one request's input names."""

    def __init__(
        self,
        entry: PlanEntry,
        signature: ExprSignature,
        source: la.LAExpr,
        session: "Session",
        cache_hit: bool = False,
        template_hit: bool = False,
    ) -> None:
        self.signature = signature
        self.source = source
        #: the owning Session, held strongly: every context is resolved
        #: through it, and a solver loop often keeps its plans, not its session
        self._session = session
        #: whether this plan came out of the cache (saturation was skipped)
        self.cache_hit = cache_hit
        #: whether the backing artifact was specialized from a plan template
        #: compiled at *different* sizes (a guard hit): saturation was
        #: skipped, only size re-pinning was paid
        self.template_hit = template_hit
        #: the semiring this plan executes over: its session's
        self.ring = session.config.ring()
        #: the compiled entry's learning state, shared by every view of it
        self._learning = entry.learning
        self._lock = self._learning.lock
        #: last :class:`repro.obs.profile.ProfileReport` from :meth:`profile`
        self._profile = None

    # -- introspection ---------------------------------------------------------
    @property
    def _entry(self) -> PlanEntry:
        """The entry in force (see :class:`PlanLearning`)."""
        return self._learning.entry

    @property
    def _contexts(self) -> Dict[PlanContext, Tuple[PlanEntry, float]]:
        return self._learning.contexts

    @property
    def stats(self) -> PlanStats:
        """The run statistics of every view of the compiled entry."""
        return self._learning.stats

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
        """Slot metadata under *this request's* names, in the context in force.

        Sizes and names come from the request signature (a cache-hit twin
        must not leak the names of whoever compiled first); the sparsity
        hints and pinned flags from the backing entry, which a drift or a
        pinned context moves.
        """
        return self._slots(self._entry)

    def _slots(self, entry: PlanEntry) -> Tuple[SlotSpec, ...]:
        return tuple(
            replace(spec, sparsity=backing.sparsity, pinned=backing.pinned)
            for spec, backing in zip(self.signature.slots, entry.signature.slots)
        )

    @property
    def input_names(self) -> Tuple[str, ...]:
        """The input names this plan binds, in slot order."""
        return self.signature.var_order

    def _in_request_names(self, expr: la.LAExpr, entry: PlanEntry) -> la.LAExpr:
        """Render ``entry``'s (compile-time-named) expression in this plan's names.

        A cache-hit twin shares an artifact compiled from someone else's
        expression; everything user-facing must speak the twin's own names.
        The substitution is *simultaneous* (``dag.substitute`` applies one
        bottom-up pass over the whole mapping), which matters when the
        request permutes names the compiling expression also used — e.g.
        compiled with ``(A, B)``, requested with ``(B, A)`` in swapped
        roles — so ``A -> B`` can never collide with ``B -> A`` mid-walk.
        """
        request_vars = {var.name: var for var in dag.variables(self.source)}
        bindings = {
            entry_name: request_vars[request_name]
            for entry_name, request_name in zip(
                entry.signature.var_order, self.signature.var_order
            )
            if entry_name != request_name and request_name in request_vars
        }
        if not bindings:
            return expr
        return dag.substitute_vars(expr, bindings)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable record: lineage plus binding and run statistics.

        The backing entry, the run statistics and the context table are
        snapshotted under the plan lock first, so a record taken while
        another thread is in ``run`` is internally consistent, never torn.
        """
        with self._lock:
            entry = self._entry
            stats = self.stats.snapshot()
            profile = self._profile
            contexts = list(self._contexts.items())
        record = entry.artifact.to_dict()
        record["original"] = str(self.source)
        record["optimized"] = str(self._in_request_names(entry.artifact.optimized, entry))
        record["fused"] = str(self._in_request_names(entry.artifact.fused, entry))
        record["fingerprint"] = entry.signature.digest
        record["template_digest"] = entry.template_digest
        record["cache_hit"] = self.cache_hit
        record["template_hit"] = self.template_hit
        record["degraded"] = entry.degraded
        record["guard"] = entry.guard.to_json() if entry.guard is not None else None
        record["slots"] = [
            {key: getattr(spec, key) for key in ("index", "name", "rows", "cols", "sparsity")}
            for spec in self._slots(entry)
        ]
        record["stats"] = dict(
            asdict(stats),
            mean_elapsed=stats.mean_elapsed,
            observed_sparsity={str(slot): v for slot, v in sorted(stats.observed_sparsity.items())},
            smoothed_sparsity={str(slot): v for slot, v in sorted(stats.smoothed_sparsity.items())},
        )
        record["context"] = dict(
            self._context_record(entry.context),
            table=[
                dict(self._context_record(context), breakeven=None if math.isinf(n) else n)
                for context, (_, n) in contexts
            ],
        )
        if profile is not None:
            record["profile"] = profile.to_dict()
        record["codegen"] = self.codegen_info()
        return record

    def _context_record(self, context: PlanContext) -> Dict[str, object]:
        """``context`` under this plan's input names."""
        names = self.signature.var_order
        return {
            "hints": dict(zip(names, context.hints)),
            "pinned": [names[slot] for slot in context.pinned],
        }

    def _describe_context(self, context: PlanContext) -> str:
        names = self.signature.var_order
        hints = ", ".join(f"{n}={'-' if h is None else h}" for n, h in zip(names, context.hints))
        return f"hints {hints}; pinned {', '.join(names[s] for s in context.pinned) or 'none'}"

    def executable(self) -> TapePlan:
        """The backing entry's one executor (:meth:`PlanEntry.executable`).

        ``run``, ``profile``, ``codegen_info`` and the serving engine all
        execute or describe this object; after the plan moves to another
        context, it is that context's entry's.
        """
        return self._entry.executable(self.ring)

    def codegen_info(self) -> Dict[str, object]:
        """What this plan executes behind: its executable's region structure.

        Reports whether the executable is fused, its regions against the
        plain tape's step count, and the columnwise batching slot.  Purely
        introspective — it reads :meth:`executable` and executes nothing.
        """
        entry = self._entry
        executable = entry.executable(self.ring)
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
            stats = self.stats.snapshot()
            contexts = list(self._contexts.items())
            profile = self._profile
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
            "inputs      : " + ", ".join(spec.describe() for spec in self._slots(entry)),
            f"declared    : {self.source}",
            f"optimized   : {self._in_request_names(entry.artifact.optimized, entry)}",
            f"physical    : {self._in_request_names(entry.artifact.fused, entry)}",
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
            f"context     : {self._describe_context(entry.context)}",
        ]
        lines.extend(
            f"  learned   : N* {'never' if math.isinf(n) else f'{n:g}'}"
            f" -> {self._describe_context(context)}"
            for context, (_, n) in contexts
        )
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
        from repro.runtime.layout import row_major_reads

        if runs < 1:
            raise ValueError("profile requires runs >= 1")
        values = bind_signature(self.signature, inputs, named)
        entry = self._entry
        executable = entry.executable(self.ring)
        profiler = TapeProfiler(len(executable))
        for _ in range(runs):
            executable.execute(values, profiler=profiler)
            profiler.finish_run()
        # the plan the executable runs: a pinned one has its layout steps
        physical = row_major_reads(entry.slot_plan) if self.ring.is_real else entry.slot_plan
        report = build_report(executable, profiler, physical)
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

        **What a plan learns.**  A plan with two or more inputs and a
        non-scalar output counts, per slot, the consecutive runs that bound
        the very same object.  When a non-empty strict subset of the slots
        repeats, the plan looks up the context with those slots pinned under
        the hints in force (the Session compiles it once, cached like any
        plan) and its price: the variant saves ``total(unpinned) -
        total(pinned)`` per run and pays its hoisted cost once per pinned
        value, so it pays after ``N* = hoisted / saving`` repeats.  The plan
        **adopts** the variant on the run where the pinned objects' repeat
        count reaches ``N*`` — its executable then computes each pinned-only
        step once per pinned value — and **reverts** to the unpinned context
        of the same hints, before executing, on the first run that binds a
        new object to a pinned slot.  Scalar outputs never learn: their
        pinned forms (``wᵀGw − 2wᵀXᵀy + yᵀy``) cancel.  After the run, a
        drift of the smoothed sparsity moves the plan to the observed hints.
        Every view of the compiled entry — and the serving engine, which
        runs this same learn → execute → record step — counts on one
        learning state (:class:`PlanLearning`).
        """
        values = bind_signature(self.signature, inputs, named)
        result = self._learn(values).executable(self.ring).execute(values)
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
        return bind_signature(self.signature, inputs, named)

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

        The plan is instantiated through its session's normal compile path,
        so a guard miss *falls back to a fresh specialization* (a real
        compile at the new sizes, cached as usual) rather than failing.
        Naming a dimension the plan does not have raises
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
        return self._session.compile(resized, signature)

    # -- context ---------------------------------------------------------------
    def _learn(self, values: Sequence[MatrixValue]) -> PlanEntry:
        """Count repeated input objects; move between pinned contexts.

        Returns the entry in force for this run, whose executable it runs on.
        """
        learning = self._learning
        if not learning.learns:
            return learning.entry
        with learning.lock:
            seen, learning.seen = learning.seen, values
            repeats = learning.repeats
            for slot, value in enumerate(values):
                repeats[slot] = repeats[slot] + 1 if seen is not None and value is seen[slot] else 0
            pinned = tuple(slot for slot, count in enumerate(repeats) if count)
            count = min(repeats[slot] for slot in pinned) if pinned else 0
            hints, held = learning.entry.context
        if any(slot not in pinned for slot in held):
            held = ()
            self._move(PlanContext(hints), 0, "pin_reverts")
        if not held and 0 < len(pinned) < len(values):
            self._move(PlanContext(hints, pinned), count, "pin_adoptions")
        return learning.entry

    def _unpinned(self, entry: PlanEntry) -> PlanEntry:
        """The resolved entry of ``entry``'s hints with nothing pinned, else ``entry``."""
        return self._contexts.get(PlanContext(entry.context.hints), (entry,))[0]

    def _move(self, context: PlanContext, count: int, counter: str) -> bool:
        """Re-point the plan at ``context``'s entry once ``count`` reaches its
        ``N*``, counting the move in ``stats.<counter>``; returns whether it moved.

        A context missing from the table is resolved by the session
        (:meth:`Session._variant`); one that fails to build is kept as never
        paying (``N* = ∞``): a context is an optimization, never a failure.
        """
        learning = self._learning
        base = learning.entry
        found = learning.contexts.get(context)
        if found is None:
            try:
                found = self._session._variant(self, context)
            except Exception as error:
                logger.warning("context of %s failed: %s", base.signature.digest[:12], error)
                found = (base, math.inf)
            with learning.lock:
                found = learning.contexts.setdefault(context, found)
        entry, breakeven = found
        if count < breakeven:
            return False
        with learning.lock:
            if learning.entry is not base:
                return False  # another run moved the plan first
            learning.entry = entry
            stats = learning.stats
            setattr(stats, counter, getattr(stats, counter) + 1)
            if context.hints != base.context.hints:
                # the smoothed estimates described the old hints' regime
                stats.smoothed_sparsity.clear()
        return True

    def _record(self, values: Sequence[MatrixValue], result: ExecutionResult) -> None:
        drifted: Dict[int, float] = {}
        # counting non-zeros is the expensive part and needs no lock: a value
        # memoises its count, so pinned inputs are counted once, ever
        observations = [
            (slot, value.sparsity, float(value.cells))
            for slot, value in enumerate(values)
            if value.cells > 1
        ]
        learning = self._learning
        stats = learning.stats
        with learning.lock:
            hints = learning.entry.context.hints
            stats.executions += 1
            stats.total_elapsed += result.stats.elapsed
            for slot, observed, cells in observations:
                stats.observed_sparsity[slot] = observed
                hint = hints[slot] if hints[slot] is not None else 1.0
                # Drift detection compares the *smoothed* observation, not
                # the last one: the per-slot EWMA is seeded at the compiled
                # hint, so a lone outlier moves it only the EWMA weight of the way
                # while a sustained regime change converges and trips the
                # factor within a few runs.
                previous = stats.smoothed_sparsity.get(slot, hint)
                smoothed = DEFAULT_DRIFT_ALPHA * observed + (1.0 - DEFAULT_DRIFT_ALPHA) * previous
                stats.smoothed_sparsity[slot] = smoothed
                # Expected nnz for *this* value: the compiled hint times the
                # actual cell count (shape checks already pinned concrete
                # dims, and for symbolic dims the hint still applies).
                expected_nnz = max(hint * cells, 1.0)
                smoothed_nnz = max(smoothed * cells, 1.0)
                if (
                    smoothed_nnz > expected_nnz * DEFAULT_DRIFT_FACTOR
                    or expected_nnz > smoothed_nnz * DEFAULT_DRIFT_FACTOR
                ):
                    # quantized so near-identical observations share a context
                    drifted[slot] = _quantize_sparsity(observed)
            if drifted:
                stats.drift_events += 1
        if not drifted:
            return
        target = PlanContext(tuple(drifted.get(slot, hint) for slot, hint in enumerate(hints)))
        if target != PlanContext(hints) and self._move(target, 0, "recompiles"):
            logger.info(
                "drift recompile: plan %s, slots %s", self.fingerprint[:12], sorted(drifted)
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompiledPlan {self.fingerprint[:12]} inputs={list(self.input_names)} "
            f"runs={self.stats.executions}>"
        )


def _quantize_sparsity(value: float) -> float:
    """Bucket an observed sparsity to two significant digits in (0, 1]."""
    clamped = min(max(value, 1e-12), 1.0)
    return float(f"{clamped:.2g}")


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
