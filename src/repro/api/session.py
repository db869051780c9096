"""The compile-once / execute-many Session.

A :class:`Session` is the stateful front door of the optimizer: it owns one
:class:`~repro.optimizer.OptimizerConfig`, one plan cache, and the locks
that make concurrent compilation safe.  The intended shape of a service
built on this package is one long-lived Session serving many requests:

>>> from repro import Matrix, Vector, Sum, Session
>>> session = Session()
>>> X = Matrix("X", 10_000, 1_000, sparsity=0.01)
>>> u, v = Vector("u", X.shape.rows), Vector("v", X.shape.cols)
>>> plan = session.compile(Sum((X - u @ v.T) ** 2))   # saturates once
>>> result = plan.run(X=x_values, u=u_values, v=v_values)
>>> plan2 = session.compile(Sum((X - u @ v.T) ** 2))  # cache hit, no work
>>> assert plan2.cache_hit

``compile`` fingerprints the expression canonically (names abstracted to
slots, dimension sizes and sparsity hints in the key) and only runs the
lower/saturate/extract/lift pipeline on a cache miss.  Per-fingerprint
in-flight locks guarantee that concurrent misses of the *same* shape
compile exactly once while different shapes compile in parallel.

Every plan holds its session, and the session builds every entry a plan
adapts to: :meth:`Session._variant` rebuilds the plan's source under a
:class:`~repro.api.plan.PlanContext` — the observed sparsity hints after a
drift beyond :data:`~repro.api.plan.DEFAULT_DRIFT_FACTOR`, or the inputs
that keep arriving as the same objects held pinned — and resolves it like
any compile (:meth:`CompiledPlan.run` says when a plan moves).

A session may also be given a **persistent plan store**
(``Session(store_path=...)``, a :class:`repro.serialize.PlanStore`
directory): a compile miss then probes memory → disk → compile, and every
freshly compiled plan is written back through both tiers.  A cold process
pointed at a warm store loads finished plans instead of re-paying
saturation — the cross-process extension of the same compile-once contract.

**Plan templates (guard semantics).**  Compiled plans are cached at two
levels: the exact *instance* digest (structure + concrete sizes + exact
sparsity hints) and the size-free *template* digest (structure + sparsity
bands).  An instance miss first scans cached templates of the same shape;
a template is **reused** — re-pinned to the requested sizes in one DAG
walk, no saturation — exactly when its
:class:`~repro.optimizer.guards.TemplateGuard` admits the instance: the
template's plan still costs no more than the original expression at the
requested sizes (one cost comparison, made at lookup).  Plans carry
extents, not sizes, so that comparison is the whole check; anything else
(a plan the requested sizes make costlier, a symbolic dim) is a guard miss
and the expression is **respecialized**: compiled fresh at its own sizes,
cached as a new template of the same shape.  A sparsity band
change never reaches a guard: it is a different template digest.  Both
outcomes are observable: reuse counts in ``session.stats.template_hits``
and sets ``plan.template_hit``; respecialization counts in
``compilations``.

**Counters.**  The session is the one writer of its request counters:
``hits``, ``misses``, ``template_hits``, ``recompiles``, ``compilations``
and ``degraded_compilations`` are its own attributes, updated under
``_state_lock``; each compile request is counted once, after its outcome
is final.  The plan cache counts only its own evictions.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Dict, List, Mapping, Optional, Union

from repro.api.cache import CacheStats, PlanCache
from repro.api.plan import CompiledPlan, InputValue, PlanContext, PlanEntry, specialize_entry
from repro.canonical.fingerprint import ExprSignature, signature_of, slot_expression
from repro.lang import dag
from repro.lang import expr as la
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.guards import derive_guard
from repro.optimizer.pipeline import (
    PlanArtifact,
    baseline_artifact,
    breakeven_runs,
    compile_expression,
)
from repro.reliability.errors import ReliabilityError
from repro.reliability.faults import NO_FAULTS, FaultInjector
from repro.runtime.engine import ExecutionResult
from repro.serialize.store import PlanStore

logger = logging.getLogger(__name__)


class Session:
    """Compiles LA expressions into reusable plans, caching by fingerprint.

    Plans move to contexts compiled from what their runs observe: the
    observed hints of inputs whose sparsity drifted, and the inputs a plan
    keeps receiving as the same objects held pinned, adopted once they have
    repeated ``N*`` times (:meth:`_variant`).  What they learn lives on the
    cached entry (:class:`~repro.api.plan.PlanLearning`), so every plan this
    session returns for one instance digest learns on one state.
    """

    def __init__(
        self,
        config: Optional[OptimizerConfig] = None,
        cache_size: int = 64,
        store_path: Optional[Union[str, "os.PathLike"]] = None,
        store: Optional[PlanStore] = None,
        optimizer_budget: Optional[float] = None,
        fault_injector: Optional[FaultInjector] = None,
        degrade_on_error: bool = False,
    ) -> None:
        if store is not None and store_path is not None:
            raise ValueError("pass store_path or a PlanStore, not both")
        if optimizer_budget is not None and optimizer_budget <= 0:
            raise ValueError("optimizer_budget must be positive (or None)")
        self.config = config or OptimizerConfig()
        if store is not None and store.config_digest != self.config.digest():
            # A store salts its keys with the config it was built for; a
            # mismatched injection would either never hit or — worse — let
            # plans leak across configurations through a shared salt.
            raise ValueError(
                "injected PlanStore was built for a different optimizer "
                "configuration; construct it with this session's config "
                "(or pass store_path and let the session build it)"
            )
        self.cache: PlanCache[PlanEntry] = PlanCache(cache_size)
        #: fault-injection schedule threaded through the session's own
        #: ``optimizer.saturate`` site and into a store the session builds
        #: itself; the no-op default keeps every site quiet
        self.faults = fault_injector or NO_FAULTS
        #: wall-clock budget (seconds) per compile; on overrun the session
        #: degrades to the unoptimized baseline plan instead of failing
        self.optimizer_budget = optimizer_budget
        #: degrade on *any* compile exception, not just budget overruns —
        #: the serving posture (a request is better served unoptimized than
        #: failed); off by default so development surfaces real defects
        self.degrade_on_error = degrade_on_error
        #: optional persistent tier probed on memory misses and written
        #: through on every compile; ``None`` keeps the session memory-only
        self.store = store if store is not None else (
            PlanStore(store_path, self.config, fault_injector=fault_injector)
            if store_path is not None
            else None
        )
        #: number of times the full pipeline actually ran (≠ cache misses
        #: under contention: concurrent misses of one shape compile once)
        self.compilations = 0
        #: compiles that fell back to the unoptimized baseline plan because
        #: the optimizer overran its budget or crashed
        self.degraded_compilations = 0
        #: compile requests, each counted once when resolved: a hit was
        #: served from cached state (memory, a cached template, the store,
        #: or a concurrent compile of its shape it waited for), a miss ran
        #: the pipeline
        self.hits = 0
        self.misses = 0
        #: the hits served by specializing a plan template
        self.template_hits = 0
        #: drift contexts resolved for plans whose inputs' sparsity drifted
        self.recompiles = 0
        self._state_lock = threading.Lock()
        #: per-template [lock, waiter-count] entries; an entry lives while
        #: any thread is inside the compile critical section for its key, so
        #: concurrent misses always serialize on one lock (even across a
        #: failed compile), and is removed when the last waiter leaves
        self._inflight: Dict[str, list] = {}

    # -- the public pair -------------------------------------------------------
    def compile(
        self, expr: la.LAExpr, signature: Optional[ExprSignature] = None
    ) -> CompiledPlan:
        """Return an executable plan for ``expr``, compiling at most once.

        A cache hit skips the whole pipeline — no lowering, no saturation,
        no extraction — and costs one fingerprint plus one dictionary probe.
        The returned plan binds *this* expression's input names, even when
        the cached artifact was compiled from a renamed twin.

        Callers that already fingerprinted ``expr`` (the serving engine
        does so at its door, before the session ever sees the request)
        pass the :class:`ExprSignature` along to skip the re-walk; it must
        be the signature *of this expression*, not of a twin — names ride
        on the signature, so a borrowed one would mis-bind the plan.
        """
        if signature is None:
            signature = signature_of(expr)
        entry, hit, template_hit = self._resolve(expr, signature)
        return CompiledPlan(
            entry,
            signature,
            expr,
            self,
            cache_hit=hit,
            template_hit=template_hit,
        )

    def run(
        self,
        expr: la.LAExpr,
        inputs: Optional[Mapping[str, InputValue]] = None,
        /,
        **named: InputValue,
    ) -> ExecutionResult:
        """One-shot convenience: ``compile(expr).run(inputs)``."""
        return self.compile(expr).run(inputs, **named)

    # -- monitoring ------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """A consistent copy of the cache counters, taken under the lock.

        The pinned-variant moves are read from the learning state of every
        cached entry, where the plans' runs count them.
        """
        adoptions = reverts = 0
        for entry in self.cache.values():
            learning = entry.learning
            with learning.lock:
                adoptions += learning.stats.pin_adoptions
                reverts += learning.stats.pin_reverts
        with self._state_lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.cache.evictions,
                recompiles=self.recompiles,
                template_hits=self.template_hits,
                pin_adoptions=adoptions,
                pin_reverts=reverts,
            )

    def describe(self) -> Dict[str, object]:
        """A JSON-serializable snapshot of the session's state."""
        stats = self.stats
        record: Dict[str, object] = {
            "cached_plans": len(self.cache),
            "capacity": self.cache.capacity,
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "recompiles": stats.recompiles,
            "template_hits": stats.template_hits,
            "hit_rate": stats.hit_rate,
            "compilations": self.compilations,
            "degraded_compilations": self.degraded_compilations,
        }
        record["store"] = self.store.describe() if self.store is not None else None
        return record

    # -- compilation internals -------------------------------------------------
    def _resolve(self, expr: la.LAExpr, signature: ExprSignature) -> "tuple[PlanEntry, bool, bool]":
        """Probe the cache, resolve a miss, and count the final outcome once.

        Returns ``(entry, hit, template_hit)``.  A request is a hit when it
        was served from cached state at any tier, a miss only when it ran
        the pipeline.
        """
        entry = self.cache.lookup(signature.digest)
        hit, template_hit = True, False
        if entry is None:
            entry, hit, template_hit = self._compile_entry(expr, signature)
        with self._state_lock:
            if hit:
                self.hits += 1
                self.template_hits += template_hit
            else:
                self.misses += 1
        return entry, hit, template_hit

    def _compile_entry(
        self, expr: la.LAExpr, signature: ExprSignature
    ) -> "tuple[PlanEntry, bool, bool]":
        """Resolve an instance miss; returns ``(entry, hit, template_hit)``.

        Probe order, cheapest first, under a per-template lock:

        1. the instance cache again (a concurrent compile may have won);
        2. cached **plan templates** of the same size-free digest — a guard
           hit re-pins the template's sizes (one DAG walk, no saturation);
        3. the persistent store, by instance digest;
        4. the persistent store, by template digest (guard-checked the same
           way — a warm store compiled at *any* ladder point serves every
           admitted size in a cold process);
        5. a real compile, which also derives the new template's guard and
           writes both store tiers through.

        The double-checked probe means a thread that blocked behind the
        compiling thread comes back with the freshly cached entry instead
        of compiling again — ``hit`` is ``True`` for it.  The lock is keyed
        by the size-free template digest, so concurrent requests for other
        sizes of a shape wait for its one compile and specialize off it.
        """
        key = signature.digest
        shape = signature.template_digest
        with self._state_lock:
            registration = self._inflight.setdefault(shape, [threading.Lock(), 0])
            registration[1] += 1
        try:
            with registration[0]:
                entry = self.cache.lookup(key)
                if entry is not None:
                    return entry, True, False
                entry = self._specialize_from_template(signature)
                if entry is not None:
                    return entry, True, True
                entry = self._load_from_store(key)
                if entry is not None:
                    return entry, True, False
                entry = self._load_template_from_store(signature)
                if entry is not None:
                    return entry, True, True
                degraded = False
                try:
                    artifact = compile_expression(
                        expr,
                        self.config,
                        faults=self.faults,
                        budget=self.optimizer_budget,
                    )
                    guard = derive_guard(signature, artifact, self.config)
                except Exception as error:
                    if not self._should_degrade(error):
                        raise
                    # Degraded mode: the optimizer overran its budget (or
                    # crashed) — serve the unoptimized baseline plan, which
                    # R_EQ guarantees computes the identical result.  The
                    # entry is cached (stability under sustained overload)
                    # but never persisted and never used as a template, so
                    # a restart or an eviction gives the optimizer another
                    # chance.
                    logger.warning(
                        "compile degraded to baseline plan for %s: %s",
                        key[:12],
                        error,
                    )
                    artifact = baseline_artifact(expr, self.config)
                    guard = None
                    degraded = True
                entry = PlanEntry(
                    artifact=artifact,
                    slot_plan=slot_expression(artifact.fused, signature),
                    signature=signature,
                    guard=guard,
                    degraded=degraded,
                )
                entry, inserted = self.cache.insert(
                    key, entry, template_key=signature.template_digest
                )
                with self._state_lock:
                    self.compilations += 1
                    if degraded:
                        self.degraded_compilations += 1
                # a pinned variant is learned at run time: it stays in memory
                pinned = any(spec.pinned for spec in signature.slots)
                if inserted and not degraded and not pinned and self.store is not None:
                    self.store.save(key, entry)  # counts and swallows its IO errors
                return entry, False, False
        finally:
            with self._state_lock:
                registration[1] -= 1
                if registration[1] == 0 and self._inflight.get(shape) is registration:
                    del self._inflight[shape]

    def _specialize_from_template(
        self, signature: ExprSignature
    ) -> Optional[PlanEntry]:
        """Serve an instance miss from a cached template of the same shape.

        Scans the cache's template index (newest specialization first) for
        an entry whose guard admits the requested sizes; on a hit the entry
        is re-pinned to the instance and promoted into the instance tier.
        Specializations share their pivot's artifact and guard, so each
        distinct artifact is checked once per scan.  Returns ``None`` when
        no cached template admits the instance — the caller falls through to
        the store and, last, to a fresh specialization by compiling.
        """
        refused: List[PlanArtifact] = []
        for candidate in self.cache.template_candidates(signature.template_digest):
            if any(candidate.artifact is artifact for artifact in refused):
                continue
            specialized = specialize_entry(candidate, signature)
            if specialized is not None:
                adopted, _ = self.cache.insert(
                    signature.digest, specialized, signature.template_digest
                )
                return adopted
            refused.append(candidate.artifact)
        return None

    def _should_degrade(self, error: BaseException) -> bool:
        """Whether a compile failure falls back to the baseline plan.

        Budget overruns and injected reliability faults always degrade —
        that is their contract.  Anything else (a genuine pipeline defect)
        degrades only under ``degrade_on_error``, the serving posture where
        an unoptimized answer beats a failed request.
        """
        return isinstance(error, ReliabilityError) or self.degrade_on_error

    def _load_from_store(self, key: str) -> Optional[PlanEntry]:
        """Probe the persistent tier after a memory miss.

        A disk hit is served from cached state rather than a compile, so it
        counts as a hit and the entry is promoted into memory.  Corrupt,
        incompatible or unreadable entries load as ``None`` (the store
        counts them) and the caller falls through to compiling, so a damaged
        store never takes a request down.
        """
        if self.store is None:
            return None
        entry = self.store.load(key)
        if entry is None:
            return None
        entry, _ = self.cache.insert(key, entry, template_key=entry.template_digest)
        return entry

    def _load_template_from_store(
        self, signature: ExprSignature
    ) -> Optional[PlanEntry]:
        """Probe the store's template tier and specialize on a guard hit.

        The cross-process half of plan templates: a warm store that holds
        *any* ladder point of this shape serves this instance in a cold
        process — the loaded pivot is guard-checked and re-pinned exactly
        like a cached template (:func:`specialize_entry`), then promoted
        into memory as a template hit.
        """
        if self.store is None or not signature.template_digest:
            return None
        pivot = self.store.load_template(signature.template_digest)
        specialized = specialize_entry(pivot, signature) if pivot is not None else None
        if specialized is None:
            return None
        adopted, _ = self.cache.insert(signature.digest, specialized, signature.template_digest)
        return adopted

    def _variant(self, plan: CompiledPlan, context: PlanContext) -> "tuple[PlanEntry, float]":
        """``plan``'s entry under ``context`` and the repeats ``N*`` after which it pays.

        Rebuilds the plan's source with every input's hint and pinned flag
        taken from ``context`` and resolves it like any compile (cache,
        template tier, compile lock).  A context without pins is a drift
        recompile, adopted at once (``N* = 0``).  A pinned context prices its
        hoisted build against the unpinned entry of the same hints, which
        the plan's table always holds (ski rental).
        """
        slot_of = plan.signature.slot_of
        mapping: Dict[la.LAExpr, la.LAExpr] = {}
        for var in dag.variables(plan.source):
            hint, pinned = context.hints[slot_of[var.name]], slot_of[var.name] in context.pinned
            mapping[var] = la.Var(var.name, var.var_shape, hint, pinned)
        expr = dag.substitute(plan.source, mapping)
        entry, _, _ = self._resolve(expr, signature_of(expr))
        if context.pinned:
            base, _ = plan._contexts[PlanContext(context.hints)]
            return entry, breakeven_runs(entry.artifact, base.artifact, self.config.ring())
        with self._state_lock:
            self.recompiles += 1
        return entry, 0.0
