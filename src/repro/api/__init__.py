"""The compile-once / execute-many Session API.

This package is the stable user-facing surface of the reproduction, the
LaraDB-style separation of a *declared* program from its *optimized
physical plan*:

* :class:`Session` — owns the optimizer configuration and a thread-safe
  LRU plan cache keyed by the canonical structural fingerprint of the
  expression (:mod:`repro.canonical.fingerprint`): input names abstracted
  to slots, dimension sizes and sparsity hints in the key.  Compiling an
  already-seen workload shape is a cache probe, not a saturation run.
* :class:`CompiledPlan` — binds a request's input names to the cached
  slot-space artifact; ``plan.run(**inputs)`` validates shapes, executes
  via :mod:`repro.runtime`, and records per-plan statistics that trigger
  recompilation when observed input sparsity drifts off the compile-time
  hints.
* :class:`PlanStore` (``Session(store_path=...)``) — a persistent disk
  tier behind the in-memory cache (:mod:`repro.serialize`): compile misses
  probe memory → disk → compile and write back through, so a cold process
  pointed at a warm store skips saturation for every shape the fleet has
  already compiled.
* **Plan templates** — every compiled plan doubles as a size-polymorphic
  template: one compilation of a GLM at 10k×100 serves the whole size
  ladder (50k×100, 200k×100, ...) through cheap size re-pinning, as long
  as the plan's :class:`~repro.optimizer.guards.TemplateGuard` admits each
  instance (the plan still costs no more than the original at the
  requested sizes; the template digest already fixes the sparsity bands).
  A guard miss silently falls back to a fresh specialization; see
  :mod:`repro.api.session` for the exact reuse-vs-respecialize rules and
  :meth:`CompiledPlan.instantiate` for the direct size-rebinding surface.

Underneath sits the pure :func:`repro.optimizer.compile_expression` core;
``repro.runtime.execute`` is the reference interpreter the tests compare
every other execution path against.
"""

from repro.api.cache import CacheStats, PlanCache
from repro.api.plan import (
    DEFAULT_DRIFT_ALPHA,
    DEFAULT_DRIFT_FACTOR,
    CompiledPlan,
    PlanBindingError,
    PlanEntry,
    PlanStats,
    TemplateGuardError,
    specialize_entry,
)
from repro.api.session import Session
from repro.optimizer.guards import TemplateGuard
from repro.serialize.store import PlanStore, StoreStats

__all__ = [
    "Session",
    "CompiledPlan",
    "PlanBindingError",
    "TemplateGuardError",
    "PlanEntry",
    "PlanStats",
    "PlanCache",
    "CacheStats",
    "PlanStore",
    "StoreStats",
    "TemplateGuard",
    "specialize_entry",
    "DEFAULT_DRIFT_FACTOR",
    "DEFAULT_DRIFT_ALPHA",
]
