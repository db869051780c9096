"""``repro.obs`` — the observability subsystem.

Three pillars:

* **Metrics** (:mod:`repro.obs.metrics`): a registry of counters and
  bounded-reservoir histograms with Prometheus-style text exposition.
  The process-global registry returned by :func:`registry` holds only the
  instruments no per-instance record keeps: compile counts and durations,
  saturation runs and rule funnels, and injected faults.  Cache, store, session and serving counters live in their
  owners' stats records; ``ServingEngine.metrics_text()`` renders those
  under Prometheus names whether or not the global registry is enabled.
* **Trace spans** (:mod:`repro.obs.trace`): structured spans with
  context propagated across serving threads, covering the compile
  phases (lower → saturate → extract → lift) and the serve path
  (enqueue → micro-batch → tape execute); exportable as JSON and as a
  Chrome-trace file via the global :func:`tracer`.
* **Plan profiling** (:mod:`repro.obs.profile`): a per-tape-step profiler
  attributing wall-time and intermediate cells to plan nodes, with a
  predicted-cost-vs-measured table per ``CompiledPlan`` (see
  ``CompiledPlan.profile()``).  Imported lazily — it pulls in the cost
  model and runtime, which this package root must not.

Both globals are **disabled by default**: instruments no-op on a single
attribute check and the tracer hands out a shared no-op span, so the
instrumentation threaded through the hot paths is free until a process
opts in::

    import repro.obs as obs

    obs.enable()                 # metrics + tracing
    obs.configure_logging()      # structured logging to stderr
    ...
    print(obs.registry().exposition())   # Prometheus text format
    open("trace.json", "w").write(obs.tracer().export_json())

``python -m repro.obs.dump`` packages that loop as a CLI.
"""

from __future__ import annotations

import threading

from repro.obs.log import ROOT_LOGGER, configure_logging, disable_logging
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, parse_exposition
from repro.obs.trace import Span, SpanContext, Tracer, span_tree, spans_from_json

_lock = threading.Lock()
_REGISTRY = MetricsRegistry(namespace="repro", enabled=False)
_TRACER = Tracer(enabled=False)


def registry() -> MetricsRegistry:
    """The process-global metrics registry (disabled until :func:`enable`)."""
    return _REGISTRY


def tracer() -> Tracer:
    """The process-global tracer (disabled until :func:`enable`)."""
    return _TRACER


def enable(metrics: bool = True, tracing: bool = True) -> None:
    """Turn the global instrumentation live.

    Instruments and spans threaded through the codebase start recording
    immediately — no re-wiring, the call sites hold references to the
    same global objects.
    """
    with _lock:
        if metrics:
            _REGISTRY.enabled = True
        if tracing:
            _TRACER.enabled = True


def disable() -> None:
    """Return both globals to their no-op state (recorded data is kept)."""
    with _lock:
        _REGISTRY.enabled = False
        _TRACER.enabled = False


def is_enabled() -> bool:
    return _REGISTRY.enabled or _TRACER.enabled


def reset() -> None:
    """Disable and drop all recorded metrics and spans (test isolation)."""
    with _lock:
        _REGISTRY.enabled = False
        _TRACER.enabled = False
        _REGISTRY.reset()
        _TRACER.clear()


__all__ = [
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "parse_exposition",
    "Tracer",
    "Span",
    "SpanContext",
    "spans_from_json",
    "span_tree",
    "registry",
    "tracer",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "configure_logging",
    "disable_logging",
    "ROOT_LOGGER",
]
