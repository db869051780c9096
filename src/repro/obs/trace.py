"""Structured trace spans with cross-thread context propagation.

A :class:`Span` is one timed region of work — a compile phase, a serve
request, a micro-batch, a tape execution — identified by a
``(trace_id, span_id)`` pair and linked to its parent by ``parent_id``.
The :class:`Tracer` keeps the *current* span context in a
``contextvars.ContextVar``, so nested ``with tracer.span(...)`` blocks
parent automatically within one thread.

Crossing threads is explicit by design: the serving engine runs a request
on whichever shard worker thread picks it up (and possibly a *different*
thread after a supervisor restart), so the enqueue path
calls :meth:`Tracer.capture` and stores the :class:`SpanContext` on the
request object; the worker passes it as ``parent=`` when it opens the
serve span.  That keeps parentage intact through micro-batching and
restarts without any thread-local inheritance magic.

Finished spans accumulate in a bounded ring (oldest dropped) and export
two ways:

* :meth:`Tracer.export_json` — a versioned JSON document that
  :func:`spans_from_json` round-trips losslessly;
* :meth:`Tracer.export_chrome` — the Chrome trace-event format
  (``chrome://tracing`` / Perfetto): complete ``"ph": "X"`` events with
  microsecond timestamps, one ``tid`` per worker thread.

A disabled tracer hands out a shared no-op span and never touches the
context variable, so instrumented code costs one attribute check.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: sentinel distinguishing "no parent passed → inherit current" from an
#: explicit ``parent=None`` ("start a new root trace")
_UNSET = object()

_ids = itertools.count(1)
_id_lock = threading.Lock()


def _next_id() -> int:
    with _id_lock:
        return next(_ids)


@dataclass(frozen=True)
class SpanContext:
    """The portable identity of a span: enough to parent a child anywhere.

    Instances are immutable and pickle/thread-safe; the serving layer
    stores one on each ``ShardRequest`` so the span opened on the worker
    thread parents to the span that enqueued it.
    """

    trace_id: int
    span_id: int


@dataclass
class Span:
    """One timed region of work, linked into a trace tree by parent_id."""

    name: str
    trace_id: int
    span_id: int
    parent_id: Optional[int] = None
    start_time: float = 0.0  # wall clock (time.time), seconds
    duration: float = 0.0  # perf_counter delta, seconds
    attributes: Dict[str, Any] = field(default_factory=dict)
    thread: str = ""

    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "thread": self.thread,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Span":
        return cls(
            name=record["name"],
            trace_id=record["trace_id"],
            span_id=record["span_id"],
            parent_id=record.get("parent_id"),
            start_time=record["start_time"],
            duration=record["duration"],
            attributes=dict(record.get("attributes", {})),
            thread=record.get("thread", ""),
        )


class _NoopSpan:
    """The span a disabled tracer hands out: accepts everything, records nothing."""

    __slots__ = ()

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def context(self) -> None:
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager pairing a live :class:`Span` with tracer bookkeeping."""

    __slots__ = ("_tracer", "span", "_token", "_perf_start")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._token: Optional[contextvars.Token] = None

    def set_attribute(self, key: str, value: Any) -> None:
        self.span.set_attribute(key, value)

    def context(self) -> SpanContext:
        return self.span.context()

    def __enter__(self) -> "_ActiveSpan":
        self.span.start_time = time.time()
        self.span.thread = threading.current_thread().name
        self._token = self._tracer._current.set(self.span.context())
        self._perf_start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.span.duration = time.perf_counter() - self._perf_start
        if exc_type is not None:
            self.span.attributes.setdefault("error", getattr(exc_type, "__name__", str(exc_type)))
        if self._token is not None:
            self._tracer._current.reset(self._token)
        self._tracer._finish(self.span)


class Tracer:
    """Factory and bounded sink for :class:`Span`\\ s.

    ``max_spans`` bounds the finished-span ring — a serving process under
    sustained traffic keeps the most recent window rather than growing
    without bound, matching the metrics reservoirs.
    """

    EXPORT_VERSION = 1

    def __init__(self, enabled: bool = True, max_spans: int = 8192) -> None:
        self.enabled = enabled
        self._current: "contextvars.ContextVar[Optional[SpanContext]]" = contextvars.ContextVar(
            f"repro_trace_{_next_id()}", default=None
        )
        self._lock = threading.Lock()
        self._finished: "deque[Span]" = deque(maxlen=max_spans)
        self._dropped = 0

    # -- span lifecycle --------------------------------------------------------
    def span(self, name: str, parent: Any = _UNSET, **attributes: Any):
        """Open a span as a context manager.

        ``parent`` defaults to the current context (thread-nested spans
        parent automatically); pass a :class:`SpanContext` captured on
        another thread to stitch across threads, or ``None`` to force a
        new root trace.
        """
        if not self.enabled:
            return _NOOP_SPAN
        if parent is _UNSET:
            parent_ctx = self._current.get()
        else:
            parent_ctx = parent
        if parent_ctx is None:
            trace_id = _next_id()
            parent_id = None
        else:
            trace_id = parent_ctx.trace_id
            parent_id = parent_ctx.span_id
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=_next_id(),
            parent_id=parent_id,
            attributes=dict(attributes),
        )
        return _ActiveSpan(self, span)

    def current(self) -> Optional[SpanContext]:
        """The context of the innermost open span on this thread, if any."""
        if not self.enabled:
            return None
        return self._current.get()

    def capture(self) -> Optional[SpanContext]:
        """Alias of :meth:`current` named for its cross-thread handoff use."""
        return self.current()

    def _finish(self, span: Span) -> None:
        with self._lock:
            if len(self._finished) == self._finished.maxlen:
                self._dropped += 1
            self._finished.append(span)

    # -- introspection & export ------------------------------------------------
    def finished(self) -> List[Span]:
        with self._lock:
            return list(self._finished)

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self._dropped = 0

    def export_json(self) -> str:
        """Versioned JSON document; :func:`spans_from_json` round-trips it."""
        spans = self.finished()
        return json.dumps(
            {
                "version": self.EXPORT_VERSION,
                "dropped": self.dropped,
                "spans": [span.to_dict() for span in spans],
            },
            sort_keys=True,
        )

    def export_chrome(self) -> str:
        """Chrome trace-event JSON (load in chrome://tracing or Perfetto)."""
        events: List[Dict[str, Any]] = []
        threads: Dict[str, int] = {}
        for span in self.finished():
            tid = threads.setdefault(span.thread, len(threads) + 1)
            args: Dict[str, Any] = {
                "trace_id": span.trace_id,
                "span_id": span.span_id,
            }
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args.update(span.attributes)
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": span.start_time * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs", "dropped": self.dropped},
        }
        return json.dumps(document, sort_keys=True)


def spans_from_json(document: str) -> List[Span]:
    """Rebuild the span list exported by :meth:`Tracer.export_json`."""
    record = json.loads(document)
    version = record.get("version")
    if version != Tracer.EXPORT_VERSION:
        raise ValueError(f"unsupported trace export version: {version!r}")
    return [Span.from_dict(item) for item in record["spans"]]


def span_tree(spans: List[Span]) -> Dict[Optional[int], List[Span]]:
    """Index spans by parent_id — the shape tests and tools walk trees with."""
    tree: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        tree.setdefault(span.parent_id, []).append(span)
    return tree


__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "spans_from_json",
    "span_tree",
]
