"""Benchmark-side trace spans, kept in memory and written out at exit.

The traced run records a span around every call the benchmark makes into a
layer (name, start, end, parent, request id) and *reads* the spans the
program already emits through ``repro.obs`` — nothing here adds a span
inside ``src/``.  Both sets go into one Chrome trace-event file.

Times are ``time.perf_counter()`` seconds; the recorder remembers one
(wall clock, perf counter) pair so its spans can be laid on the same time
axis as the obs spans, which carry wall-clock starts.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class BenchSpan:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    request: Optional[int] = None
    thread: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """An append-only, thread-safe list of finished benchmark spans."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.spans: List[BenchSpan] = []
        self.wall_anchor = time.time()
        self.perf_anchor = time.perf_counter()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: Optional[int] = None,
    ) -> int:
        with self._lock:
            span_id = next(self._ids)
            self.spans.append(
                BenchSpan(
                    span_id, name, start, end, parent, request,
                    threading.current_thread().name,
                )
            )
        return span_id

    def begin(
        self, name: str, parent: Optional[int] = None, request: Optional[int] = None
    ) -> BenchSpan:
        """Open a span whose children need its id; :meth:`finish` sets its end."""
        start = time.perf_counter()
        with self._lock:
            span = BenchSpan(
                next(self._ids), name, start, start, parent, request,
                threading.current_thread().name,
            )
            self.spans.append(span)
        return span

    @staticmethod
    def finish(span: BenchSpan) -> None:
        span.end = time.perf_counter()

    def wall(self, perf: float) -> float:
        """Wall-clock seconds of a perf-counter reading."""
        return self.wall_anchor + (perf - self.perf_anchor)


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[BenchSpan]) -> Dict[int, float]:
    """Per span: its duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def orphans(spans: Sequence[BenchSpan]) -> List[BenchSpan]:
    """Spans naming a parent that was never recorded (must be empty)."""
    known = {span.span_id for span in spans}
    return [s for s in spans if s.parent is not None and s.parent not in known]


def chrome_events(recorder: SpanRecorder, obs_spans: Sequence[object]) -> List[dict]:
    """Chrome trace events for the benchmark spans (pid 1) and obs spans (pid 2)."""
    events: List[dict] = []
    threads: Dict[Tuple[int, str], int] = {}
    for span in recorder.spans:
        tid = threads.setdefault((1, span.thread), len(threads) + 1)
        args = {"span_id": span.span_id}
        if span.parent is not None:
            args["parent_id"] = span.parent
        if span.request is not None:
            args["request"] = span.request
        events.append(
            {
                "name": span.name, "ph": "X", "pid": 1, "tid": tid,
                "ts": recorder.wall(span.start) * 1e6, "dur": span.duration * 1e6,
                "args": args,
            }
        )
    for span in obs_spans:
        tid = threads.setdefault((2, span.thread), len(threads) + 1)
        args = {"trace_id": span.trace_id, "span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.attributes)
        events.append(
            {
                "name": span.name, "ph": "X", "pid": 2, "tid": tid,
                "ts": span.start_time * 1e6, "dur": span.duration * 1e6,
                "args": args,
            }
        )
    return events


def write_chrome_trace(path: str, recorder: SpanRecorder, obs_spans: Sequence[object]) -> None:
    document = {
        "traceEvents": chrome_events(recorder, obs_spans),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "benchmarks/e2e", "pid1": "benchmark", "pid2": "repro.obs"},
    }
    with open(path, "w") as handle:
        json.dump(document, handle)
