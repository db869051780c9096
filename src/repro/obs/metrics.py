"""The metrics registry: counters and bounded-reservoir histograms.

One :class:`MetricsRegistry` is a namespace of named instruments.  The
package keeps a process-global registry (``repro.obs.registry()``) for the
counters that have no per-instance record — compile and saturation
instruments, injected faults; it is **disabled by
default** — a disabled registry's instruments short-circuit on a single
attribute check, so the instrumentation compiled into the hot paths costs
one branch until someone opts in with :func:`repro.obs.enable`.  A counter
that has an owner (a session, store or shard record) is counted there
only.  Always-enabled registries serve the rest: the serving engine keeps
its latency histogram in one, and ``metrics_text()`` renders the engine's
records through a throwaway one at call time.

Design points:

* **Instruments are get-or-create.**  ``registry.counter("x_total")``
  returns the same object every time, so call sites can resolve an
  instrument once at import and increment forever after — no per-call
  dictionary probe on the hot path.
* **Labels** are part of the instrument identity:
  ``counter("faults_total", site="store.read")`` and the same name with a
  different ``site`` are two series, exactly as in Prometheus.
* **Histograms are bounded reservoirs**, not buckets: a ``deque(maxlen=N)``
  of recent observations plus monotonic count/sum/min/max.  Quantiles are
  nearest-rank over the reservoir — the same estimator the serving engine
  previously applied to its per-shard latency deques, now in one shared
  instrument instead of a list copy per ``stats()`` call.
* **Exposition** renders the whole registry in the Prometheus text format
  (``# TYPE`` comments, ``name{label="v"} value`` samples); histograms
  expose ``_count``/``_sum`` plus quantile samples.

Everything is thread-safe: instruments take a small per-instrument lock,
the registry takes its own for instrument creation and iteration.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Dict, List, Tuple

#: label sets are canonicalized to sorted tuples so kwarg order never
#: creates duplicate series
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelKey) -> str:
    if not labels:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in labels)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Shared identity/locking plumbing of every instrument kind."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str, labels: LabelKey) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.labels = labels
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self._registry.enabled

    def samples(self) -> List[Tuple[str, LabelKey, float]]:  # pragma: no cover - abstract
        raise NotImplementedError

    def clear(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str, labels: LabelKey) -> None:
        super().__init__(registry, name, help, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self) -> List[Tuple[str, LabelKey, float]]:
        return [(self.name, self.labels, self.value)]

    def clear(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram(_Instrument):
    """Bounded-reservoir distribution: recent window + monotonic totals.

    ``observe`` appends to a ``deque(maxlen=reservoir)`` and updates
    count/sum/min/max; :meth:`quantile` is the nearest-rank estimate over
    the reservoir (recent window), which is what a serving tier wants from
    p50/p95 — old latencies age out with the traffic that produced them.
    """

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labels: LabelKey,
        reservoir: int = 4096,
    ) -> None:
        super().__init__(registry, name, help, labels)
        if reservoir < 1:
            raise ValueError("histogram reservoir must be >= 1")
        self._reservoir: "deque[float]" = deque(maxlen=reservoir)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        value = float(value)
        with self._lock:
            self._reservoir.append(value)
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def time(self) -> "_HistogramTimer":
        """Context manager observing the elapsed seconds of its body."""
        return _HistogramTimer(self)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the bounded reservoir (0.0 if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            window = sorted(self._reservoir)
        if not window:
            return 0.0
        rank = min(len(window) - 1, max(0, math.ceil(q * len(window)) - 1))
        return window[rank]

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            count, total = self._count, self._sum
            window = sorted(self._reservoir)
        record: Dict[str, float] = {
            "count": float(count),
            "sum": total,
            "mean": total / count if count else 0.0,
        }
        if window:
            for q in (0.5, 0.95, 0.99):
                rank = min(len(window) - 1, max(0, math.ceil(q * len(window)) - 1))
                record[f"p{int(q * 100)}"] = window[rank]
            record["min"] = window[0]
            record["max"] = window[-1]
        return record

    def samples(self) -> List[Tuple[str, LabelKey, float]]:
        snap = self.snapshot()
        out = [
            (f"{self.name}_count", self.labels, snap["count"]),
            (f"{self.name}_sum", self.labels, snap["sum"]),
        ]
        for q in ("0.5", "0.95", "0.99"):
            key = f"p{int(float(q) * 100)}"
            if key in snap:
                out.append((self.name, self.labels + (("quantile", q),), snap[key]))
        return out

    def clear(self) -> None:
        with self._lock:
            self._reservoir.clear()
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf


class _HistogramTimer:
    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class MetricsRegistry:
    """A namespace of named instruments with Prometheus-style exposition."""

    def __init__(self, namespace: str = "repro", enabled: bool = True) -> None:
        self.namespace = namespace
        #: the one switch every instrument of this registry checks; flipping
        #: it is how ``repro.obs.enable()`` turns a process's no-op
        #: instrumentation live without re-threading anything
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: "Dict[Tuple[str, LabelKey], _Instrument]" = {}
        #: name -> (kind, help); one TYPE line per name however many series
        self._families: Dict[str, Tuple[str, str]] = {}

    # -- instrument creation ---------------------------------------------------
    def _full_name(self, name: str) -> str:
        if self.namespace and not name.startswith(self.namespace + "_"):
            return f"{self.namespace}_{name}"
        return name

    def _get_or_create(self, cls, name: str, help: str, labels: Dict[str, str], **kwargs):
        full = self._full_name(name)
        key = (full, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(self, full, help, key[1], **kwargs)
                self._instruments[key] = instrument
                self._families.setdefault(full, (cls.kind, help))
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"instrument {full!r} already registered as {instrument.kind}"
                )
            return instrument

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def histogram(
        self, name: str, help: str = "", reservoir: int = 4096, **labels: str
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, reservoir=reservoir)

    # -- introspection ---------------------------------------------------------
    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def exposition(self) -> str:
        """The whole registry in the Prometheus text exposition format."""
        lines: List[str] = []
        families: Dict[str, List[_Instrument]] = {}
        for instrument in self.instruments():
            families.setdefault(instrument.name, []).append(instrument)
        for name in sorted(families):
            kind, help = self._families.get(name, ("untyped", ""))
            if help:
                lines.append(f"# HELP {name} {help}")
            lines.append(f"# TYPE {name} {kind}")
            for instrument in families[name]:
                for sample_name, labels, value in instrument.samples():
                    lines.append(
                        f"{sample_name}{_render_labels(labels)} {_render_value(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable dump: one entry per series, histograms expanded."""
        record: Dict[str, object] = {}
        for instrument in self.instruments():
            key = instrument.name + _render_labels(instrument.labels)
            if isinstance(instrument, Histogram):
                record[key] = instrument.snapshot()
            else:
                record[key] = instrument.value  # type: ignore[union-attr]
        return record

    def reset(self) -> None:
        """Zero every instrument's recorded data, in place.

        Instruments stay registered: call sites across the codebase resolve
        their counters once at import time and hold the objects forever, so
        a reset must clear values without orphaning those references —
        dropping the instruments would leave the callers incrementing
        series no exposition ever renders again.
        """
        for instrument in self.instruments():
            instrument.clear()


def parse_exposition(text: str) -> Dict[str, float]:
    """Parse Prometheus text exposition back into ``{series: value}``.

    A deliberately small parser for smoke tests and round-trip checks —
    it accepts exactly what :meth:`MetricsRegistry.exposition` emits
    (comments, ``name{labels} value`` lines) and raises ``ValueError`` on
    anything malformed, which is what makes it useful as a validator.
    """
    import re

    sample = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})?\s+(-?(?:[0-9.eE+-]+|\+Inf|-Inf|NaN))$"
    )
    out: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        match = sample.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line {lineno}: {line!r}")
        name, labels, value = match.groups()
        if value == "+Inf":
            parsed = math.inf
        elif value == "-Inf":
            parsed = -math.inf
        elif value == "NaN":
            parsed = math.nan
        else:
            parsed = float(value)
        out[name + (labels or "")] = parsed
    return out


__all__ = [
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "parse_exposition",
]
