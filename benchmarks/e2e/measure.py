"""Measurement plumbing shared by the four workloads.

A run is a sequence of *rounds*: the clock runs, ops are issued, the clock
stops, and only then are the round's outputs checked against their
references and dropped.  Every timing metric is computed per round and
reported as the median over rounds (min, max and the sample count ride
along in the run record), which is what keeps one noisy second on a shared
VM from deciding a result.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np
from scipy import sparse

from repro import obs


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(samples: Iterable[float]) -> float:
    return statistics.median(samples)


def geomean(samples: Iterable[float]) -> float:
    values = list(samples)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_CALIB_SPARSE = sparse.random(4000, 200, density=0.05, format="csr", random_state=1)
_CALIB_VECTOR = np.linspace(0.1, 1.0, 200).reshape(200, 1)
_CALIB_DENSE = np.linspace(0.1, 1.0, 200 * 100).reshape(200, 100)

#: calibration ops per reading (~12 ms); a round is bracketed by two readings
CALIBRATION_OPS = 30


def calibration_op() -> float:
    """~0.4 ms of the kind of work the program does: Python objects (a dict of
    tuples, a keyed sort), a SciPy sparse mat-vec pair, a NumPy elementwise pass."""
    table = {}
    for index in range(150):
        table[(index, index * 7 % 13)] = [index, index + 1]
    keys = sorted(table, key=lambda key: (key[1], key[0]))
    total = sum(table[key][1] for key in keys[::2])
    forward = _CALIB_SPARSE @ _CALIB_VECTOR
    backward = _CALIB_SPARSE.T @ forward
    squared = _CALIB_DENSE * _CALIB_DENSE + 1.0
    return total + float(backward[0, 0]) + float(squared.sum())


def calibrate(ops: int = CALIBRATION_OPS) -> float:
    """One calibration reading: the median duration of ``ops`` calibration ops, in ms.

    Taken right before and right after every round and recorded
    (``process.calib_ms``) so that a slow *machine* can be told from a slow
    *program*.  It is **never used to normalise**: dividing by it was tried and
    steadied ``compile_cold`` while unsteadying ``serve_unique`` (README,
    "Machine noise").
    """
    perf = time.perf_counter
    samples = []
    for _ in range(ops):
        start = perf()
        calibration_op()
        samples.append(perf() - start)
    return statistics.median(samples) * 1e3


@dataclass
class Op:
    """One completed op: which plan/root it ran and how long it took."""

    kind: str
    seconds: float
    #: clocked seconds since its round's clock started, at completion
    at: float = 0.0


@dataclass
class Round:
    """What one timed round produced (the clock is already stopped)."""

    wall: float
    cpu: float
    ops: List[Op]
    attempted: int
    failed: int = 0
    #: mean of the calibration readings right before and right after the round
    calib_ms: float = 0.0
    #: finer-grained timings for the per-plan rows and ``plan_ms_geomean``
    #: when an op covers several plans (a compile sweep); defaults to ``ops``
    rows: Optional[List[Op]] = None

    @property
    def plan_ops(self) -> List[Op]:
        return self.ops if self.rows is None else self.rows


@dataclass
class Summary:
    """Median over rounds of one metric, with its spread and sample count."""

    value: float
    low: float
    high: float
    samples: int

    def to_json(self) -> Dict[str, float]:
        return {"median": self.value, "min": self.low, "max": self.high, "n": self.samples}


def summarize(values: Sequence[float]) -> Summary:
    return Summary(median(values), min(values), max(values), len(values))


@dataclass
class RunRecord:
    """Everything one ``run.py --workload`` invocation measured."""

    workload: str
    seed: int
    rounds: List[Round] = field(default_factory=list)
    setup_seconds: List[float] = field(default_factory=list)
    import_s: float = 0.0
    inputs_s: float = 0.0
    reference_s: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds)

    def _timed_rounds(self) -> List[Round]:
        rounds = [r for r in self.rounds if r.ops]
        if not rounds:
            raise RuntimeError(f"{self.workload}: no round completed a correct op")
        return rounds

    def end_to_end(self) -> Dict[str, Summary]:
        """The six end-to-end metrics, each the median over rounds."""
        rounds = self._timed_rounds()
        per_kind: Dict[str, List[float]] = {}
        for r in rounds:
            by_kind: Dict[str, List[float]] = {}
            for op in r.plan_ops:
                by_kind.setdefault(op.kind, []).append(op.seconds)
            for kind, samples in by_kind.items():
                per_kind.setdefault(kind, []).append(median(samples) * 1e3)
        fixed = self.import_s + self.inputs_s
        rss = peak_rss_mb()
        return {
            "setup_s": Summary(
                fixed + median(self.setup_seconds),
                fixed + min(self.setup_seconds),
                fixed + max(self.setup_seconds),
                len(self.setup_seconds),
            ),
            "ops_per_s": summarize([len(r.ops) / r.wall for r in rounds]),
            "cpu_ms_per_op": summarize([r.cpu / len(r.ops) * 1e3 for r in rounds]),
            "op_ms_p50": summarize(
                [percentile([op.seconds for op in r.ops], 0.50) * 1e3 for r in rounds]
            ),
            "plan_ms_geomean": Summary(
                geomean(median(v) for v in per_kind.values()),
                geomean(min(v) for v in per_kind.values()),
                geomean(max(v) for v in per_kind.values()),
                len(per_kind),
            ),
            "peak_rss_mb": Summary(rss, rss, rss, 1),
        }

    def op_ms_p99(self) -> float:
        """Median over rounds of the round's 99th-percentile op latency (not gated)."""
        return median(
            percentile([op.seconds for op in r.ops], 0.99) * 1e3 for r in self._timed_rounds()
        )

    def calib_ms(self) -> float:
        return median(r.calib_ms for r in self._timed_rounds())

    def plan_rows(self) -> Dict[str, Dict[str, float]]:
        """Each plan/root in its own row: median op ms over rounds and op count."""
        rows: Dict[str, List[float]] = {}
        for r in self.rounds:
            for op in r.plan_ops:
                rows.setdefault(op.kind, []).append(op.seconds * 1e3)
        return {
            kind: {"median_ms": median(samples), "ops": len(samples)}
            for kind, samples in sorted(rows.items())
        }


class Clock:
    """Wall + CPU stopwatch that can be paused while outputs are checked."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self._wall0: Optional[float] = None
        self._cpu0 = 0.0

    def start(self) -> None:
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()

    def stop(self) -> None:
        self.wall += time.perf_counter() - self._wall0
        self.cpu += time.process_time() - self._cpu0
        self._wall0 = None


def scratch_dir(prefix: str) -> str:
    """A fresh directory under ``benchmarks/e2e/out/`` for plan stores — the
    benchmark writes nowhere outside its checkout; the caller removes it."""
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=out)


def tracing_overhead(
    run_round: Callable[[bool], Round],
    rounds: List[Round],
    more: Callable[[int], bool],
    after_traced: Optional[Callable[[], None]] = None,
) -> float:
    """Alternate untraced and traced rounds of the real op loop; traced / untraced ops/s.

    ``run_round(tracing)`` runs one round (with ``repro.obs`` switched on when
    ``tracing``); at least one of each runs, then for as long as ``more(index)``.
    Every round is appended to ``rounds``; ``after_traced`` runs after each
    traced round (the serve workloads drain the program's span ring there).
    """
    rates: Dict[bool, List[float]] = {False: [], True: []}
    index = 0
    while index < 2 or more(index):
        tracing = index % 2 == 1
        if tracing:
            obs.enable()
        try:
            result = run_round(tracing)
        finally:
            obs.disable()
        if tracing and after_traced is not None:
            after_traced()
        rates[tracing].append(len(result.ops) / result.wall)
        rounds.append(result)
        index += 1
    return median(rates[True]) / median(rates[False])
