"""Per-tape-step plan profiling: predicted cost vs. measured reality.

SPORES' extraction is driven by its sparsity-based cost model (§6 of the
paper); this module closes the loop by measuring what actually happens
when a compiled plan runs.  A :class:`TapeProfiler` hooks into
:meth:`repro.runtime.tape.TapePlan.execute` and accumulates, per tape
step, call counts, wall-clock seconds, output cells and non-zeros, and
reuse-cache hits.  :func:`build_report` joins those measurements with the
analytic per-node estimates of :class:`repro.cost.la_cost.LACostModel` —
predicted cost and predicted nnz against measured time and actual
intermediate sizes — into a :class:`ProfileReport` whose table
``CompiledPlan.explain()`` renders.

The report is how the cost model gets *validated* instead of trusted:
a node whose cost share is far from its time share, or whose predicted
nnz is far from the measured one, is exactly where the model (or a
kernel) needs attention.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cost.la_cost import LACostModel, estimate_nnz
from repro.runtime.data import MatrixValue
from repro.runtime.tape import TapePlan


class TapeProfiler:
    """Accumulates per-step timing and output statistics across runs.

    One profiler instance can observe many executions of the same tape —
    counts and seconds accumulate, output sizes keep the latest run's
    values (they are deterministic per input shape).  Thread-safe so a
    serving thread could profile in place, though the intended use is
    ``CompiledPlan.profile()`` on a caller thread.
    """

    def __init__(self, n_steps: int) -> None:
        self.n_steps = n_steps
        self.runs = 0
        self._lock = threading.Lock()
        self.calls = [0] * n_steps
        self.seconds = [0.0] * n_steps
        self.reuse_hits = [0] * n_steps
        self.cells: List[int] = [0] * n_steps
        self.nnz: List[int] = [0] * n_steps

    def record(
        self, step: int, seconds: float, value: Optional[MatrixValue], reused: bool
    ) -> None:
        with self._lock:
            self.calls[step] += 1
            self.seconds[step] += seconds
            if reused:
                self.reuse_hits[step] += 1
            if value is not None:
                self.cells[step] = value.cells
                self.nnz[step] = value.nnz

    def finish_run(self) -> None:
        with self._lock:
            self.runs += 1

    @property
    def total_seconds(self) -> float:
        with self._lock:
            return sum(self.seconds)


@dataclass
class StepProfile:
    """One row of the predicted-vs-measured table."""

    step: int
    op: str
    calls: int
    seconds: float
    cells: int
    nnz: int
    reuse_hits: int
    predicted_cost: Optional[float]
    predicted_nnz: Optional[float]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "step": self.step,
            "op": self.op,
            "calls": self.calls,
            "seconds": self.seconds,
            "cells": self.cells,
            "nnz": self.nnz,
            "reuse_hits": self.reuse_hits,
            "predicted_cost": self.predicted_cost,
            "predicted_nnz": self.predicted_nnz,
        }


@dataclass
class ProfileReport:
    """Joined per-node predicted-cost-vs-measured profile of one plan."""

    steps: List[StepProfile]
    runs: int
    total_seconds: float
    predicted_total: float
    measured_cells: int = field(init=False)

    def __post_init__(self) -> None:
        self.measured_cells = sum(step.cells for step in self.steps)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "runs": self.runs,
            "total_seconds": self.total_seconds,
            "predicted_total": self.predicted_total,
            "measured_cells": self.measured_cells,
            "steps": [step.to_dict() for step in self.steps],
        }

    def table(self) -> List[str]:
        """The predicted-vs-measured table as formatted lines.

        Shares: each step's fraction of the plan's total predicted cost
        next to its fraction of measured wall time — the two columns a
        correct cost model keeps roughly aligned.
        """
        header = (
            f"{'step':>4}  {'op':<16} {'calls':>5}  {'time':>9}  {'time%':>6}  "
            f"{'cost%':>6}  {'pred cost':>10}  {'pred nnz':>9}  {'nnz':>9}  {'cells':>9}"
        )
        lines = [header, "-" * len(header)]
        time_total = self.total_seconds or 1.0
        cost_total = self.predicted_total or 1.0
        for step in self.steps:
            cost_share = (
                f"{100.0 * step.predicted_cost / cost_total:6.1f}"
                if step.predicted_cost is not None
                else "     -"
            )
            predicted_cost = (
                f"{step.predicted_cost:10.3g}" if step.predicted_cost is not None else f"{'-':>10}"
            )
            predicted_nnz = (
                f"{step.predicted_nnz:9.3g}" if step.predicted_nnz is not None else f"{'-':>9}"
            )
            lines.append(
                f"{step.step:>4}  {step.op:<16} {step.calls:>5}  "
                f"{step.seconds * 1e3:8.3f}ms  {100.0 * step.seconds / time_total:6.1f}  "
                f"{cost_share}  {predicted_cost}  {predicted_nnz}  "
                f"{step.nnz:>9}  {step.cells:>9}"
            )
        lines.append(
            f"total: {self.total_seconds * 1e3:.3f}ms over {self.runs} run(s), "
            f"predicted cost {self.predicted_total:.3g}, "
            f"measured intermediate cells {self.measured_cells}"
        )
        return lines


def build_report(
    executable: TapePlan,
    profiler: TapeProfiler,
    slot_plan: Any,
    cost_model: Optional[LACostModel] = None,
) -> ProfileReport:
    """Join a profiler's measurements with the cost model's estimates.

    ``slot_plan`` is the slot-space LA root the tape was compiled from;
    the tape remembers which plan node each step materializes, and the
    cost model's ``per_node`` map is keyed by those same (structurally
    hashed) nodes, so the join is a dictionary lookup.  Synthesized
    constant steps have no plan node and show ``-`` in the cost columns.

    Fused plans report *regions*: ``step_group`` lists every plan node a
    region materializes, so a fused row's predicted cost is the sum over
    its member nodes while predicted nnz comes from the region root —
    the profile stays truthful about what the fused step really covers.
    """
    model = cost_model or LACostModel()
    report = model.cost(slot_plan)
    steps: List[StepProfile] = []
    for index in range(len(executable)):
        group = executable.step_group(index)
        predicted_cost: Optional[float] = None
        predicted_nnz: Optional[float] = None
        if group:
            known = [report.per_node[n] for n in group if n in report.per_node]
            if known:
                predicted_cost = sum(known)
            predicted_nnz = estimate_nnz(group[-1])
        steps.append(
            StepProfile(
                step=index,
                op=executable.step_label(index),
                calls=profiler.calls[index],
                seconds=profiler.seconds[index],
                cells=profiler.cells[index],
                nnz=profiler.nnz[index],
                reuse_hits=profiler.reuse_hits[index],
                predicted_cost=predicted_cost,
                predicted_nnz=predicted_nnz,
            )
        )
    return ProfileReport(
        steps=steps,
        runs=profiler.runs,
        total_seconds=profiler.total_seconds,
        predicted_total=report.total,
    )


__all__ = ["TapeProfiler", "StepProfile", "ProfileReport", "build_report"]
