"""Where one plan's run time goes: per-step time, sizes, predicted cost, allocation.

Compiles one workload root through a :class:`~repro.api.Session`, binds the
workload's own seeded inputs and prints, per step of the plan's executable
(a fusion region on the real ring, a tape step otherwise),

* the **measured** side from ``CompiledPlan.profile()``: milliseconds per run,
  share of the plan, output cells and stored non-zeros;
* the **predicted** side from the same report: the cost model's estimate for
  the step's nodes, as a share of the plan's predicted total;
* the **allocation peak**: bytes ``tracemalloc`` saw allocated above the
  step's starting level while it ran (one extra, untimed execution — tracing
  slows NumPy allocation, so it never shares a run with the clock).

Counts are deterministic; times are the mean of ``--runs`` executions.

With ``--pinned N`` the plan first runs ``N`` times the way a solver loop
drives it: the workload's data objects (the sparse ``X`` of the paper
families, the adjacency ``A`` of SSSP/REACH) stay the same objects while the
parameters are fresh each run.  The profile then covers the executable the
plan adopted, whose hoisted steps (built once per pinned value) show as
reused.

Run with::

    PYTHONPATH=src python tools/profile_execution.py GLM/gradient
    PYTHONPATH=src python tools/profile_execution.py PNMF/w_numerator --size M
    PYTHONPATH=src python tools/profile_execution.py SVM/hessian_vector --size S --pinned 8
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Session  # noqa: E402
from repro.obs.profile import TapeProfiler  # noqa: E402
from repro.optimizer import OptimizerConfig  # noqa: E402
from repro.runtime.data import SPARSE_THRESHOLD  # noqa: E402
from repro.workloads import SEMIRING_WORKLOADS, WORKLOADS  # noqa: E402


class AllocationProfiler(TapeProfiler):
    """A step profiler that records each step's traced allocation peak."""

    def __init__(self, n_steps: int) -> None:
        super().__init__(n_steps)
        self.peak_bytes: List[int] = [0] * n_steps
        self._level = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    def record(self, step, seconds, value, reused) -> None:
        current, peak = tracemalloc.get_traced_memory()
        self.peak_bytes[step] = peak - self._level
        self._level = current
        tracemalloc.reset_peak()
        super().record(step, seconds, value, reused)


def allocation_peaks(plan, values) -> List[int]:
    """Per-step ``tracemalloc`` peak above the step's starting level."""
    executable = plan.executable()
    tracemalloc.start()
    try:
        profiler = AllocationProfiler(len(executable))
        executable.execute(values, profiler=profiler)
    finally:
        tracemalloc.stop()
    return profiler.peak_bytes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", help="<WORKLOAD>/<root>, e.g. GLM/gradient or SSSP/relax")
    parser.add_argument("--size", choices=("S", "M", "L"), default="M")
    parser.add_argument("--runs", type=int, default=20, help="timed executions (mean is shown)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--pinned",
        type=int,
        default=0,
        metavar="N",
        help="run N times on pinned data objects with fresh parameters first",
    )
    args = parser.parse_args(argv)
    family, _, root = args.root.partition("/")
    registry = {**WORKLOADS, **SEMIRING_WORKLOADS}
    if family not in registry:
        parser.error(f"unknown workload {family!r}; available: {sorted(registry)}")
    workload = registry[family].build(args.size)
    if root not in workload.roots:
        parser.error(f"unknown root {root!r}; {family} has: {sorted(workload.roots)}")

    session = Session(OptimizerConfig.sampling_greedy(semiring=workload.semiring))
    plan = session.compile(workload.roots[root])
    generated = workload.inputs(args.seed)
    inputs = {name: generated[name] for name in plan.input_names}
    data = {"A"}  # the adjacency of SSSP/REACH; the paper families keep their sparse X
    if workload.semiring == "real":
        data = {spec.name for spec in plan.slots if (spec.sparsity or 1.0) < SPARSE_THRESHOLD}
    for run in range(args.pinned):
        fresh = workload.inputs(args.seed + 1 + run)
        plan.run({name: inputs[name] if name in data else fresh[name] for name in inputs})
    plan.run(inputs)  # first-run lazy state (executable build) stays out of the profile
    report = plan.profile(inputs, runs=args.runs)
    peaks = allocation_peaks(plan, plan.bind(inputs))

    pinned = ",".join(spec.name for spec in plan.slots if spec.pinned) or "none"
    print(
        f"{args.root}  size={args.size}  ring={workload.semiring}  "
        f"executable={type(plan.executable()).__name__}  pinned={pinned}  "
        f"(mean of {report.runs} runs)"
    )
    print(
        f"{'step':>4}  {'op':<28}{'ms':>8}{'time%':>7}{'cost%':>8}{'pred cost':>11}"
        f"{'cells':>10}{'nnz':>10}{'reused':>8}{'alloc peak B':>14}"
    )
    time_total = report.total_seconds or 1.0
    cost_total = report.predicted_total or 1.0
    for step, peak in zip(report.steps, peaks):
        cost = step.predicted_cost
        print(
            f"{step.step:>4}  {step.op:<28}{step.seconds / report.runs * 1e3:>8.3f}"
            f"{step.seconds / time_total:>7.1%}"
            f"{(f'{cost / cost_total:.1%}' if cost is not None else '-'):>8}"
            f"{(f'{cost:.4g}' if cost is not None else '-'):>11}"
            f"{step.cells:>10}{step.nnz:>10}{f'{step.reuse_hits}/{report.runs}':>8}{peak:>14}"
        )
    print(
        f"total {report.total_seconds / report.runs * 1e3:.3f} ms/run, predicted cost "
        f"{report.predicted_total:.4g}, intermediate cells {report.measured_cells}, "
        f"largest step allocation {max(peaks, default=0)} B"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
