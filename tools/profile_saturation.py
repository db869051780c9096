"""Where one root's saturation time goes: phase split and per-rule funnel.

Compiles one workload root the way the optimizer does (barrier split, one
saturation run per region) and prints

* the **phase split** of the time inside ``Runner._run`` — search, schedule,
  apply, rebuild, and the plateau probe (``RunnerConfig.plateau``) — measured
  by wrapping those calls for the duration of the profile (the runner itself
  only times its searches);
* per region, the stop reason and the **best root cost after every
  iteration** — why the anytime stop fired where it did — the fused
  operators the lowering seeded (``fuse`` places them in the graph), and
  whether the region kept its extracted plan or fell back, with the two
  fused LA costs the keep-check compared (lifted plan, original);
* the **per-rule funnel** from ``RunReport.rule_stats``: how many matches each
  rule found, how many the scheduler kept (and so paid a rewrite for), how
  many changed the graph, and what a found match cost to search — beside the
  rule's ``query`` (``anchor[/inner]``, then ``full`` when the rule is not
  incremental; ``fuse`` reads ``EGraph.fusions`` instead).

Counts are deterministic; times are the fastest of ``--repeat`` compiles.

Run with::

    PYTHONPATH=src python tools/profile_saturation.py GLM/deviance
    PYTHONPATH=src python tools/profile_saturation.py SSSP/two_hop --preset dfs_greedy
    PYTHONPATH=src python tools/profile_saturation.py GLM/deviance --plateau 0  # to the limit
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.egraph.graph import EGraph  # noqa: E402
from repro.egraph.rewrite import Match  # noqa: E402
from repro.egraph.runner import Runner, RuleStats  # noqa: E402
from repro.extract.greedy import BestCostTable  # noqa: E402
from repro.optimizer import OptimizerConfig  # noqa: E402
from repro.optimizer import pipeline  # noqa: E402
from repro.optimizer.pipeline import compile_expression  # noqa: E402
from repro.ra.rexpr import RFused  # noqa: E402
from repro.rules import relational_rules  # noqa: E402
from repro.workloads import SEMIRING_WORKLOADS, WORKLOADS  # noqa: E402

PRESETS = ("sampling_greedy", "sampling_ilp", "dfs_greedy")

#: phase name -> the call whose wall time it is
PHASES = {
    "schedule": (Runner, "_schedule"),
    "apply": (Match, "apply"),
    "rebuild": (EGraph, "rebuild"),
    "probe": (BestCostTable, "root_cost"),
    "total": (Runner, "_run"),
}


@contextmanager
def phase_timers() -> Iterator[Dict[str, float]]:
    """Wrap the phase calls with wall-clock accumulators; restore on exit."""
    seconds = {phase: 0.0 for phase in PHASES}
    originals = {phase: getattr(owner, name) for phase, (owner, name) in PHASES.items()}

    def timed(phase: str, call):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                seconds[phase] += time.perf_counter() - start

        return wrapper

    for phase, (owner, name) in PHASES.items():
        setattr(owner, name, timed(phase, originals[phase]))
    try:
        yield seconds
    finally:
        for phase, (owner, name) in PHASES.items():
            setattr(owner, name, originals[phase])


@contextmanager
def region_probes() -> Iterator[List[Dict[str, object]]]:
    """Per lowered region: the fused operators its lowering seeded and the
    keep-check's two fused LA costs (lifted plan, then original) — read from
    the pipeline's own ``lower`` and ``_plan_cost`` calls; restored on exit."""
    regions: List[Dict[str, object]] = []
    lower, plan_cost = pipeline.lower, pipeline._plan_cost

    def lowered(expr):
        result = lower(expr)
        body = result.plan.body
        seeded = [sub.fusion.name for sub in body.walk() if isinstance(sub, RFused)]
        regions.append({"seeded": seeded, "costs": []})
        return result

    def costed(expr, config, cost_model):
        cost = plan_cost(expr, config, cost_model)
        regions[-1]["costs"].append(cost)
        return cost

    pipeline.lower, pipeline._plan_cost = lowered, costed
    try:
        yield regions
    finally:
        pipeline.lower, pipeline._plan_cost = lower, plan_cost


def profile(expr, config: OptimizerConfig, repeat: int):
    """``(phase seconds, saturation reports, region probes)`` of the fastest
    of ``repeat`` compiles."""
    best = None
    for _ in range(repeat + 1):  # the first compile is the warm-up
        with phase_timers() as seconds, region_probes() as regions:
            runs = compile_expression(expr, config).report.saturation_reports
        seconds["search"] = sum(
            stats.search_seconds for run in runs for stats in run.rule_stats.values()
        )
        if best is None or seconds["total"] < best[0]["total"]:
            best = (seconds, runs, regions)
    return best


def outcome(region: Dict[str, object]) -> str:
    """``kept``/``fallback`` and why, as the keep-check decided it."""
    costs = region["costs"]
    if not costs:
        return "fallback: the plan did not lift (or needs an unsized fill)"
    lifted, original = costs
    verdict = "fallback" if lifted > original else "kept"
    return f"{verdict}: lifted plan {lifted:.6g} vs original {original:.6g} (LA, after fusion)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", help="<WORKLOAD>/<root>, e.g. GLM/deviance or SSSP/two_hop")
    parser.add_argument("--preset", choices=PRESETS, default="sampling_greedy")
    parser.add_argument("--repeat", type=int, default=5, help="timed compiles (fastest is shown)")
    parser.add_argument("--plateau", type=int, help="RunnerConfig.plateau (0: no anytime stop)")
    args = parser.parse_args(argv)
    family, _, root = args.root.partition("/")
    registry = {**WORKLOADS, **SEMIRING_WORKLOADS}
    if family not in registry:
        parser.error(f"unknown workload {family!r}; available: {sorted(registry)}")
    workload = registry[family].build("S")
    if root not in workload.roots:
        parser.error(f"unknown root {root!r}; {family} has: {sorted(workload.roots)}")
    config = getattr(OptimizerConfig, args.preset)(semiring=workload.semiring)
    if args.plateau is not None:
        config.runner.plateau = args.plateau
    seconds, runs, regions = profile(workload.roots[root], config, args.repeat)

    print(
        f"{args.root}  preset={args.preset}  ring={workload.semiring}  "
        f"plateau={config.runner.plateau}  (fastest of {args.repeat})"
    )
    for index, (run, region) in enumerate(zip(runs, regions)):
        print(f"  region {index}: {run.describe()}, {run.final_classes} classes")
        if run.best_cost is not None:
            costs = " ".join(f"{stats.best_cost:.6g}" for stats in run.iterations)
            print(f"    best root cost per iteration: {costs}")
        print(f"    fused operators seeded: {', '.join(region['seeded']) or 'none'}")
        print(f"    {outcome(region)}")

    total = seconds["total"]
    phases = ("search", "schedule", "apply", "rebuild", "probe")
    seconds["other"] = total - sum(seconds[p] for p in phases)
    print(f"\n{'phase':<10}{'ms':>9}{'share':>8}")
    for phase in (*phases, "other", "total"):
        share = seconds[phase] / total if total else 0.0
        print(f"{phase:<10}{seconds[phase] * 1e3:>9.1f}{share:>8.1%}")

    fields = [field.name for field in dataclasses.fields(RuleStats)]
    funnel: Dict[str, RuleStats] = {}
    for name in [name for run in runs for name in run.rule_stats] + ["total"]:
        funnel.setdefault(name, RuleStats())
    for run in runs:
        for name, stats in run.rule_stats.items():
            for target in (funnel[name], funnel["total"]):
                for field in fields:
                    setattr(target, field, getattr(target, field) + getattr(stats, field))
    queries = {
        rule.name: f"{rule.query or 'fusions'}{'' if rule.incremental else ' full'}"
        for rule in relational_rules(ring=config.ring())
    }
    print(
        f"\n{'rule':<24}{'query':<13}{'searches':>9}{'found':>8}{'scheduled':>10}{'applied':>8}"
        f"{'search ms':>10}{'us/found':>9}"
    )
    for name, stats in funnel.items():
        per_found = stats.search_seconds * 1e6 / stats.found if stats.found else 0.0
        print(
            f"{name:<24}{queries.get(name, ''):<13}{stats.searches:>9}{stats.found:>8}"
            f"{stats.scheduled:>10}{stats.applied:>8}{stats.search_seconds * 1e3:>10.2f}"
            f"{per_found:>9.2f}"
        )
    print("query: anchor[/inner] (_ any child); full = not incremental, every anchor every iteration")
    print("       fusions = the fused e-nodes the lowering proposed (EGraph.fusions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
