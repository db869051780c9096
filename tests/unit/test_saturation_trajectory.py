"""Golden saturation trajectories: the regression net for scheduler changes.

``tests/data/saturation_trajectory.json`` records, for the 14 paper roots and
the 4 SSSP/REACH roots at size S under ``sampling_greedy`` (plus three small
roots under ``dfs_greedy``), every saturation run's stop reason and
per-iteration ``(matches_found, matches_applied, enodes, classes)``, the
optimized plan text and both cost estimates.  Match search, sampling and
application are deterministic (CRC-seeded, no wall-clock input unless a run
hits its 5 s time limit, which none of these do), so any change to match
sets, keys, priorities or application order shows up here as a diff.

Those trajectories are the runs to the iteration limit or a fixpoint
(``RunnerConfig(plateau=0)``); they predate the anytime stop and did not move
when it landed.  What the pipeline runs by default is pinned next to them
under ``"anytime_stop"`` — per run the stop reason, how many iterations it
kept, and the probe's best root cost after each — and must be a per-root
*prefix* of the ``plateau=0`` run with the same plan and costs: the stop
removes iterations, it never alters one.

Regenerate (only when a trajectory change is intended and reviewed)::

    PYTHONPATH=src python -m tests.unit.test_saturation_trajectory --regenerate
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

from repro.optimizer import OptimizerConfig
from repro.optimizer.pipeline import compile_expression
from tests.helpers import benchmark_roots, without_plateau

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "saturation_trajectory.json"

#: small roots that saturate under the depth-first strategy in milliseconds
DFS_ROOTS = ("ALS/gradient_u", "GLM/hessian_vector", "SSSP/two_hop")


def trajectory(report) -> dict:
    return {
        "runs": [
            {
                "stop_reason": run.stop_reason.value,
                "iterations": [
                    [it.matches_found, it.matches_applied, it.enodes, it.classes]
                    for it in run.iterations
                ],
            }
            for run in report.saturation_reports
        ],
        "optimized": str(report.optimized),
        "original_cost": report.original_cost,
        "optimized_cost": report.optimized_cost,
    }


def stop_summary(report) -> list:
    return [
        {
            "stop_reason": run.stop_reason.value,
            "iterations": run.num_iterations,
            "stale_iterations": run.stale_iterations,
            "best_cost": [it.best_cost for it in run.iterations],
        }
        for run in report.saturation_reports
    ]


@functools.lru_cache(maxsize=None)
def collect() -> tuple:
    """``(golden-shaped dict, default-config trajectories)``, JSON round-tripped
    so floats and lists compare like the file's."""
    presets = ("sampling_greedy", "dfs_greedy")
    golden = {preset: {} for preset in presets}
    golden["anytime_stop"] = {preset: {} for preset in presets}
    default = {preset: {} for preset in presets}
    for kind, expr, semiring in benchmark_roots():
        for preset in presets if kind in DFS_ROOTS else presets[:1]:
            config = getattr(OptimizerConfig, preset)(semiring=semiring)
            fixpoint = compile_expression(expr, without_plateau(config)).report
            golden[preset][kind] = trajectory(fixpoint)
            report = compile_expression(expr, config).report
            golden["anytime_stop"][preset][kind] = stop_summary(report)
            default[preset][kind] = trajectory(report)
    return json.loads(json.dumps(golden)), json.loads(json.dumps(default))


def test_saturation_trajectory_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    observed, _ = collect()
    assert observed.keys() == golden.keys()
    sections = ((observed, golden), (observed["anytime_stop"], golden["anytime_stop"]))
    for preset in ("sampling_greedy", "dfs_greedy"):
        for section, expected_section in sections:
            assert section[preset].keys() == expected_section[preset].keys()
            for kind, expected in expected_section[preset].items():
                assert section[preset][kind] == expected, f"{preset} {kind} drifted"


def test_default_run_is_a_prefix_of_the_plateau_0_run():
    """The anytime stop only ever removes trailing iterations: on every root
    the default run's per-iteration counts are the first rows of the
    ``plateau=0`` run's, and the plan and both costs are the same."""
    fixpoint, default = collect()
    stopped_early = 0
    for preset, roots in default.items():
        for kind, stopped in roots.items():
            full = fixpoint[preset][kind]
            for key in ("optimized", "original_cost", "optimized_cost"):
                assert stopped[key] == full[key], f"{preset} {kind}: {key} changed"
            assert len(stopped["runs"]) == len(full["runs"])
            for run, full_run in zip(stopped["runs"], full["runs"]):
                rows = run["iterations"]
                assert rows == full_run["iterations"][: len(rows)], f"{preset} {kind}"
                if run["stop_reason"] == "plateau":
                    stopped_early += 1
                else:
                    assert run == full_run, f"{preset} {kind}"
    assert stopped_early >= 4  # at least the four roots that used to hit the iteration limit


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(collect()[0], indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
