"""Golden saturation trajectories: the regression net for scheduler changes.

``tests/data/saturation_trajectory.json`` records, for the 14 paper roots and
the 4 SSSP/REACH roots at size S under ``sampling_greedy`` (plus three small
roots under ``dfs_greedy``), every saturation run's stop reason and
per-iteration ``(matches_found, matches_applied, enodes, classes)``, the
optimized plan text and both cost estimates.  Match search, sampling and
application are deterministic (CRC-seeded, no wall-clock input unless a run
hits its 5 s time limit, which none of these do), so any change to match
sets, keys, priorities or application order shows up here as a diff.

Regenerate (only when a trajectory change is intended and reviewed)::

    PYTHONPATH=src python -m tests.unit.test_saturation_trajectory --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.optimizer import OptimizerConfig
from repro.optimizer.pipeline import compile_expression
from tests.helpers import benchmark_roots

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "saturation_trajectory.json"

#: small roots that saturate under the depth-first strategy in milliseconds
DFS_ROOTS = ("ALS/gradient_u", "GLM/hessian_vector", "SSSP/two_hop")


def trajectory(expr, config: OptimizerConfig) -> dict:
    report = compile_expression(expr, config).report
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


def collect() -> dict:
    sampling, dfs = {}, {}
    for kind, expr, semiring in benchmark_roots():
        sampling[kind] = trajectory(expr, OptimizerConfig.sampling_greedy(semiring=semiring))
        if kind in DFS_ROOTS:
            dfs[kind] = trajectory(expr, OptimizerConfig.dfs_greedy(semiring=semiring))
    return {"sampling_greedy": sampling, "dfs_greedy": dfs}


def test_saturation_trajectory_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    # Round-trip through JSON so floats and lists compare like the file's.
    observed = json.loads(json.dumps(collect()))
    assert observed.keys() == golden.keys()
    for preset, roots in golden.items():
        assert observed[preset].keys() == roots.keys()
        for kind, expected in roots.items():
            assert observed[preset][kind] == expected, f"{preset} {kind} drifted"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
