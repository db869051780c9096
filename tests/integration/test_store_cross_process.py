"""Real process isolation for the plan store: a child interpreter on a store
its parent warmed compiles nothing, never saturates, computes the same numbers."""

import json
import os
import subprocess
import sys

import numpy as np

from repro.api import Session
from repro.optimizer import OptimizerConfig
from repro.workloads import get_workload

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

CHILD = """
import json, sys
from repro.api import Session
from repro.egraph.runner import Runner
from repro.optimizer import OptimizerConfig
from repro.workloads import get_workload

def forbidden(self, egraph, rules):
    raise AssertionError("a warm store must skip saturation")
Runner.run = forbidden
session = Session(OptimizerConfig.sampling_greedy(), store_path=sys.argv[1])
results = get_workload("GLM", "S").run_session(session, seed=0)
print(json.dumps({
    "compilations": session.compilations,
    "results": {name: r.value.to_dense().tolist() for name, r in results.items()},
}))
"""


def test_child_process_on_a_warm_store_compiles_nothing(tmp_path):
    workload = get_workload("GLM", "S")
    parent = Session(OptimizerConfig.sampling_greedy(), store_path=tmp_path)
    expected = workload.run_session(parent, seed=0)
    assert parent.compilations == len(workload.roots)
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    record = json.loads(child.stdout)
    assert record["compilations"] == 0
    assert set(record["results"]) == set(expected)
    for name, result in expected.items():
        assert np.array_equal(np.array(record["results"][name]), result.value.to_dense()), name
