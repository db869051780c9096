"""The adaptation traffic of a solver-shaped loop, locked per plan.

An ``exec_warm``-shaped loop at size S: the 14 paper roots and the 4
SSSP/REACH roots are compiled once in one session per semiring, then run
round-robin for :data:`SWEEPS` sweeps.  The data objects (the sparse ``X``
of every paper family, the adjacency ``A`` of SSSP/REACH) are the same
objects in every request; the parameters rotate over :data:`VERSIONS`
versions wrapped once each, so a parameter object never repeats on
consecutive runs of a plan.  What the plans learn from that — which pinned
contexts they compile, when they adopt one, when they drift and revert, and
what each session compiles — is committed in :data:`EXPECTED`.

Regenerate the table (after a deliberate change of what plans learn) with
``PYTHONPATH=src python -m tests.unit.test_plan_adaptation``.
"""

from __future__ import annotations

import pprint
from typing import Dict, List, Tuple

import numpy as np

from repro.api import Session
from repro.lang import Dim, Matrix, Vector, dag
from repro.optimizer import OptimizerConfig
from repro.runtime.data import SPARSE_THRESHOLD, MatrixValue
from repro.workloads import SEMIRING_WORKLOADS, WORKLOADS

SWEEPS = 24
VERSIONS = 8

#: per plan ``(variants, adoptions, reverts, drift_events, recompiles)``: the
#: pinned input names of every pinned variant the session resolved, the run
#: index of every pinned adoption, the pinned reverts, the drift events and
#: the run index of every drift recompile (run 0 is the warm-up); per session
#: (keyed by semiring): compilations
EXPECTED: Dict[str, object] = {
    "ALS/loss": ([], [], 0, 0, []),
    "ALS/gradient_u": ([("X",)], [], 0, 0, []),
    "GLM/hessian_vector": ([("X",)], [6], 0, 0, []),
    "GLM/gradient": ([("X",)], [2], 0, 0, []),
    "GLM/deviance": ([], [], 0, 0, []),
    "SVM/gradient": ([("X",)], [4], 0, 0, []),
    "SVM/hessian_vector": ([("X",)], [5], 0, 0, []),
    "SVM/objective": ([], [], 0, 0, []),
    "MLR/weighted_rows": ([("X",)], [], 0, 0, []),
    "MLR/hessian_vector": ([("X",)], [6], 0, 0, []),
    "MLR/gradient": ([("X",)], [2], 0, 0, []),
    "PNMF/objective": ([], [], 0, 0, []),
    "PNMF/h_update": ([("X",)], [], 0, 0, []),
    "PNMF/w_numerator": ([("X",)], [], 0, 0, []),
    "SSSP/relax": ([("A",)], [2], 0, 0, []),
    "SSSP/two_hop": ([], [], 0, 0, []),
    "REACH/step": ([("A",), ("A",)], [2, 6], 0, 1, [5]),
    "REACH/two_hop": ([], [], 0, 0, []),
    "compilations": {"real": 24, "min-plus": 3, "bool": 5},
}


def _requests(workload) -> Tuple[List[Dict[str, MatrixValue]], Dict[str, Tuple[str, ...]]]:
    """Per version, one value per leaf: data leaves keep version 0's object."""
    generated = [workload.inputs(version) for version in range(VERSIONS)]
    leaves = {}
    for root in workload.roots.values():
        for var in dag.variables(root):
            leaves.setdefault(var.name, var)
    if workload.semiring == "real":
        data = {
            name for name, var in leaves.items()
            if var.sparsity is not None and var.sparsity < SPARSE_THRESHOLD
        }
    else:
        data = {"A"}
    versions = [
        {name: generated[0][name] if name in data else values[name] for name in leaves}
        for values in generated
    ]
    return versions, {name: tuple(v.name for v in dag.variables(root))
                      for name, root in workload.roots.items()}


def adaptation_traffic(size: str = "S", ring_size: str = "S") -> Dict[str, object]:
    """Run the loop and return the observed traffic (the shape of :data:`EXPECTED`).

    ``exec_warm`` itself runs the paper roots at size M and the semiring
    roots at size L; the committed table is the S/S loop."""
    sessions: Dict[str, Session] = {}
    plans = []
    current: List[List[Tuple[str, ...]]] = [[]]
    resolve = Session._resolve

    def spy(session, expr, signature):
        pinned = tuple(spec.name for spec in signature.slots if spec.pinned)
        if pinned:
            current[0].append(pinned)
        return resolve(session, expr, signature)

    Session._resolve = spy
    try:
        for registry, at in ((WORKLOADS, size), (SEMIRING_WORKLOADS, ring_size)):
            for family, spec in registry.items():
                workload = spec.build(at)
                versions, root_leaves = _requests(workload)
                ring = workload.semiring
                session = sessions.get(ring)
                if session is None:
                    session = sessions[ring] = Session(
                        OptimizerConfig.sampling_greedy(semiring=ring)
                    )
                for root, expr in workload.roots.items():
                    requests = [
                        {leaf: values[leaf] for leaf in root_leaves[root]} for values in versions
                    ]
                    plan = session.compile(expr)
                    plans.append([f"{family}/{root}", plan, requests, [], [], []])
        for run in range(SWEEPS + 1):
            version = max(run - 1, 0) % VERSIONS  # run 0 is the warm-up on version 0
            for item in plans:
                _, plan, requests, variants, adoptions, recompiles = item
                before = (plan.stats.pin_adoptions, plan.stats.recompiles)
                current[0] = variants
                plan.run(requests[version])
                if plan.stats.pin_adoptions != before[0]:
                    adoptions.append(run)
                if plan.stats.recompiles != before[1]:
                    recompiles.append(run)
    finally:
        Session._resolve = resolve
    traffic: Dict[str, object] = {
        kind: (
            sorted(variants),
            adoptions,
            plan.stats.pin_reverts,
            plan.stats.drift_events,
            recompiles,
        )
        for kind, plan, _, variants, adoptions, recompiles in plans
    }
    traffic["compilations"] = {ring: session.compilations for ring, session in sessions.items()}
    return traffic


def test_adaptation_traffic_matches_the_committed_table():
    traffic = adaptation_traffic()
    for kind, expected in EXPECTED.items():
        assert traffic[kind] == expected, kind
    assert set(traffic) == set(EXPECTED)


# -- a drift and a pinned variant in one plan ----------------------------------
def _hessian_vector(rows: int = 60, cols: int = 20):
    m, n = Dim("m", rows), Dim("n", cols)
    X = Matrix("X", m, n, sparsity=0.3)
    s = Vector("s", n, sparsity=0.05)
    return X.T @ (X @ s) + 0.01 * s


def _sparse_s(rng: np.random.Generator, cols: int = 20) -> MatrixValue:
    dense = np.zeros((cols, 1))
    dense[rng.integers(0, cols), 0] = rng.uniform(0.5, 1.0)
    return MatrixValue(dense)


def _drifted_plan():
    """A plan that adopts its X-pinned variant, then drifts on ``s`` (hinted
    sparse, sent dense) and re-adopts; returns the plan, the entries it went
    through, and the data objects."""
    rng = np.random.default_rng(3)
    session = Session(OptimizerConfig.sampling_greedy())
    plan = session.compile(_hessian_vector())
    x = MatrixValue(rng.uniform(0.05, 0.95, (60, 20)) * (rng.uniform(size=(60, 20)) < 0.3))
    original = plan._entry
    for _ in range(30):
        plan.run(X=x, s=_sparse_s(rng))
    assert plan.stats.pin_adoptions == 1 and plan.stats.drift_events == 0
    pinned = plan._entry
    plan.run(X=x, s=MatrixValue(rng.uniform(0.05, 0.95, (20, 1))))
    assert plan.stats.drift_events == 1 and plan.stats.recompiles == 1
    drifted = plan._entry
    assert drifted not in (original, pinned)
    plan.run(X=x, s=MatrixValue(rng.uniform(0.05, 0.95, (20, 1))))
    return plan, original, pinned, drifted, x, rng


def _hints(entry) -> Dict[str, Tuple[float, bool]]:
    return {spec.name: (spec.sparsity, spec.pinned) for spec in entry.signature.slots}


def test_a_drift_under_a_pinned_variant_relearns_under_the_drifted_hints():
    plan, original, pinned, drifted, _, _ = _drifted_plan()
    assert plan.stats.pin_adoptions == 2
    adopted = plan._entry
    assert adopted not in (original, pinned, drifted)
    assert _hints(pinned)["s"] == (0.05, False)
    assert _hints(drifted)["s"] == (1.0, False) and not _hints(drifted)["X"][1]
    # the new variant's digest carries the drifted hint and the pin
    assert _hints(adopted) == {"X": (0.3, True), "s": (1.0, False)}
    assert adopted.signature.digest not in (pinned.signature.digest, drifted.signature.digest)


def test_a_revert_after_a_drift_returns_to_the_drifted_entry():
    plan, original, _, drifted, x, rng = _drifted_plan()
    other = MatrixValue(x.data.copy())
    plan.run(X=other, s=MatrixValue(rng.uniform(0.05, 0.95, (20, 1))))
    assert plan.stats.pin_reverts == 1
    assert plan._entry is drifted and plan._entry is not original


if __name__ == "__main__":
    import sys

    pprint.pprint(adaptation_traffic(*sys.argv[1:3]), width=100, sort_dicts=False)
