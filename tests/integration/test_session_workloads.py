"""Integration: every workload runs end-to-end through the Session API and
matches the legacy one-shot optimize + execute path; repeat requests of the
same workload shape are pure cache hits."""

import numpy as np
import pytest

from repro.api import Session
from repro.optimizer import OptimizerConfig, compile_expression
from repro.runtime import execute, fuse_operators
from repro.workloads import get_workload, workload_names

CONFIG = OptimizerConfig.sampling_greedy()


@pytest.fixture(scope="module")
def session():
    """One shared session across the module — the service deployment shape.

    Every test populates whatever it needs itself, so each passes in
    isolation; sharing only makes repeat compilations cheap.
    """
    return Session(CONFIG)


@pytest.mark.parametrize("name", workload_names())
def test_session_matches_legacy_path(name, session):
    workload = get_workload(name, "S")
    inputs = workload.inputs(seed=0)
    session_results = workload.run_session(session, seed=0)
    assert set(session_results) == set(workload.roots)
    for root_name, root in workload.roots.items():
        legacy_plan = fuse_operators(compile_expression(root, CONFIG).optimized)
        legacy = execute(legacy_plan, inputs).to_dense()
        np.testing.assert_allclose(
            session_results[root_name].to_dense(), legacy, rtol=1e-5, atol=1e-5,
            err_msg=f"{name}/{root_name}: Session API differs from legacy path",
        )


@pytest.mark.parametrize("name", workload_names())
def test_repeat_workload_requests_hit_the_cache(name, session):
    get_workload(name, "S").session_plans(session)  # ensure the shape is cached
    rebuilt = get_workload(name, "S")
    plans = rebuilt.session_plans(session)
    assert plans, name
    for root_name, plan in plans.items():
        assert plan.cache_hit, f"{name}/{root_name} missed the plan cache"


def test_one_session_serves_all_workloads():
    """A fresh session compiles each root once; repeats are all hits."""
    fresh = Session(CONFIG)
    expected_roots = 0
    for name in workload_names():
        workload = get_workload(name, "S")
        expected_roots += len(workload.roots)
        workload.session_plans(fresh)
    assert fresh.compilations == len(fresh.cache) == expected_roots
    for name in workload_names():
        for plan in get_workload(name, "S").session_plans(fresh).values():
            assert plan.cache_hit
