"""Integration tests: every workload under every optimizer computes the same
results, and the optimizers rank as the paper reports (base ≥ opt2 ≥ SPORES
in estimated cost, with SPORES strictly better somewhere)."""

import numpy as np
import pytest

from repro.cost import LACostModel
from repro.optimizer import OptimizerConfig, compile_expression
from repro.runtime import execute, fuse_operators
from repro.systemml import optimize_base, optimize_opt2
from repro.workloads import get_workload, workload_names


COST = LACostModel()
SPORES = OptimizerConfig.sampling_greedy()


def plans_for(root):
    base = optimize_base(root).optimized
    opt2 = fuse_operators(optimize_opt2(root).optimized)
    spores_plan = fuse_operators(compile_expression(root, SPORES).optimized)
    return {"base": base, "opt2": opt2, "spores": spores_plan}


@pytest.mark.parametrize("name", workload_names())
def test_all_optimizers_agree_numerically(name):
    workload = get_workload(name, "S")
    inputs = workload.inputs(seed=0)
    for root_name, root in workload.roots.items():
        plans = plans_for(root)
        reference = execute(plans["base"], inputs).to_dense()
        for label, plan in plans.items():
            result = execute(plan, inputs).to_dense()
            np.testing.assert_allclose(
                result, reference, rtol=1e-5, atol=1e-5,
                err_msg=f"{name}/{root_name}: {label} differs from base",
            )


@pytest.mark.parametrize("name", workload_names())
def test_spores_estimated_cost_never_worse_than_baselines(name):
    workload = get_workload(name, "S")
    for root_name, root in workload.roots.items():
        plans = plans_for(root)
        spores_cost = COST.total(plans["spores"])
        assert spores_cost <= COST.total(plans["base"]) * 1.01, f"{name}/{root_name} vs base"
        assert spores_cost <= COST.total(plans["opt2"]) * 1.01, f"{name}/{root_name} vs opt2"


def test_spores_strictly_beats_opt2_on_als_gradient_and_pnmf_objective():
    als = get_workload("ALS", "S")
    plans = plans_for(als.roots["gradient_u"])
    assert COST.total(plans["spores"]) < 0.5 * COST.total(plans["opt2"])

    pnmf = get_workload("PNMF", "S")
    plans = plans_for(pnmf.roots["objective"])
    assert COST.total(plans["spores"]) < 0.5 * COST.total(plans["opt2"])


def test_spores_matches_opt2_on_glm_and_svm():
    """Sec. 4.2: for GLM and SVM saturation finds the same optimizations."""
    for name in ("GLM", "SVM"):
        workload = get_workload(name, "S")
        for root_name, root in workload.roots.items():
            plans = plans_for(root)
            ratio = COST.total(plans["spores"]) / COST.total(plans["opt2"])
            assert ratio <= 1.05, f"{name}/{root_name}"
