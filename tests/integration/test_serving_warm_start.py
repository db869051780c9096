"""End-to-end: warm-up CLI machinery → fresh pool serves with zero compiles."""

import json

import numpy as np

from repro.lang import dag
from repro.optimizer import OptimizerConfig
from repro.runtime import execute
from repro.serialize.store import PlanStore
from repro.serve import ServingEngine, warm_store
from repro.serve.warmup import main as warmup_main
from repro.workloads import get_workload, parse_selection, workload_names


def test_warm_store_then_fresh_pool_serves_all_workloads_cold_free(tmp_path):
    config = OptimizerConfig.sampling_greedy()
    summary = warm_store(
        PlanStore(tmp_path, config), parse_selection("all", "S"), config
    )
    assert summary["compiled"] == summary["roots"] > 0

    # A fresh pool sharing nothing with the warm-up but the directory.
    with ServingEngine(shards=4, config=config, store=PlanStore(tmp_path, config)) as pool:
        for name in workload_names():
            workload = get_workload(name, "S")
            inputs = workload.inputs(seed=0)
            for root_name, root in workload.roots.items():
                root_vars = {var.name for var in dag.variables(root)}
                result = pool.run(root, {k: inputs[k] for k in root_vars})
                expected = execute(root, inputs).to_dense()
                np.testing.assert_allclose(
                    result.to_dense(), expected, rtol=1e-9, atol=1e-9,
                    err_msg=f"{name}/{root_name} diverged when served from the warm store",
                )
        assert pool.compilations == 0, "a store-warmed pool must never compile"
        stats = pool.stats()
        assert stats.errors == 0
        assert pool.session.stats.hit_rate == 1.0

    # Re-running the warm-up is an idempotent no-op.
    second = warm_store(PlanStore(tmp_path, config), parse_selection("all", "S"), config)
    assert second["compiled"] == 0
    assert second["already_warm"] == second["roots"]


def test_warmup_cli_end_to_end(tmp_path, capsys):
    store_dir = str(tmp_path / "cli-store")
    code = warmup_main([
        "--store", store_dir,
        "--workloads", "GLM",
        "--size", "S",
        "--preset", "sampling_greedy",
        "--max-entries", "2",
        "--json",
    ])
    assert code == 0
    out = capsys.readouterr().out
    # All three roots warm before the bound applies: the trim is a single
    # post-warm GC, never an eviction race against the warm-up itself.
    summary = json.loads(out)
    assert summary["compiled"] == 3
    assert summary["evicted"] == 1
    # the session's own record rides along: three misses, each compiled
    assert summary["session"]["compilations"] == summary["session"]["misses"] == 3
    config = OptimizerConfig.sampling_greedy()
    assert len(PlanStore(store_dir, config)) == 2
