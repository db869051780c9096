"""Shared fixtures for the benchmark harnesses.

Plan compilation is expensive relative to plan execution, so compiled plans
are cached per (workload, size, optimizer-configuration) for the whole
benchmark session; the run-time benchmarks then time execution only, which
is what the paper's Fig. 15 / Fig. 17 report (compile time is Fig. 16).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Dict

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

from repro.lang import expr as la
from repro.optimizer import OptimizerConfig, compile_expression
from repro.runtime import execute, fuse_operators
from repro.systemml import optimize_base, optimize_opt2
from repro.workloads import get_workload

#: benchmark sizes: the default grid keeps the full run under ~15 minutes on a
#: laptop; set REPRO_BENCH_SIZES=S,M,L to reproduce the paper's full ladder.
BENCH_SIZES = tuple(os.environ.get("REPRO_BENCH_SIZES", "S,M").split(","))

#: the three optimizer configurations of Fig. 15
FIG15_CONFIGS = ("base", "opt2", "saturation")

#: the four plan-producing strategies of Fig. 17
FIG17_CONFIGS = ("systemml", "s+ilp", "s+greedy", "d+greedy")


@dataclass
class CompiledWorkload:
    """One workload compiled under one configuration."""

    workload_name: str
    size: str
    config: str
    plans: Dict[str, la.LAExpr]
    compile_seconds: float
    inputs: dict


_plan_cache: Dict[tuple, CompiledWorkload] = {}
_input_cache: Dict[tuple, dict] = {}


def _spores_config(config: str) -> OptimizerConfig:
    if config in ("saturation", "s+ilp"):
        return OptimizerConfig.sampling_ilp()
    if config == "s+greedy":
        return OptimizerConfig.sampling_greedy()
    if config == "d+greedy":
        return OptimizerConfig.dfs_greedy()
    raise ValueError(config)


def compile_workload(name: str, size: str, config: str) -> CompiledWorkload:
    """Compile (and cache) all roots of one workload under one configuration."""
    key = (name, size, config)
    if key in _plan_cache:
        return _plan_cache[key]
    workload = get_workload(name, size)
    if (name, size) not in _input_cache:
        _input_cache[(name, size)] = workload.inputs(seed=0)
    inputs = _input_cache[(name, size)]

    import time

    start = time.perf_counter()
    plans: Dict[str, la.LAExpr] = {}
    for root_name, root in workload.roots.items():
        if config == "base":
            plans[root_name] = optimize_base(root).optimized
        elif config in ("opt2", "systemml"):
            plans[root_name] = fuse_operators(optimize_opt2(root).optimized)
        else:
            artifact = compile_expression(root, _spores_config(config))
            plans[root_name] = fuse_operators(artifact.optimized)
    compile_seconds = time.perf_counter() - start
    compiled = CompiledWorkload(name, size, config, plans, compile_seconds, inputs)
    _plan_cache[key] = compiled
    return compiled


def run_workload(compiled: CompiledWorkload) -> float:
    """Execute every root of a compiled workload; returns total seconds."""
    total = 0.0
    for plan in compiled.plans.values():
        total += execute(plan, compiled.inputs).stats.elapsed
    return total


@pytest.fixture(scope="session")
def plan_cache():
    return compile_workload
