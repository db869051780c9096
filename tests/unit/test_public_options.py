"""The independently settable options of the public surfaces, pinned.

Every name below doubles the configurations tests and benchmarks must
cover.  Adding one means editing this file and naming, in
``docs/architecture.md`` ("Options and why they exist"), the two callers
that need different values; a value only one caller uses is a constant.
Renaming a serving counter breaks the surface ``benchmarks/e2e`` reads.
"""

import dataclasses
import inspect

from repro.api import PlanStore, Session
from repro.cost import LACostModel
from repro.egraph import RunnerConfig
from repro.optimizer import OptimizerConfig
from repro.rules import relational_rules
from repro.serve import EngineStats, ServingEngine


def defaulted(callable_):
    return [
        name
        for name, parameter in inspect.signature(callable_).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    ]


def field_names(cls):
    return [field.name for field in dataclasses.fields(cls)]


def test_serving_engine_options():
    assert defaulted(ServingEngine) == [
        "shards", "config", "store", "store_path", "cache_size",
        "queue_depth", "default_deadline", "optimizer_budget",
        "degrade_on_error", "fault_injector",
    ]


def test_session_and_store_options():
    assert defaulted(Session) == [
        "config", "cache_size", "store_path", "store",
        "optimizer_budget", "fault_injector", "degrade_on_error",
    ]
    assert defaulted(PlanStore) == ["config", "max_entries", "compress", "fault_injector"]


def test_optimizer_options():
    assert field_names(OptimizerConfig) == [
        "runner", "extractor", "ilp_time_limit", "simplify_output", "fusion_aware",
        "indexed_matching", "semiring",
    ]
    assert field_names(RunnerConfig) == [
        "iter_limit", "node_limit", "time_limit", "strategy", "seed", "incremental",
        "plateau",
    ]
    assert defaulted(LACostModel) == ["ring"]
    assert defaulted(relational_rules) == ["indexed", "ring"]


def test_engine_stats_keys():
    assert sorted(EngineStats().to_dict()) == [
        "batched_requests", "batches", "compilations", "degraded", "errors",
        "hit_rate", "p50_latency", "p95_latency", "pin_adoptions", "pin_reverts", "restarts",
        "result_cache_hits", "retries",
        "served", "shards", "sheds",
        "stacked_batches", "stacked_requests", "step_reuse_hits", "submitted",
        "template_hits", "throughput", "unique_fingerprints", "unique_templates",
    ]
