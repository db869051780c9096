"""The benchmark's catalogue: workloads, metrics, units, directions, bounds.

``BENCHMARK.json`` at the repo root is exactly :func:`manifest` (the smoke
test asserts it), so this module is the one place a name, unit or bound is
written down.  ``python3 benchmarks/e2e/catalog.py`` prints the manifest.

A name ending in ``‡`` in the README is listed in :data:`EXACT` here: a count
the program must reproduce bit-for-bit from sweep to sweep and from the
untraced to the traced run.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

#: how long one run measures; the driver passes it back as ``--seconds``
RUN_SECONDS = 16

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

#: (name, why) — ``why`` is the one-line reason BENCHMARK.json records
WORKLOADS: List[Tuple[str, str]] = [
    (
        "compile_cold",
        "fresh Session per sweep compiles the 14 paper roots + 4 SSSP/REACH roots: "
        "only the optimizer layers work, runtime and serve do nothing",
    ),
    (
        "exec_warm",
        "one thread round-robins CompiledPlan.run over the 18 precompiled plans (size M, "
        "semiring L): only runtime + api.plan work, the optimizer does nothing",
    ),
    (
        "serve_unique",
        "2 closed-loop clients, 2 warm shards, every request freshly wrapped: per-request "
        "serve/api overhead dominates; batching, stacking and the result cache are bypassed",
    ),
    (
        "serve_burst",
        "1 client submits bursts of 64 (50% stackable matvecs, 30% hot repeats, 20% unique): "
        "micro-batching, stacking and the result cache do most of the work",
    ),
]

#: (name, unit, better, bound) — what a user of the system sees.  The timing
#: bounds are the widest the contract allows: on the 2-core shared VM this was
#: written on, runs of one commit drift by 10-30 % for minutes at a time (README,
#: "Machine noise"), so a tighter bound would reject the commit against itself.
#: The p99 could not be steadied at all and is recorded per layer
#: (``client.op_ms_p99``), not gated.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("plan_ms_geomean", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

#: (name, unit, better) — single layers, recorded by the traced run, no bound.
#: A metric a workload does not exercise is reported as 0 by that workload.
PER_LAYER: List[Tuple[str, str, str]] = [
    # -- compile_cold: ms per sweep over the 18 roots unless the unit says otherwise
    ("canonical.fingerprint_ms", "ms", "lower"),
    ("translate.lower_ms", "ms", "lower"),
    ("egraph.saturate_ms", "ms", "lower"),
    ("egraph.iterations", "count", "lower"),
    ("egraph.enodes", "count", "lower"),
    ("egraph.matches_applied", "count", "lower"),
    ("egraph.match_yield", "ratio", "higher"),
    ("extract.greedy_ms", "ms", "lower"),
    ("extract.ilp_ms", "ms", "lower"),
    ("extract.greedy_vs_ilp_cost", "ratio", "lower"),
    ("translate.lift_ms", "ms", "lower"),
    ("runtime.fuse_ms", "ms", "lower"),
    ("cost.estimate_ms", "ms", "lower"),
    ("cost.plan_cost_ratio_geomean", "ratio", "higher"),
    ("optimizer.guard_ms", "ms", "lower"),
    ("optimizer.compile_ms", "ms", "lower"),
    ("optimizer.fallback_regions", "count", "lower"),
    ("api.session.compile_self_ms", "ms", "lower"),
    ("api.session.compilations", "count", "lower"),
    ("api.cache.hit_us", "us", "lower"),
    ("api.cache.template_hit_ms", "ms", "lower"),
    ("serialize.codec.dumps_ms", "ms", "lower"),
    ("serialize.codec.loads_ms", "ms", "lower"),
    ("serialize.codec.bytes", "B", "lower"),
    ("serialize.store.save_ms", "ms", "lower"),
    ("serialize.store.load_ms", "ms", "lower"),
    ("api.session.store_warm_ms", "ms", "lower"),
    ("runtime.tape.build_ms", "ms", "lower"),
    ("runtime.codegen.build_ms", "ms", "lower"),
    ("runtime.codegen.cached_build_ms", "ms", "lower"),
    ("runtime.codegen.source_bytes", "B", "lower"),
    ("systemml.opt2_ms", "ms", "lower"),
    ("trace.compile_accounted_share", "ratio", "higher"),
    # -- exec_warm: mean over the 18 plans of each plan's median, per op
    ("api.plan.bind_us", "us", "lower"),
    ("api.plan.run_self_us", "us", "lower"),
    ("runtime.interp_ms", "ms", "lower"),
    ("runtime.tape_ms", "ms", "lower"),
    ("runtime.tape.reuse_ms", "ms", "lower"),
    ("runtime.codegen.fused_ms", "ms", "lower"),
    ("runtime.semiring_ms", "ms", "lower"),
    ("runtime.tape.steps", "count", "lower"),
    ("runtime.codegen.regions", "count", "lower"),
    ("runtime.codegen.fused_regions", "count", "higher"),
    ("runtime.codegen.fallback_runs", "count", "lower"),
    ("runtime.intermediate_cells", "count", "lower"),
    ("runtime.codegen.intermediate_cells", "count", "lower"),
    # -- serve_unique / serve_burst: medians over the joined requests
    ("serve.submit_us", "us", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.request_ms", "ms", "lower"),
    ("serve.execute_ms", "ms", "lower"),
    ("serve.request_self_ms", "ms", "lower"),
    ("serve.resolve_gap_ms", "ms", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.result_cache_hit_share", "ratio", "higher"),
    ("serve.step_reuse_hits", "count", "higher"),
    ("serve.stacked_share", "ratio", "higher"),
    ("serve.stacked_batches", "count", "higher"),
    ("serve.errors", "count", "lower"),
    ("serve.sheds", "count", "lower"),
    ("serve.retries", "count", "lower"),
    ("serve.restarts", "count", "lower"),
    ("serve.engine_p50_ms", "ms", "lower"),
    ("serve.warm_ms", "ms", "lower"),
    ("serve.close_ms", "ms", "lower"),
    ("trace.serve_accounted_share", "ratio", "higher"),
    ("trace.joined_share", "ratio", "higher"),
    # -- every workload
    ("client.op_ms_p99", "ms", "lower"),
    ("obs.tracing_overhead", "ratio", "higher"),
    ("process.import_s", "s", "lower"),
    ("process.calib_ms", "ms", "lower"),
    ("bench.gen_us_per_op", "us", "lower"),
    ("bench.reference_s", "s", "lower"),
]

#: counts that must repeat exactly: between sweeps of one run (the run fails
#: otherwise) and between the untraced and the traced run of one commit
EXACT = frozenset(
    {
        "egraph.iterations",
        "egraph.enodes",
        "egraph.matches_applied",
        "egraph.match_yield",
        "extract.greedy_vs_ilp_cost",
        "cost.plan_cost_ratio_geomean",
        "optimizer.fallback_regions",
        "api.session.compilations",
        "runtime.codegen.source_bytes",
        "runtime.tape.steps",
        "runtime.codegen.regions",
        "runtime.codegen.fused_regions",
        "runtime.codegen.fallback_runs",
        "runtime.intermediate_cells",
        "runtime.codegen.intermediate_cells",
    }
)

WORKLOAD_NAMES = [name for name, _ in WORKLOADS]
END_TO_END_UNITS: Dict[str, str] = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}


def manifest() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
