"""Deploy-time plan-store warm-up: ``python -m repro.serve.warmup``.

Pre-compiles a workload list into a persistent plan store so a fresh
serving pool starts 100% warm — every worker's first request for a warmed
shape loads a finished plan instead of paying for equality saturation.
This is the operational complement of :class:`repro.serve.ServingEngine`:
run it from a deploy pipeline (or an init container) against the store
directory the pool will mount.

Usage::

    python -m repro.serve.warmup --store /var/spores/plans \\
        --workloads ALS,GLM:M,all --size S --preset sampling_greedy \\
        --max-entries 512 --json

``--workloads`` takes the grammar of
:func:`repro.workloads.parse_selection`: comma-separated ``NAME`` or
``NAME:SIZE`` items, or ``all`` for every evaluation workload.  The
optimizer ``--preset`` must match the configuration the serving pool runs
with — store keys are salted with the config digest, so a warm-up under a
different preset warms nothing (the summary's ``store.config_digest``
makes the pairing auditable).  ``--max-entries`` additionally GC's the
store down to a bound after warming, oldest plans first.

Warm-up is idempotent: shapes already in the store are loaded (counted as
``already_warm``), not recompiled, so re-running a deploy costs seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.api.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.serialize.store import PlanStore
from repro.workloads import get_workload, parse_selection

#: optimizer presets the CLI can warm a store for, by flag value
PRESETS = {
    "default": OptimizerConfig,
    "sampling_ilp": OptimizerConfig.sampling_ilp,
    "sampling_greedy": OptimizerConfig.sampling_greedy,
    "dfs_greedy": OptimizerConfig.dfs_greedy,
}


def build_config(preset: str) -> OptimizerConfig:
    """The :class:`OptimizerConfig` a ``--preset`` flag value names."""
    try:
        return PRESETS[preset]()
    except KeyError:
        raise ValueError(
            f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
        ) from None


def warm_store(
    store: PlanStore,
    selection: Sequence[Tuple[str, str]],
    config: Optional[OptimizerConfig] = None,
    optimizer_budget: Optional[float] = None,
) -> Dict[str, object]:
    """Compile every root of the selected workloads through ``store``.

    Returns a JSON-serializable summary: per-workload root counts, how many
    roots actually compiled versus loaded warm, wall-clock seconds, the
    warm-up session's counters and the final store description.  The
    session writes through the store, so the summary's ``compiled`` count
    equals the number of new entries.

    ``optimizer_budget`` bounds each root's saturation wall-clock: a root
    that overruns warms nothing (degraded baseline plans are deliberately
    never persisted — the serving pool should get another optimization
    attempt, not a frozen fallback) and is counted in ``degraded``.
    """
    session = Session(config, store=store, optimizer_budget=optimizer_budget)
    workloads: Dict[str, Dict[str, object]] = {}
    started = time.perf_counter()
    for name, size in selection:
        workload = get_workload(name, size)
        label = f"{name}:{size}"
        before = session.compilations
        root_started = time.perf_counter()
        plans = workload.session_plans(session)
        compiled = session.compilations - before
        workloads[label] = {
            "roots": len(plans),
            "compiled": compiled,
            "already_warm": len(plans) - compiled,
            "seconds": time.perf_counter() - root_started,
        }
    record = session.describe()
    summary: Dict[str, object] = {
        "workloads": workloads,
        "roots": sum(int(w["roots"]) for w in workloads.values()),
        "compiled": sum(int(w["compiled"]) for w in workloads.values()),
        "already_warm": sum(int(w["already_warm"]) for w in workloads.values()),
        "degraded": session.degraded_compilations,
        "seconds": time.perf_counter() - started,
        "store": record.pop("store"),
        "session": record,
    }
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.warmup",
        description="Pre-compile a workload list into a persistent plan store.",
    )
    parser.add_argument("--store", required=True, help="plan-store directory to warm")
    parser.add_argument(
        "--workloads",
        default="all",
        help="comma-separated NAME or NAME:SIZE items, or 'all' (default: all)",
    )
    parser.add_argument("--size", default="S", help="default size ladder point (default: S)")
    parser.add_argument(
        "--preset",
        default="sampling_greedy",
        choices=sorted(PRESETS),
        help="optimizer preset the serving pool will run with (default: sampling_greedy)",
    )
    parser.add_argument(
        "--max-entries",
        type=int,
        default=None,
        help="GC the store down to this many entries after warming (LRU-first)",
    )
    parser.add_argument(
        "--optimizer-budget",
        type=float,
        default=None,
        help="wall-clock seconds of equality saturation allowed per root; "
        "an overrunning root is skipped (counted as degraded), never "
        "persisted as a baseline plan",
    )
    parser.add_argument(
        "--compress",
        action="store_true",
        help="gzip-wrap stored payloads (loads auto-detect, so "
        "compressed and plain entries interoperate)",
    )
    parser.add_argument("--json", action="store_true", help="print the summary as JSON")
    args = parser.parse_args(argv)

    if args.max_entries is not None and args.max_entries < 1:
        parser.error("--max-entries must be >= 1")
    if args.optimizer_budget is not None and args.optimizer_budget <= 0:
        parser.error("--optimizer-budget must be positive")
    try:
        selection = parse_selection(args.workloads, args.size)
        config = build_config(args.preset)
    except (KeyError, ValueError) as error:
        parser.error(str(error))
        return 2  # unreachable; parser.error exits

    # Warm unbounded, trim once at the end: binding max_entries during the
    # warm-up would GC earlier-warmed plans after every save whenever the
    # selection exceeds the bound, silently undoing the warm-up itself.
    # Metrics are enabled for the run so the JSON summary can carry the
    # compile and saturation instruments next to the session's and the
    # store's own counters, for a deploy pipeline to archive.
    obs.enable(metrics=True, tracing=False)
    store = PlanStore(args.store, config, compress=args.compress)
    summary = warm_store(store, selection, config, optimizer_budget=args.optimizer_budget)
    if args.max_entries is not None:
        store.max_entries = args.max_entries
        summary["evicted"] = store.gc()
        summary["store"] = store.describe()

    if args.json:
        summary["metrics"] = obs.registry().snapshot()
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for label, record in summary["workloads"].items():
            print(
                f"{label}: {record['roots']} roots, {record['compiled']} compiled, "
                f"{record['already_warm']} already warm ({record['seconds']:.2f}s)"
            )
        store_record = summary["store"]
        print(
            f"store {store_record['path']}: {store_record['entries']} entries "
            f"(config {store_record['config_digest']}, "
            f"format v{store_record['format_version']}); "
            f"warmed {summary['compiled']} of {summary['roots']} roots "
            f"in {summary['seconds']:.2f}s"
        )
        if summary["degraded"]:
            print(
                f"warning: {summary['degraded']} roots overran the optimizer "
                f"budget and were not persisted"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
