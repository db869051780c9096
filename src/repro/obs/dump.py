"""Observability dump CLI: ``python -m repro.obs.dump``.

Enables the global instrumentation, drives the selected evaluation
workloads through a small :class:`~repro.serve.ServingEngine`
(so both the compile spans and the serve-path spans fire), and writes
whatever surfaces were asked for:

* ``--metrics PATH`` — Prometheus text exposition (``-`` for stdout;
  the default when no output flag is given)
* ``--trace PATH`` — the tracer's versioned JSON export
* ``--chrome PATH`` — the same spans as a Chrome trace-event file
  (load it in ``chrome://tracing`` or Perfetto)
* ``--profile`` — per-root predicted-cost-vs-measured tables
  (:meth:`repro.api.plan.CompiledPlan.profile`), the cost-model
  validation view

Usage::

    python -m repro.obs.dump --workloads all --requests 3 \\
        --metrics metrics.prom --trace trace.json --chrome chrome.json

The CLI doubles as the observability smoke test: every emitted surface
round-trips through its own parser (:func:`repro.obs.parse_exposition`,
:func:`repro.obs.spans_from_json`) before it is written, so a zero exit
status certifies the exports are well-formed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import obs
from repro.lang import dag
from repro.serve.engine import ServingEngine
from repro.workloads import get_workload, parse_selection


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.dump",
        description="Run workloads with observability enabled and dump the surfaces.",
    )
    parser.add_argument(
        "--workloads",
        default="all",
        help="comma-separated NAME or NAME:SIZE items, or 'all' (default: all)",
    )
    parser.add_argument("--size", default="S", help="default size ladder point (default: S)")
    parser.add_argument(
        "--requests",
        type=int,
        default=3,
        help="requests per workload root through the engine (default: 3)",
    )
    parser.add_argument(
        "--shards", type=int, default=2, help="serving pool threads (default: 2)"
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the Prometheus text exposition here ('-' for stdout)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the span export as versioned JSON here ('-' for stdout)",
    )
    parser.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help="write the span export as a Chrome trace-event file here",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print each root's predicted-cost-vs-measured profile table",
    )
    args = parser.parse_args(argv)
    if args.requests < 1:
        parser.error("--requests must be >= 1")
    if args.shards < 1:
        parser.error("--shards must be >= 1")
    try:
        selection = parse_selection(args.workloads, args.size)
    except (KeyError, ValueError) as error:
        parser.error(str(error))

    if args.metrics is None and args.trace is None and args.chrome is None:
        args.metrics = "-"

    obs.enable()
    engine = ServingEngine(shards=args.shards)
    profiles: List[str] = []
    try:
        for name, size in selection:
            workload = get_workload(name, size)
            inputs = workload.inputs()
            for root_name, root in workload.roots.items():
                bound = {v.name: inputs[v.name] for v in dag.variables(root)}
                for _ in range(args.requests):
                    engine.run(root, bound)
                if args.profile:
                    plan = engine.plan_for(root)
                    report = plan.profile(bound)
                    profiles.append(f"{name}:{size} {root_name}")
                    profiles.extend("  " + line for line in report.table())
        metrics_text = engine.metrics_text()
    finally:
        engine.close()

    # Validate every surface before writing it: a malformed export should
    # fail the run, not poison whatever scrapes the output next.
    obs.parse_exposition(metrics_text)
    trace_json = obs.tracer().export_json()
    obs.spans_from_json(trace_json)
    chrome_json = obs.tracer().export_chrome()
    json.loads(chrome_json)

    if args.metrics is not None:
        _write(args.metrics, metrics_text)
    if args.trace is not None:
        _write(args.trace, trace_json)
    if args.chrome is not None:
        _write(args.chrome, chrome_json)
    if args.profile:
        print("\n".join(profiles))
    return 0


if __name__ == "__main__":
    sys.exit(main())
