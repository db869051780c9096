"""Benchmark-regression gate: diff emitted BENCH_*.json against baselines.

The harnesses that are not end-to-end rows of ``benchmarks/e2e`` — the
resilience storm and the static-analysis gate — write a
``BENCH_<name>.json`` record whose headline metric is tracked across PRs.
The committed copies under ``benchmarks/results/`` are the baselines; CI
re-runs them and this script fails the build when a headline regresses by
more than the threshold (default 30%), so a regression blocks a merge
instead of hiding in an artifact.  (Performance proper is gated by
``BENCHMARK.json`` through ``benchmarks/e2e/compare.py``.)

Usage::

    python benchmarks/check_regression.py \\
        --baseline benchmarks/results --current /tmp/run/results \\
        [--threshold 0.30]

Every record carries its own top-level
``{"headline": {"name": ..., "value": ...}}`` object:

* files present in the baseline but missing from the run **fail** (a bench
  silently not running is itself a regression); records new to the run have
  their headline validated and printed so committing the baseline is a copy
  step; a missing or empty baseline directory just means everything is new.

Exit status: 0 when every headline holds, 1 on any regression or missing
record, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple


def headline_of(filename: str, payload: Dict) -> Tuple[str, float]:
    """The (name, value) headline of one BENCH record; ``KeyError`` /
    ``TypeError`` / ``ValueError`` when the record carries none."""
    headline = payload["headline"]
    if not isinstance(headline, dict):
        raise TypeError("headline must be an object")
    return str(headline.get("name", filename)), float(headline["value"])


def bench_files(directory: str, missing_ok: bool = False) -> List[str]:
    try:
        names = os.listdir(directory)
    except OSError as error:
        if missing_ok:
            return []
        raise SystemExit(f"cannot list {directory}: {error}")
    return sorted(
        name for name in names if name.startswith("BENCH_") and name.endswith(".json")
    )


def load(directory: str, name: str) -> Dict:
    with open(os.path.join(directory, name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def check(baseline_dir: str, current_dir: str, threshold: float) -> int:
    failures: List[str] = []
    lines: List[str] = []
    current_names = set(bench_files(current_dir))
    # A missing or empty baseline directory is not an error: every record
    # the run emitted is simply new and reported as such below.  The gate
    # only has teeth once baselines are committed.
    baseline_names = bench_files(baseline_dir, missing_ok=True)
    for name in baseline_names:
        try:
            base = headline_of(name, load(baseline_dir, name))
        except (KeyError, TypeError, ValueError) as error:
            failures.append(f"{name}: cannot extract baseline headline ({error})")
            continue
        if name not in current_names:
            failures.append(f"{name}: emitted by the baseline but missing from this run")
            continue
        try:
            current = headline_of(name, load(current_dir, name))
        except (KeyError, TypeError, ValueError) as error:
            failures.append(f"{name}: cannot extract run headline ({error})")
            continue
        metric, base_value = base
        _, current_value = current
        ratio = current_value / base_value if base_value else float("inf")
        status = "ok"
        if ratio < 1.0 - threshold:
            status = "REGRESSION"
            failures.append(
                f"{name}: {metric} regressed to {ratio:.2f}x of baseline "
                f"({base_value:.4g} -> {current_value:.4g}, "
                f"threshold {1.0 - threshold:.2f}x)"
            )
        lines.append(
            f"  {status:>10}  {name}: {metric} "
            f"{base_value:.4g} -> {current_value:.4g} ({ratio:.2f}x)"
        )
    for name in sorted(current_names - set(baseline_names)):
        # Validate the newcomer's headline now — a malformed record should
        # fail here, not after it has been committed as a broken baseline.
        try:
            fresh = headline_of(name, load(current_dir, name))
        except (KeyError, TypeError, ValueError) as error:
            failures.append(f"{name}: new record has a malformed headline ({error})")
            continue
        metric, value = fresh
        lines.append(
            f"  new   {name}: new headline {metric}={value:.4g} — commit the "
            "record to benchmarks/results to gate future runs against it"
        )

    print(f"bench-gate: {baseline_dir} (baseline) vs {current_dir} (run)")
    for line in lines:
        print(line)
    if failures:
        print("\nbench-gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nbench-gate passed: {len(lines)} records within {threshold:.0%} of baseline")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a BENCH_*.json headline regresses vs. its baseline."
    )
    parser.add_argument("--baseline", required=True, help="directory of committed baselines")
    parser.add_argument("--current", required=True, help="directory the run emitted into")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="maximum tolerated fractional regression (default 0.30)",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.threshold < 1.0:
        parser.error("--threshold must be in (0, 1)")
    return check(args.baseline, args.current, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
