"""Compare two sets of run records.

    python3 benchmarks/e2e/compare.py A/ B/

``A/`` and ``B/`` each hold the ``run_<workload>_e2e_seed<N>.json`` records
of several runs (``run.py --out A/`` writes them).  One row per workload ×
end-to-end metric: each side's median and quartiles over its runs, the ratio
B/A with its base, and a verdict —

* ``within bound``: B's median is no worse than A's by more than the bound
  ``BENCHMARK.json`` fixes for the metric;
* ``worse``: it is;
* ``unresolved``: the spread inside a set (quartile distance over median)
  exceeds the bound, so the sets cannot tell — never read this as unchanged.

Two sets of the *same* commit are how the benchmark's own steadiness is
checked; a set per commit is how every later claim is.  Exit code 1 if any
row is ``worse``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from e2e import catalog  # noqa: E402


def load_set(directory: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [one value per run]}}`` from a directory of records."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "run_*_e2e_*.json"))):
        with open(path) as handle:
            record = json.load(handle)
        per_metric = values.setdefault(record["workload"], {})
        for name, summary in record["end_to_end"].items():
            per_metric.setdefault(name, []).append(summary["median"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def spread(values: List[float]) -> float:
    first, middle, third = quartiles(values)
    return (third - first) / middle


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[float, str]:
    base, other = statistics.median(a), statistics.median(b)
    ratio = other / base
    if max(spread(a), spread(b)) > bound:
        return ratio, "unresolved"
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    return ratio, "worse" if worse_by > bound else "within bound"


def compare(dir_a: str, dir_b: str) -> int:
    set_a, set_b = load_set(dir_a), load_set(dir_b)
    header = (
        f"{'workload':<13} {'metric':<16} {'unit':<4} "
        f"{'A median [q1, q3]':<34} {'B median [q1, q3]':<34} {'B/A':>7}  verdict"
    )
    print(f"A = {dir_a} ({_runs(set_a)} runs)   B = {dir_b} ({_runs(set_b)} runs)")
    print(header)
    print("-" * len(header))
    worse = 0
    for workload in catalog.WORKLOAD_NAMES:
        if workload not in set_a or workload not in set_b:
            print(f"{workload:<13} no runs on one side")
            continue
        for name, unit, better, bound in catalog.END_TO_END:
            a, b = set_a[workload][name], set_b[workload][name]
            ratio, outcome = verdict(a, b, better, bound)
            worse += outcome == "worse"
            print(
                f"{workload:<13} {name:<16} {unit:<4} {_cell(a):<34} {_cell(b):<34} "
                f"{ratio:>7.3f}  {outcome} (bound {bound:.0%}, base A = {statistics.median(a):.5g})"
            )
    return 1 if worse else 0


def _cell(values: List[float]) -> str:
    first, middle, third = quartiles(values)
    return f"{middle:.5g} [{first:.5g}, {third:.5g}]"


def _runs(values: Dict[str, Dict[str, List[float]]]) -> str:
    counts = {len(v) for per_metric in values.values() for v in per_metric.values()}
    return "/".join(map(str, sorted(counts))) or "0"


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
