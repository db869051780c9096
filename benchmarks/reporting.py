"""Shared helpers for the benchmark harnesses.

Each figure/table benchmark reproduces one artifact of the paper's
evaluation section.  Besides the pytest-benchmark timings, every harness
renders the corresponding table (the rows/series the paper reports) and
writes it to ``benchmarks/results/<name>.txt`` so the reproduction record
survives the run regardless of output capturing.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_report(name: str, title: str, lines: Iterable[str]) -> str:
    """Write a textual report and echo it to stdout; returns the path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    body = "\n".join([title, "=" * len(title), *lines, ""])
    with open(path, "w") as handle:
        handle.write(body)
    print("\n" + body)
    return path


def write_json(name: str, payload: Dict) -> str:
    """Write a machine-readable result record next to the text report.

    Used for the headlines ``check_regression.py`` tracks across versions
    (e.g. ``BENCH_resilience.json``); keep keys stable so the records stay
    diffable.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_table(headers: Sequence[str], rows: List[Sequence[object]]) -> List[str]:
    """Render a fixed-width text table."""
    table = [list(map(str, headers))] + [[_fmt(cell) for cell in row] for row in rows]
    widths = [max(len(row[col]) for row in table) for col in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return lines


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.3f}"
    return str(cell)
