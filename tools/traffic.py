"""Which functions of ``src/repro`` does the benchmark's traffic never enter?

    python3 tools/traffic.py [--seconds S]

Runs each ``benchmarks/e2e`` workload in this process, untraced and traced,
for ``S`` seconds under ``sys.settrace`` + ``threading.settrace`` (call
events only) and prints, per source file, the functions no workload entered.
A never-entered function is a question, not a verdict — audit gates, oracles,
presentation and the restart / shed / rescue paths are meant to be cold — but
a deletion pass starts from this measurement, not a guess.  Not part of CI.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from typing import Dict, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")
entered: Set[Tuple[str, int]] = set()  # (file, code.co_firstlineno)


def _on_call(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(SRC):
        entered.add((code.co_filename, code.co_firstlineno))
    return None  # call events only: no per-line tracing inside the frame


def defined_functions() -> Dict[str, Dict[int, str]]:
    """``{file: {first line, decorators included: function name}}``."""
    table: Dict[str, Dict[int, str]] = {}
    for folder, _, names in sorted(os.walk(SRC)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as handle:
                nodes = ast.walk(ast.parse(handle.read()))
            table[path] = {
                min([node.lineno] + [d.lineno for d in node.decorator_list]): node.name
                for node in nodes
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=3.0, help="per workload and mode")
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "benchmarks")]
    from e2e import catalog, run

    threading.settrace(_on_call)
    sys.settrace(_on_call)
    try:
        for name in catalog.WORKLOAD_NAMES:
            for traced in (False, True):
                record = run.run_workload(name, 0, args.seconds, traced, out_dir=None)
                print(f"# {name} traced={traced}: {record.attempted} ops, {record.failed} failed")
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = cold = 0
    for path, functions in defined_functions().items():
        missed = [line for line in sorted(functions) if (path, line) not in entered]
        total += len(functions)
        cold += len(missed)
        if missed:
            print(f"{os.path.relpath(path, REPO)}  {len(missed)}/{len(functions)} never entered")
            print("    " + ", ".join(f"{functions[line]}:{line}" for line in missed))
    print(f"# {cold} of {total} functions under src/repro never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
