"""Which functions of ``src/repro`` does the benchmark's traffic never enter?

    python3 tools/traffic.py [--seconds S]

Runs each ``benchmarks/e2e`` workload in this process, untraced and traced,
for ``S`` seconds under ``sys.settrace`` + ``threading.settrace`` and prints,
per source file, package and in total, the functions no workload entered and
the lines they span.  Never entered is a question, not a verdict (audit gates,
oracles, presentation, restart / shed / rescue paths are meant to be cold), but
a deletion pass starts from this measurement, not a guess.  Not part of CI.
"""

import argparse
import ast
import os
import sys
import threading
from typing import Dict, List, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")
entered: Set[Tuple[str, int]] = set()  # (file, code.co_firstlineno)


def _on_call(frame, event, arg):  # returns None: call events only, no per-line tracing
    code = frame.f_code
    if code.co_filename.startswith(SRC):
        entered.add((code.co_filename, code.co_firstlineno))


def defined_functions() -> Dict[str, Dict[int, Tuple[str, int]]]:
    """``{file: {first line, decorators included: (function name, last line)}}``."""
    table: Dict[str, Dict[int, Tuple[str, int]]] = {}
    for folder, _, names in sorted(os.walk(SRC)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as handle:
                nodes = ast.walk(ast.parse(handle.read()))
            table[path] = {
                min(n.lineno for n in [node, *node.decorator_list]): (node.name, node.end_lineno)
                for node in nodes
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=3.0, help="per workload and mode")
    seconds = parser.parse_args().seconds
    sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "benchmarks")]
    from e2e import catalog, run

    threading.settrace(_on_call)
    sys.settrace(_on_call)
    for name in catalog.WORKLOAD_NAMES:
        for traced in (False, True):
            record = run.run_workload(name, 0, seconds, traced, out_dir=None)
            print(f"# {name} traced={traced}: {record.attempted} ops, {record.failed} failed")
    sys.settrace(None)
    threading.settrace(None)
    # package -> [functions missed, functions, distinct lines the missed span (nested count once)]
    packages: Dict[str, List[int]] = {}
    for path, functions in defined_functions().items():
        missed = [line for line in sorted(functions) if (path, line) not in entered]
        lines = len({n for line in missed for n in range(line, functions[line][1] + 1)})
        relative = os.path.relpath(path, SRC)
        row = packages.setdefault(relative.split(os.sep)[0], [0, 0, 0])
        row[:] = [row[0] + len(missed), row[1] + len(functions), row[2] + lines]
        if missed:
            print(f"{relative}  {len(missed)}/{len(functions)} never entered, {lines} lines")
            print("    " + ", ".join(f"{functions[line][0]}:{line}" for line in missed))
    packages["src/repro"] = [sum(column) for column in zip(*packages.values())]
    for package, (cold, total, lines) in sorted(packages.items(), key=lambda kv: kv[1][2]):
        print(f"# {package}: {cold} of {total} functions never entered, {lines} lines in them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
