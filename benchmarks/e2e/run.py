"""One command for the whole benchmark.

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME] [--seconds S]
                                  [--trace 0|1 | --traced] [--out DIR]

With ``--workload`` it measures that one workload in this process and prints,
as the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  Without it, each
of the four workloads runs in a fresh subprocess (so ``setup_s`` and
``peak_rss_mb`` belong to one workload) and every metric is printed by name
with its unit.  The exit code is non-zero on any reference mismatch.

Run records (and, traced, the Chrome trace) land in ``benchmarks/e2e/out/``, or
in ``--out DIR`` — one directory per set of runs is what ``compare.py`` reads.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO = os.path.dirname(os.path.dirname(_HERE))
OUT_DIR = os.path.join(_HERE, "out")

#: set-ups per run; ``setup_s`` reports their median
SETUP_REPS = 3


def _bootstrap() -> None:
    """Make ``repro`` (src layout) and the ``e2e`` package importable."""
    src = os.path.join(_REPO, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"benchmarks/e2e: the program under test is missing ({src}/repro)")
    for path in (src, os.path.dirname(_HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _pin_to_one_cpu() -> None:
    """Pin the measured process (and the BLAS pool NumPy is about to start) to
    one CPU.

    The program's threads share one GIL, so a second CPU buys them nothing,
    while every client → shard → client hand-off across two vCPUs of a shared
    VM waits for the other vCPU to be scheduled: in alternating pairs,
    ``serve_unique`` was faster pinned 6 times out of 6 (841–1130 against
    512–942 ops/s) with half the spread; the other workloads did not move.
    Must run before NumPy is imported — OpenBLAS sizes its pool from the
    affinity mask it finds.
    """
    try:
        allowed = os.sched_getaffinity(0)
    except AttributeError:  # not Linux: measure unpinned
        return
    if len(allowed) > 1:
        os.sched_setaffinity(0, {min(allowed)})


def make_workload(name: str, seed: int, smoke: bool):
    from e2e.compile_cold import CompileCold
    from e2e.exec_warm import ExecWarm
    from e2e.serve import ServeBurst, ServeUnique

    classes = {cls.name: cls for cls in (CompileCold, ExecWarm, ServeUnique, ServeBurst)}
    return classes[name](seed, smoke)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    import_s: float = 0.0,
    out_dir: Optional[str] = OUT_DIR,
):
    """Measure one workload in this process; returns its :class:`RunRecord`."""
    from repro import obs

    from e2e import spans
    from e2e.measure import RunRecord

    record = RunRecord(workload=name, seed=seed, import_s=import_s)
    workload = make_workload(name, seed, smoke)

    start = time.perf_counter()
    workload.generate()
    record.inputs_s = time.perf_counter() - start

    state = None
    for _ in range(1 if smoke else SETUP_REPS):
        if state is not None:
            workload.teardown(state)
        start = time.perf_counter()
        state = workload.setup()
        record.setup_seconds.append(time.perf_counter() - start)
    try:
        start = time.perf_counter()
        workload.prepare_references(state)
        record.reference_s = time.perf_counter() - start
        gc.collect()
        if trace:
            recorder = spans.SpanRecorder()
            obs.reset()
            try:
                workload.trace(state, seconds, record, recorder)
                obs_spans = obs.tracer().finished()
            finally:
                obs.reset()
            _check_spans(recorder)
            record.notes["bench_spans"] = len(recorder.spans)
            record.notes["obs_spans"] = len(obs_spans)
            if out_dir is not None:
                os.makedirs(out_dir, exist_ok=True)
                spans.write_chrome_trace(
                    os.path.join(out_dir, f"trace_{name}.json"), recorder, obs_spans
                )
        else:
            clocked = 0.0
            while clocked < seconds:
                result = workload.round(state, min(workload.round_seconds, seconds - clocked))
                record.rounds.append(result)
                clocked += result.wall
                gc.collect()
        record.notes.update(workload.describe(state))
    finally:
        workload.teardown(state)
    record.layers["client.op_ms_p99"] = record.op_ms_p99()
    record.layers["process.calib_ms"] = record.calib_ms()
    record.layers["process.import_s"] = import_s
    record.layers["bench.reference_s"] = record.reference_s
    return record


def _check_spans(recorder) -> None:
    from e2e import spans

    lost = spans.orphans(recorder.spans)
    if lost:
        raise AssertionError(f"{len(lost)} benchmark spans name a parent never recorded")
    negative = [s for s, value in spans.self_times(recorder.spans).items() if value < -1e-9]
    if negative:
        raise AssertionError(f"{len(negative)} benchmark spans have negative self time")


def result_line(record, trace: bool) -> Dict[str, object]:
    """The JSON object the contract asks for on the last line of stdout."""
    from e2e import catalog

    if trace:
        metrics = {
            name: {"value": float(record.layers.get(name, 0.0)), "unit": unit}
            for name, unit in catalog.PER_LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": summary.value, "unit": catalog.END_TO_END_UNITS[name]}
            for name, summary in record.end_to_end().items()
        }
    return {
        "correct": record.failed == 0,
        "attempted": max(1, record.attempted),
        "failed": record.failed,
        "metrics": metrics,
    }


def write_record(record, trace: bool, out_dir: str) -> str:
    """Keep the full run record (per-round spread, per-plan rows) on disk."""
    from e2e import references

    os.makedirs(out_dir, exist_ok=True)
    payload: Dict[str, object] = {
        "workload": record.workload,
        "seed": record.seed,
        "traced": trace,
        "attempted": record.attempted,
        "failed": record.failed,
        "tolerance": {"rtol": references.RTOL, "atol": references.ATOL},
        "setup_seconds": record.setup_seconds,
        "import_s": record.import_s,
        "inputs_s": record.inputs_s,
        "reference_s": record.reference_s,
        "notes": record.notes,
    }
    if trace:
        payload["per_layer"] = record.layers
    else:
        payload["end_to_end"] = {k: v.to_json() for k, v in record.end_to_end().items()}
        payload["op_ms_p99"] = record.op_ms_p99()
        payload["calib_ms"] = record.calib_ms()
        payload["plans"] = record.plan_rows()
    suffix = "traced" if trace else "e2e"
    path = os.path.join(out_dir, f"run_{record.workload}_{suffix}_seed{record.seed}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=str)
        handle.write("\n")
    return path


def print_metrics(record, trace: bool) -> None:
    from e2e import catalog

    print(f"== {record.workload}  seed={record.seed}  "
          f"attempted={record.attempted} failed={record.failed}")
    if trace:
        for name, unit in catalog.PER_LAYER_UNITS.items():
            if name in record.layers:
                mark = " ‡" if name in catalog.EXACT else ""
                print(f"  {name:<38} {record.layers[name]:>14.6g} {unit}{mark}")
    else:
        for name, summary in record.end_to_end().items():
            unit = catalog.END_TO_END_UNITS[name]
            print(
                f"  {name:<18} {summary.value:>12.5g} {unit:<4} "
                f"(min {summary.low:.5g}, max {summary.high:.5g}, n={summary.samples})"
            )


def run_all(seed: int, seconds: float, trace: bool, out_dir: str) -> int:
    """Each workload in a fresh subprocess, load generated from that process."""
    from e2e import catalog

    status = 0
    for name in catalog.WORKLOAD_NAMES:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--out", out_dir,
        ]
        completed = subprocess.run(command, cwd=_REPO)
        status = status or completed.returncode
    return status


def main(argv: Optional[List[str]] = None) -> int:
    _bootstrap()
    from e2e import catalog

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=catalog.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(catalog.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", default=OUT_DIR, help="directory for run records and traces")
    args = parser.parse_args(argv)
    trace = bool(args.trace) or args.traced
    out_dir = os.path.abspath(args.out)
    if args.workload is None:
        return run_all(args.seed, args.seconds, trace, out_dir)

    _pin_to_one_cpu()
    import e2e.compile_cold  # noqa: F401  (imports are part of set-up: pay them all
    import e2e.exec_warm  # noqa: F401       before the import clock stops)
    import e2e.serve  # noqa: F401

    import_s = time.perf_counter() - _PROCESS_START
    record = run_workload(
        args.workload, args.seed, args.seconds, trace, import_s=import_s, out_dir=out_dir
    )
    print_metrics(record, trace)
    print("record:", os.path.relpath(write_record(record, trace, out_dir)))
    print(json.dumps(result_line(record, trace)))
    return 0 if record.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
