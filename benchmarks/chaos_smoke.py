"""Chaos smoke: seeded fault schedules against the serving stack, end to end.

The CI ``chaos-smoke`` job runs this script (locally:
``PYTHONPATH=src python benchmarks/chaos_smoke.py``).  Each scenario builds
a deterministic :class:`repro.reliability.FaultInjector` schedule, drives
the real serving path under it, and asserts the reliability layer's
survival contract — answers stay bitwise-correct (or typed errors), state
stays consistent, nothing is lost.  The plan-store corruption smoke
(``store_corruption_smoke.py``, which predates the fault injector and
damages real files on disk instead) is folded in as the final scenario, so
one job covers injected faults and on-disk corruption alike.

Scenarios:

1. **degraded-fallback** — optimizer faults degrade to the baseline plan;
   the answer matches the reference interpreter, never persists, and is
   flagged everywhere.
2. **store-faults** — read faults demote to cache misses, write faults to
   skipped persists; both are counted, neither surfaces to callers.
3. **close-semantics** — a pool thread busy past ``close(timeout)`` (held
   inside the compile of a cold expression): close() fails its in-flight
   and queued futures with the typed ``EngineClosedError``, leaves the
   queue empty and nothing pending.
4. **concurrent-run-close** — ``run()`` serves on the calling thread: two
   threads loop on it while close() runs; every call returns the right
   answer or raises ``EngineClosedError``, and both threads finish within a
   wall-clock bound.
5. **replay** — the same seed replays the same storm of store and
   optimizer faults, fault for fault (what makes every scenario above
   debuggable).
6. **store-corruption** — truncated on-disk entries degrade to compiles
   (delegated to ``store_corruption_smoke``).
7. **repeat-at-the-door** — an exact repeat is answered from the engine's
   result cache before anything is served: two threads loop on
   ``submit()`` / ``run()`` of pinned repeats and fresh inputs while close()
   runs; every call returns the right answer or raises
   ``EngineClosedError``, and no future is left pending.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

from repro.api import Session
from repro.lang import Dim, Matrix, Sum, Vector
from repro.optimizer import OptimizerConfig
from repro.reliability import (
    EngineClosedError,
    FaultInjector,
    FaultRule,
    OptimizerBudgetExceeded,
    PlanStoreError,
)
from repro.runtime import MatrixValue, execute
from repro.serialize.store import PlanStore
from repro.serve import ServingEngine

ROWS, COLS = 80, 40


def loss(sparsity: float = 0.05):
    m, n = Dim("m", ROWS), Dim("n", COLS)
    X = Matrix("X", m, n, sparsity=sparsity)
    u, v = Vector("u", m), Vector("v", n)
    return Sum((X - u @ v.T) ** 2)


def inputs_for(seed: int):
    rng = np.random.default_rng(seed)
    return {
        "X": MatrixValue.random_sparse(ROWS, COLS, 0.05, rng),
        "u": MatrixValue.random_dense(ROWS, 1, rng),
        "v": MatrixValue.random_dense(COLS, 1, rng),
    }


def config() -> OptimizerConfig:
    return OptimizerConfig.sampling_greedy()


def check(label: str, condition: bool, detail: str = "") -> None:
    if not condition:
        raise AssertionError(f"chaos smoke [{label}] failed: {detail}")


def degraded_fallback_smoke() -> None:
    faults = FaultInjector(
        [FaultRule("optimizer.saturate", OptimizerBudgetExceeded)], seed=13
    )
    with tempfile.TemporaryDirectory() as store_dir:
        store = PlanStore(store_dir, config())
        session = Session(config(), store=store, fault_injector=faults)
        expr, values = loss(), inputs_for(7)
        got = session.run(expr, values).scalar()
        want = execute(expr, values).scalar()
        check("degraded-fallback", abs(got - want) <= 1e-9 * max(1.0, abs(want)))
        plan = session.compile(loss())
        check("degraded-fallback", plan.degraded, "plan not flagged degraded")
        check("degraded-fallback", plan.cache_hit, "degraded plan not cached")
        check("degraded-fallback", len(store) == 0, "degraded plan was persisted")
        check(
            "degraded-fallback",
            session.degraded_compilations == 1,
            f"degraded_compilations={session.degraded_compilations}",
        )
    print("degraded fallback OK: baseline plan, correct, cached, never persisted")


def store_fault_smoke() -> None:
    faults = FaultInjector(
        [
            FaultRule("store.read", PlanStoreError, start=0, every=2),
            FaultRule("store.write", PlanStoreError, start=0, every=2),
        ],
        seed=14,
    )
    with tempfile.TemporaryDirectory() as store_dir:
        PlanStore(store_dir, config())  # pre-create so both sessions share it
        writer = Session(config(), store=PlanStore(store_dir, config()))
        writer.compile(loss())
        store = PlanStore(store_dir, config(), fault_injector=faults)
        session = Session(config(), store=store)
        expr, values = loss(), inputs_for(9)
        got = session.run(expr, values).scalar()
        want = execute(expr, values).scalar()
        check("store-faults", abs(got - want) <= 1e-9 * max(1.0, abs(want)))
        stats = store.stats
        check(
            "store-faults",
            stats.load_errors + stats.write_errors >= 1,
            f"load_errors={stats.load_errors}, write_errors={stats.write_errors}",
        )
    print(
        f"store faults OK: {stats.load_errors} read faults -> misses, "
        f"{stats.write_errors} write faults -> skipped persists"
    )


def close_semantics_smoke() -> None:
    entered, gate = threading.Event(), threading.Event()

    def slow(message: str) -> OptimizerBudgetExceeded:
        entered.set()
        gate.wait(10)
        return OptimizerBudgetExceeded(message)

    # The expression is cold, so the pool thread's first compile reaches the
    # optimizer and is held there.
    faults = FaultInjector([FaultRule("optimizer.saturate", slow, count=1)], seed=15)
    engine = ServingEngine(shards=1, config=config(), fault_injector=faults)
    expr = loss()
    futures = [engine.submit(expr, inputs_for(0))]
    try:
        check("close-semantics", entered.wait(10), "the pool thread never got busy")
        futures += [engine.submit(expr, inputs_for(seed)) for seed in (1, 2)]
        engine.close(timeout=0.3)
    finally:
        pending = [future for future in futures if not future.done()]
        gate.set()
    check("close-semantics", not pending, "a future left pending after close")
    for future in futures:
        try:
            future.result()
            check("close-semantics", False, "an unserved future resolved successfully")
        except EngineClosedError:
            pass
    for thread in engine._threads:  # the busy thread takes its stop sentinel last
        thread.join(10)
        check("close-semantics", not thread.is_alive(), "a pool thread outlived close()")
    check("close-semantics", engine.queue.empty(), "requests left on the queue")
    print("close semantics OK: a busy pool's futures failed with EngineClosedError")


def concurrent_run_close_smoke() -> None:
    engine = ServingEngine(shards=2, config=config())
    expr = loss()
    input_sets = [inputs_for(300 + seed) for seed in range(4)]
    expected = [execute(expr, values).scalar() for values in input_sets]
    engine.warm([expr])
    outcomes: list = [[], []]

    def client(index: int) -> None:
        step = 0
        while True:
            which = step % len(input_sets)
            try:
                got = engine.run(expr, input_sets[which]).scalar()
            except EngineClosedError:
                outcomes[index].append("closed")
                return
            want = expected[which]
            ok = abs(got - want) <= 1e-9 * max(1.0, abs(want))
            outcomes[index].append("ok" if ok else "wrong")
            step += 1

    threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    while not all(len(out) >= 20 for out in outcomes):
        check("concurrent-run-close", time.monotonic() - started < 30, "clients stalled")
        time.sleep(0.005)
    engine.close(timeout=5)
    for thread in threads:
        thread.join(max(0.0, started + 40 - time.monotonic()))
        check("concurrent-run-close", not thread.is_alive(), "a run() outlived close()")
    for out in outcomes:
        check("concurrent-run-close", "wrong" not in out, "a run() returned a wrong value")
        check("concurrent-run-close", out[-1] == "closed", "a client never saw close")
    check("concurrent-run-close", engine.queue.empty(), "a request left on the queue")
    served = sum(out.count("ok") for out in outcomes)
    print(f"concurrent run/close OK: {served} answers, both clients saw EngineClosedError")


def replay_smoke() -> None:
    def storm() -> list:
        faults = FaultInjector(
            [
                FaultRule("store.write", PlanStoreError, rate=0.5),
                FaultRule("optimizer.saturate", OptimizerBudgetExceeded, rate=0.3),
            ],
            seed=16,
        )
        with tempfile.TemporaryDirectory() as store_dir:
            engine = ServingEngine(
                shards=1, config=config(), store_path=store_dir, fault_injector=faults
            )
            try:
                # Each new sparsity class compiles: a saturation check and,
                # unless it degraded, a persist.
                for seed in range(8):
                    engine.run(loss(0.01 + 0.12 * seed), inputs_for(200 + seed))
            finally:
                engine.close()
        return faults.fired

    first, second = storm(), storm()
    check("replay", first == second, "same seed produced a different storm")
    check("replay", {entry[0] for entry in first} == {"store.write", "optimizer.saturate"},
          f"a rate rule never fired: {first}")
    print(f"replay OK: {len(first)} faults, identical sequence on both runs")


def corruption_smoke() -> None:
    # The on-disk counterpart of store.read faults: damage real payload
    # files behind the store's back and prove the fallback-to-compile path.
    import store_corruption_smoke

    store_corruption_smoke.main()


def repeat_at_the_door_smoke() -> None:
    engine = ServingEngine(shards=2, config=config())
    expr = loss()
    pinned = [inputs_for(400 + seed) for seed in range(3)]
    expected = [execute(expr, values).scalar() for values in pinned]
    for values in pinned:
        engine.run(expr, values)  # answered once: every later call is a repeat
    outcomes: list = [[], []]
    futures: list = []

    def client(index: int) -> None:
        step = 0
        while True:
            which = step % len(pinned)
            values = pinned[which]
            if step % 4 == 3:  # fresh objects, equal values: a miss
                values = {name: MatrixValue(value.data.copy()) for name, value in values.items()}
            try:
                if (index + step) % 2:
                    future = engine.submit(expr, values)
                    futures.append(future)
                    got = future.result(timeout=30).scalar()
                else:
                    got = engine.run(expr, values).scalar()
            except EngineClosedError:
                outcomes[index].append("closed")
                return
            want = expected[which]
            ok = abs(got - want) <= 1e-9 * max(1.0, abs(want))
            outcomes[index].append("ok" if ok else "wrong")
            step += 1

    threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    while not all(len(out) >= 40 for out in outcomes):
        check("repeat-at-the-door", time.monotonic() - started < 30, "clients stalled")
        time.sleep(0.005)
    engine.close(timeout=5)
    for thread in threads:
        thread.join(max(0.0, started + 40 - time.monotonic()))
        check("repeat-at-the-door", not thread.is_alive(), "a call outlived close()")
    for out in outcomes:
        check("repeat-at-the-door", "wrong" not in out, "a call returned a wrong value")
        check("repeat-at-the-door", out[-1] == "closed", "a client never saw close")
    check("repeat-at-the-door", all(f.done() for f in futures), "a future left pending")
    check("repeat-at-the-door", engine.queue.empty(), "a request left on the queue")
    stats = engine.stats()
    check("repeat-at-the-door", stats.result_cache_hits > 0, "no repeat hit the cache")
    served = sum(out.count("ok") for out in outcomes)
    print(
        f"repeat at the door OK: {served} answers, {stats.result_cache_hits} result-cache "
        "hits, both clients saw EngineClosedError"
    )


def main() -> int:
    degraded_fallback_smoke()
    store_fault_smoke()
    close_semantics_smoke()
    concurrent_run_close_smoke()
    replay_smoke()
    corruption_smoke()
    repeat_at_the_door_smoke()
    print("chaos smoke: all scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
