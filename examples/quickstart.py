"""Quickstart: compile once with a Session, execute many times.

The running example of the paper's introduction: the squared-reconstruction
loss ``sum((X - u v^T)^2)`` over a large sparse matrix ``X``.  Computing it
naively materialises the dense rank-1 matrix ``u v^T``; the optimizer
rewrites it into a form that only touches the non-zeros of ``X``.

This walks the Session API end to end:

1. declare the expression symbolically and ``session.compile`` it — the
   full lower/saturate/extract/lift pipeline runs once;
2. ``plan.run(**inputs)`` executes the optimized plan against concrete
   matrices (and validates their shapes against the compiled sizes);
3. compiling a *renamed* copy of the same expression is a cache hit: the
   canonical fingerprint abstracts input names to slots, so the plan — and
   the saturation cost — is shared across requests.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import Matrix, Vector, Sum, OptimizerConfig, Session
from repro.lang import Dim
from repro.runtime import MatrixValue, execute


def main() -> None:
    # 1. Declare the inputs symbolically: a sparse 8k x 4k matrix and two
    #    dense factor vectors.  Sparsity hints drive the cost model.
    m, n = Dim("m", 8_000), Dim("n", 4_000)
    X = Matrix("X", m, n, sparsity=1e-4)
    u = Vector("u", m)
    v = Vector("v", n)

    loss = Sum((X - u @ v.T) ** 2)
    print("input expression :", loss)

    # 2. Compile.  `fusion_aware=False` shows the raw algebraic rewrite the
    #    paper's introduction derives (with the default settings the
    #    optimizer would instead keep the form that fuses into `wsloss`).
    session = Session(OptimizerConfig.sampling_greedy(fusion_aware=False))
    started = time.perf_counter()
    plan = session.compile(loss)
    cold_seconds = time.perf_counter() - started
    report = plan.report
    print("optimized        :", plan.optimized)
    print(f"estimated cost   : {report.original_cost:.3g} -> {report.optimized_cost:.3g} "
          f"({report.speedup_estimate:.0f}x)")
    print(f"compile time     : translate {report.phase_times.translate * 1e3:.1f} ms, "
          f"saturate {report.phase_times.saturate * 1e3:.1f} ms, "
          f"extract {report.phase_times.extract * 1e3:.1f} ms")

    # 3. Execute the plan on synthetic data and check it matches the naive
    #    evaluation of the declared expression.
    rng = np.random.default_rng(0)
    inputs = {
        "X": MatrixValue.random_sparse(m.size, n.size, 1e-4, rng),
        "u": MatrixValue.random_dense(m.size, 1, rng),
        "v": MatrixValue.random_dense(n.size, 1, rng),
    }
    baseline = execute(loss, inputs)
    optimized = plan.run(inputs)
    # `run` executes the plan's tape, which keeps no bufferpool accounting;
    # the per-step profiler measures what the plan actually materializes.
    optimized_cells = plan.profile(inputs).measured_cells
    print(f"baseline value   : {baseline.scalar():.6f}  ({baseline.stats.elapsed * 1e3:.1f} ms, "
          f"{baseline.stats.intermediate_cells:.3g} intermediate cells)")
    print(f"optimized value  : {optimized.scalar():.6f}  ({optimized.stats.elapsed * 1e3:.1f} ms, "
          f"{optimized_cells:.3g} intermediate cells)")
    assert abs(baseline.scalar() - optimized.scalar()) <= 1e-6 * max(1.0, abs(baseline.scalar()))
    print("results match.")

    # 4. Compile the same *shape* under different names: a cache hit — the
    #    canonical fingerprint abstracts names to slots, so saturation is
    #    skipped and the request only pays a hash plus a dictionary probe.
    m2, n2 = Dim("rows", 8_000), Dim("cols", 4_000)
    A = Matrix("A", m2, n2, sparsity=1e-4)
    b, c = Vector("b", m2), Vector("c", n2)
    started = time.perf_counter()
    twin = session.compile(Sum((A - b @ c.T) ** 2))
    warm_seconds = time.perf_counter() - started
    assert twin.cache_hit
    twin_result = twin.run(A=inputs["X"], b=inputs["u"], c=inputs["v"])
    assert abs(twin_result.scalar() - optimized.scalar()) <= 1e-9 * max(1.0, abs(optimized.scalar()))
    print(f"warm compile     : {warm_seconds * 1e3:.2f} ms vs {cold_seconds * 1e3:.1f} ms cold "
          f"({cold_seconds / max(warm_seconds, 1e-9):.0f}x) — renamed inputs, same plan")
    print("session          :", session.describe())


if __name__ == "__main__":
    main()
