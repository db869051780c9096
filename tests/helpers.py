"""Shared test utilities: fixture expressions, random generators, oracles."""

from __future__ import annotations

import dataclasses
import random
import threading
import time
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.lang import ColSums, Dim, Matrix, RowSums, Sum, Vector, dag
from repro.lang import expr as la
from repro.optimizer import OptimizerConfig
from repro.optimizer.pipeline import compile_expression
from repro.runtime import MatrixValue, execute
from repro.runtime.ra_interp import evaluate as ra_evaluate
from repro.translate import LoweringError, lower
from repro.translate.lower import is_barrier
from repro.workloads import SEMIRING_WORKLOADS, WORKLOADS


def standard_dims(m: int = 7, n: int = 5, k: int = 3) -> Tuple[Dim, Dim, Dim]:
    """Small concrete dimensions used across structural tests."""
    return Dim("m", m), Dim("n", n), Dim("k", k)


def standard_symbols(m: int = 7, n: int = 5, k: int = 3) -> Dict[str, la.LAExpr]:
    """A small environment of matrices and vectors with concrete sizes."""
    dm, dn, dk = standard_dims(m, n, k)
    return {
        "X": Matrix("X", dm, dn, sparsity=0.4),
        "Y": Matrix("Y", dm, dn, sparsity=0.6),
        "A": Matrix("A", dm, dk),
        "B": Matrix("B", dk, dn),
        "u": Vector("u", dm),
        "v": Vector("v", dn),
        "w": Vector("w", dk),
    }


def numeric_inputs(seed: int = 0, m: int = 7, n: int = 5, k: int = 3) -> Dict[str, np.ndarray]:
    """Dense numeric bindings matching :func:`standard_symbols`."""
    rng = np.random.default_rng(seed)
    return {
        "X": rng.random((m, n)) * (rng.random((m, n)) < 0.6),
        "Y": rng.random((m, n)),
        "A": rng.random((m, k)),
        "B": rng.random((k, n)),
        "u": rng.random((m, 1)),
        "v": rng.random((n, 1)),
        "w": rng.random((k, 1)),
    }


def benchmark_roots():
    """``(kind, expression, semiring)`` for the 14 paper roots + 4 SSSP/REACH
    roots at size S, in the order ``benchmarks/e2e`` compiles them."""
    for registry in (WORKLOADS, SEMIRING_WORKLOADS):
        for family, spec in registry.items():
            workload = spec.build("S")
            for root, expr in workload.roots.items():
                yield f"{family}/{root}", expr, workload.semiring


def sum_product_regions(expr: la.LAExpr):
    """The regions ``compile_expression`` saturates, in its order: the DAG is
    split at barriers, each distinct region is visited once, leaves are not
    saturated."""
    seen, regions = set(), []

    def visit(node: la.LAExpr) -> None:
        if node in seen:
            return
        seen.add(node)
        if any(is_barrier(sub) for sub in dag.postorder(node)):
            for child in node.children:
                visit(child)
        elif node.children:
            regions.append(node)

    visit(expr)
    return regions


def lowerable_bodies(expr: la.LAExpr):
    """Lower ``expr``, splitting at barrier operators like the optimizer."""
    try:
        return [lower(expr).plan.body]
    except LoweringError:
        bodies = []
        for child in expr.children:
            bodies.extend(lowerable_bodies(child))
        return bodies


def run_la(expr: la.LAExpr, inputs: Dict[str, np.ndarray]) -> np.ndarray:
    """Execute an LA expression on dense inputs and return a dense result."""
    return execute(expr, {name: MatrixValue.dense(value) for name, value in inputs.items()}).to_dense()


def run_ra_of(expr: la.LAExpr, inputs: Dict[str, np.ndarray]) -> np.ndarray:
    """Lower an LA expression and evaluate the RA plan with the oracle."""
    lowered = lower(expr)
    attr_sizes = {}
    for sub in lowered.plan.body.walk():
        for attr in getattr(sub, "attrs", ()) or []:
            if attr.size is not None:
                attr_sizes[attr.name] = attr.size
    ra_inputs = {name: np.squeeze(np.asarray(value)) for name, value in inputs.items()}
    value, axes = ra_evaluate(lowered.plan.body, ra_inputs, attr_sizes)
    # orient the result to (rows, cols)
    row = lowered.plan.row_attr.name if lowered.plan.row_attr else None
    col = lowered.plan.col_attr.name if lowered.plan.col_attr else None
    if not axes:
        return np.array([[float(value)]])
    if len(axes) == 1:
        array = value.reshape(-1, 1) if axes[0] == row else value.reshape(1, -1)
        return array
    if axes == (row, col):
        return value
    return value.T


def assert_same_result(a: np.ndarray, b: np.ndarray, rtol: float = 1e-8, atol: float = 1e-8) -> None:
    squeezed_a = np.atleast_2d(np.squeeze(np.asarray(a)))
    squeezed_b = np.atleast_2d(np.squeeze(np.asarray(b)))
    assert squeezed_a.shape == squeezed_b.shape, f"shape mismatch {squeezed_a.shape} vs {squeezed_b.shape}"
    assert np.allclose(squeezed_a, squeezed_b, rtol=rtol, atol=atol), (
        f"results differ: max abs diff = {np.max(np.abs(squeezed_a - squeezed_b))}"
    )


# ---------------------------------------------------------------------------
# Random expression generation (shared by the hypothesis/property tests)
# ---------------------------------------------------------------------------


def random_la_expression(rng: random.Random, depth: int = 3) -> la.LAExpr:
    """A random LA expression in the sum-product fragment over the standard symbols."""
    symbols = standard_symbols()
    matrices = [symbols["X"], symbols["Y"]]
    vectors = [symbols["u"]]

    def gen_matrix(level: int) -> la.LAExpr:
        if level <= 0 or rng.random() < 0.3:
            return rng.choice(matrices)
        choice = rng.randrange(6)
        if choice == 0:
            return la.ElemMul(gen_matrix(level - 1), gen_matrix(level - 1))
        if choice == 1:
            return la.ElemPlus(gen_matrix(level - 1), gen_matrix(level - 1))
        if choice == 2:
            return la.ElemMinus(gen_matrix(level - 1), gen_matrix(level - 1))
        if choice == 3:
            return la.ElemMul(gen_matrix(level - 1), rng.choice(vectors))
        if choice == 4:
            return la.MatMul(symbols["A"], symbols["B"])
        return la.ElemMul(la.Literal(rng.choice([2.0, -1.0, 0.5])), gen_matrix(level - 1))

    root_kind = rng.randrange(4)
    matrix = gen_matrix(depth)
    if root_kind == 0:
        return Sum(matrix)
    if root_kind == 1:
        return RowSums(matrix)
    if root_kind == 2:
        return ColSums(matrix)
    return matrix


# ---------------------------------------------------------------------------
# Plans lost to the anytime stop (tier-1 sample + bench_saturation_convergence)
# ---------------------------------------------------------------------------


def with_runner(config: OptimizerConfig, **fields) -> OptimizerConfig:
    """A copy of ``config`` whose ``RunnerConfig`` has ``fields`` replaced."""
    return dataclasses.replace(config, runner=dataclasses.replace(config.runner, **fields))


def without_plateau(config: OptimizerConfig) -> OptimizerConfig:
    """``config`` with the anytime stop off: saturate to the limit or a fixpoint."""
    return with_runner(config, plateau=0)


def early_stop_outcomes(seeds: Iterable[int]) -> Dict[str, float]:
    """Compile one seeded random expression (depth 2-4) per seed under
    ``sampling_greedy`` with and without the anytime stop and count how the
    stopped plan compares with the ``plateau=0`` one.

    RA cost (what saturation and the probe see) and LA cost (what is compared
    here) disagree now and then, so ``plateau=0`` is not an upper bound: the
    stopped run can also come out *cheaper*.
    """
    default = OptimizerConfig.sampling_greedy()
    full = without_plateau(default)
    outcomes = dict.fromkeys(
        ("expressions", "costlier", "cheaper", "equal_cost_other_text", "identical",
         "above_input", "seconds_default", "seconds_plateau_0"), 0
    )  # fmt: skip
    for seed in seeds:
        rng = random.Random(seed)
        expr = random_la_expression(rng, depth=rng.randint(2, 4))
        start = time.perf_counter()
        stopped = compile_expression(expr, default).report
        middle = time.perf_counter()
        reference = compile_expression(expr, full).report
        outcomes["seconds_default"] += middle - start
        outcomes["seconds_plateau_0"] += time.perf_counter() - middle
        outcomes["expressions"] += 1
        outcomes["above_input"] += stopped.optimized_cost > stopped.original_cost
        if stopped.optimized_cost > reference.optimized_cost:
            outcomes["costlier"] += 1
        elif stopped.optimized_cost < reference.optimized_cost:
            outcomes["cheaper"] += 1
        elif str(stopped.optimized) != str(reference.optimized):
            outcomes["equal_cost_other_text"] += 1
        else:
            outcomes["identical"] += 1
    return outcomes


def hold_first_pool_batch(engine) -> Tuple[threading.Event, threading.Event]:
    """Make the engine's next ``_serve_batch`` wait until released.

    Returns ``(busy, release)``: ``busy`` is set once a pool thread holds its
    batch, and requests submitted after that queue behind it until
    ``release`` is set.  Inline ``run()`` serves through ``_serve_batch`` too,
    so install this after any inline reference runs.
    """
    serve_batch, busy, release = engine._serve_batch, threading.Event(), threading.Event()

    def held(batch):
        if not busy.is_set():
            busy.set()
            release.wait(60)
        serve_batch(batch)

    engine._serve_batch = held
    return busy, release
