"""Semiring workload families: shortest paths (min-plus) and reachability (bool).

The paper's five evaluation workloads are real-ring ML algorithms; these two
families exercise the same optimizer and runtime over *other* semirings —
the graph algorithms that motivated semiring-generic LA systems in the
first place:

* **SSSP** (min-plus): single-source shortest paths by Bellman-Ford
  relaxation.  One relaxation step is ``d' = min(d, A^T ⊗ d)`` where
  ``⊗`` is the min-plus matrix-vector product — exactly
  ``ElemPlus(MatMul(Transpose(A), d), d)`` once ``⊕ = min`` and
  ``⊗ = +``.  The same algebra runs Viterbi decoding: negated
  log-probabilities turn "most probable path" into "shortest path".

* **REACH** (bool): transitive reachability by frontier expansion.  One
  step is ``r' = r ∨ (A^T ⊗ r)`` over the boolean or-and ring — the same
  expression shape as SSSP with ``⊕ = or`` and ``⊗ = and``.

Both families carry a ``two_hop`` root, ``Sum(A ⊗ A)`` — the cheapest
two-hop path weight under min-plus, "does any length-2 path exist" under
bool.  Naively it materialises the n×n ⊗-product (O(n³) work); the
distributivity-only factoring the optimizer finds
(``sum(rowSums(t(A)) * rowSums(A))``) needs O(n²) — achieved without any
real-only rule (``test_two_hop_plans_avoid_the_cubic_matmul``; the
SSSP/REACH rows of ``benchmarks/e2e``'s ``exec_warm`` time it).

Every input is generated as a dyadic rational (``k/64``), so ⊗-products and
the few-term ⊕-folds are exact in float64 and *any* re-association the
optimizer performs is bitwise identical to the naive reference — the parity
tests assert ``==``, not ``allclose``.  Each workload also bundles a
``reference`` evaluator: straight NumPy, no optimizer, the oracle the
parity suite and the benchmark check against.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.lang import Dim, Matrix, Sum
from repro.runtime.data import MatrixValue
from repro.workloads.base import Workload, WorkloadSize, WorkloadSpec

SSSP_SIZES = {
    "S": WorkloadSize("S", rows=48, cols=48, rank=1, sparsity=0.25),
    "M": WorkloadSize("M", rows=96, cols=96, rank=1, sparsity=0.15),
    "L": WorkloadSize("L", rows=192, cols=192, rank=1, sparsity=0.08),
}

REACH_SIZES = {
    "S": WorkloadSize("S", rows=48, cols=48, rank=1, sparsity=0.06),
    "M": WorkloadSize("M", rows=96, cols=96, rank=1, sparsity=0.04),
    "L": WorkloadSize("L", rows=192, cols=192, rank=1, sparsity=0.02),
}


def _dyadic_weights(n: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """An n×n min-plus adjacency: dyadic edge weights, ``+inf`` non-edges.

    Weights are ``k/64`` with ``k ∈ [1, 64]``, so any sum of a handful of
    them is exact in float64 (6 fraction bits per term).  ``+inf`` is the
    min-plus zero: absent edges contribute nothing to a ``min``.
    """
    weights = rng.integers(1, 65, size=(n, n)) / 64.0
    present = rng.random((n, n)) < density
    np.fill_diagonal(present, False)
    return np.where(present, weights, np.inf)


def _bool_adjacency(n: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """An n×n boolean adjacency over {0.0, 1.0}."""
    adjacency = (rng.random((n, n)) < density).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    return adjacency


def _minplus_mv(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Naive min-plus matrix @ column-vector: ``out[i] = min_k m[i,k] + v[k]``."""
    return np.min(matrix + vector[:, 0][None, :], axis=1)[:, None]


def _bool_mv(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Naive or-and matrix @ column-vector: ``out[i] = max_k min(m[i,k], v[k])``."""
    return np.max(np.minimum(matrix, vector[:, 0][None, :]), axis=1)[:, None]


def _two_hop_min(adjacency: np.ndarray) -> float:
    """Cheapest two-hop path weight, row-blocked to bound the n³ temporary."""
    best = np.inf
    for row in adjacency:
        best = min(best, float(np.min(row[:, None] + adjacency)))
    return best


def _two_hop_bool(adjacency: np.ndarray) -> float:
    best = 0.0
    for row in adjacency:
        best = max(best, float(np.max(np.minimum(row[:, None], adjacency))))
    return best


def build_sssp(size: WorkloadSize) -> Workload:
    """Construct the SSSP workload at one ladder size (min-plus ring)."""
    n = Dim("sssp_n", size.rows)
    one = Dim("sssp_one", 1)

    A = Matrix("A", n, n, sparsity=1.0)
    d = Matrix("d", n, one, sparsity=1.0)

    # One Bellman-Ford relaxation: d'[j] = min(d[j], min_i(d[i] + A[i,j])).
    relax = (A.T @ d) + d
    # Cheapest two-hop path; factored by the optimizer to O(n²).
    two_hop = Sum(A @ A)

    def generate(seed: int) -> Dict[str, MatrixValue]:
        rng = np.random.default_rng(seed)
        adjacency = _dyadic_weights(size.rows, size.sparsity, rng)
        distances = np.full((size.rows, 1), np.inf)
        distances[0, 0] = 0.0  # the source
        # A couple of warm-up relaxations so d carries finite dyadic values.
        for _ in range(2):
            distances = np.minimum(distances, _minplus_mv(adjacency.T, distances))
        return {"A": MatrixValue.dense(adjacency), "d": MatrixValue.dense(distances)}

    def reference(inputs: Dict[str, MatrixValue]) -> Dict[str, np.ndarray]:
        adjacency = inputs["A"].to_dense()
        distances = inputs["d"].to_dense()
        return {
            "relax": np.minimum(distances, _minplus_mv(adjacency.T, distances)),
            "two_hop": np.array(_two_hop_min(adjacency)),
        }

    return Workload(
        name="SSSP",
        description="Single-source shortest paths / Viterbi (min-plus ring)",
        size=size,
        roots={"relax": relax, "two_hop": two_hop},
        generate_inputs=generate,
        semiring="min-plus",
        reference=reference,
    )


def build_reach(size: WorkloadSize) -> Workload:
    """Construct the REACH workload at one ladder size (bool or-and ring)."""
    n = Dim("reach_n", size.rows)
    one = Dim("reach_one", 1)

    A = Matrix("A", n, n, sparsity=size.sparsity)
    r = Matrix("r", n, one, sparsity=1.0)

    # One frontier expansion: r'[j] = r[j] or (exists i: r[i] and A[i,j]).
    step = (A.T @ r) + r
    # Does any length-2 path exist anywhere in the graph?
    two_hop = Sum(A @ A)

    def generate(seed: int) -> Dict[str, MatrixValue]:
        rng = np.random.default_rng(seed)
        adjacency = _bool_adjacency(size.rows, size.sparsity, rng)
        frontier = np.zeros((size.rows, 1))
        frontier[0, 0] = 1.0  # the source
        frontier = np.maximum(frontier, _bool_mv(adjacency.T, frontier))
        return {"A": MatrixValue.dense(adjacency), "r": MatrixValue.dense(frontier)}

    def reference(inputs: Dict[str, MatrixValue]) -> Dict[str, np.ndarray]:
        adjacency = inputs["A"].to_dense()
        frontier = inputs["r"].to_dense()
        return {
            "step": np.maximum(frontier, _bool_mv(adjacency.T, frontier)),
            "two_hop": np.array(_two_hop_bool(adjacency)),
        }

    return Workload(
        name="REACH",
        description="Transitive reachability (boolean or-and ring)",
        size=size,
        roots={"step": step, "two_hop": two_hop},
        generate_inputs=generate,
        semiring="bool",
        reference=reference,
    )


SSSP_SPEC = WorkloadSpec(
    name="SSSP",
    description="Single-source shortest paths / Viterbi (min-plus ring)",
    builder=build_sssp,
    sizes=SSSP_SIZES,
)

REACH_SPEC = WorkloadSpec(
    name="REACH",
    description="Transitive reachability (boolean or-and ring)",
    builder=build_reach,
    sizes=REACH_SIZES,
)

#: The non-real workload families, keyed by name.  Kept in a registry of
#: their own: the paper's harnesses iterate :data:`repro.workloads.WORKLOADS`
#: and assume real arithmetic, so the semiring families must not leak into
#: an ``all`` selection there.
SEMIRING_WORKLOADS: Dict[str, WorkloadSpec] = {
    "SSSP": SSSP_SPEC,
    "REACH": REACH_SPEC,
}
