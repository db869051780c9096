"""Workload infrastructure for the evaluation benchmarks.

A :class:`Workload` bundles the inner-loop LA expressions of one ML
algorithm (the DAGs SystemML would hand to the optimizer), a synthetic data
generator matched to the algorithm's input characteristics, and the size
ladder used by the run-time figures.  The paper evaluates five algorithms
from SystemML's performance suite — ALS, GLM, SVM, MLR and PNMF — at three
data sizes each; the sizes here keep the same ratios but are scaled down so
every configuration runs in seconds on a single core (see DESIGN.md,
"Substitutions").

Workloads integrate with the Session API (:mod:`repro.api`): every input
variable carries an explicit sparsity hint (``1.0`` for dense inputs, the
ladder's density for the sparse data matrix), so compiled plans know the
exact data regime they were optimized under and can detect when observed
inputs drift away from it.  ``Workload.run_session`` compiles and executes
all roots of one algorithm through a shared session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.lang import expr as la
from repro.runtime.data import MatrixValue


@dataclass(frozen=True)
class WorkloadSize:
    """One point of a workload's size ladder."""

    label: str
    rows: int
    cols: int
    rank: int = 10
    sparsity: float = 0.01
    #: the data size the paper used at the corresponding ladder position
    paper_label: str = ""

    def scaled(self, rows_factor: float, label: Optional[str] = None) -> "WorkloadSize":
        """This size with its row count scaled (columns/rank/sparsity kept).

        Scaling only the rows and keeping the sparsity is the serving-tier
        shape of a size ladder — the same model family trained on more
        examples — and is exactly the regime a compiled plan template
        serves: same structure, same sparsity band, only a dimension size
        moved.
        """
        rows = max(1, int(round(self.rows * rows_factor)))
        return WorkloadSize(
            label=label or f"{self.label}x{rows_factor:g}",
            rows=rows,
            cols=self.cols,
            rank=self.rank,
            sparsity=self.sparsity,
            paper_label=self.paper_label,
        )


@dataclass
class Workload:
    """An algorithm's inner-loop expressions plus matching synthetic data."""

    name: str
    description: str
    size: WorkloadSize
    #: named output expressions (the roots of the HOP DAG)
    roots: Dict[str, la.LAExpr]
    #: generates named inputs for the execution engine
    generate_inputs: Callable[[int], Dict[str, MatrixValue]]
    #: the semiring the workload's expressions are meant to execute over
    #: (a registered ring name; ``"real"`` for the paper's five families)
    semiring: str = "real"
    #: optional naive reference evaluator: maps the generated inputs to the
    #: expected dense result per root, computed with straight NumPy and no
    #: optimizer — the parity oracle for the semiring families
    reference: Optional[Callable[[Dict[str, MatrixValue]], Dict[str, np.ndarray]]] = None

    def inputs(self, seed: int = 0) -> Dict[str, MatrixValue]:
        return self.generate_inputs(seed)

    @property
    def root_list(self) -> List[la.LAExpr]:
        return list(self.roots.values())

    # -- Session API integration ----------------------------------------------
    def session_plans(self, session) -> Dict[str, "object"]:
        """Compile every root through a :class:`repro.api.Session`.

        Returns ``{root_name: CompiledPlan}``.  Because all sizes of one
        workload family share their expression *structure*, a session that
        has compiled one ladder point only pays fingerprinting for repeat
        compilations of the same point, and the per-root plans can be
        executed millions of times without touching the optimizer again.
        """
        return {name: session.compile(root) for name, root in self.roots.items()}

    def run_session(self, session, seed: int = 0) -> Dict[str, "object"]:
        """Compile and execute every root via the Session API.

        Generates one synthetic input set and feeds each plan exactly the
        inputs its slots declare (plans reject extraneous names, so the full
        workload input dict is filtered per root).  Returns
        ``{root_name: ExecutionResult}``.
        """
        inputs = self.inputs(seed)
        results: Dict[str, "object"] = {}
        for name, plan in self.session_plans(session).items():
            results[name] = plan.run({k: inputs[k] for k in plan.input_names})
        return results


@dataclass
class WorkloadSpec:
    """A workload family: a builder plus its size ladder."""

    name: str
    description: str
    builder: Callable[[WorkloadSize], Workload]
    sizes: Dict[str, WorkloadSize]

    def build(self, size_label: str = "S") -> Workload:
        if size_label not in self.sizes:
            raise KeyError(
                f"unknown size {size_label!r} for workload {self.name}; "
                f"available: {sorted(self.sizes)}"
            )
        return self.builder(self.sizes[size_label])

    def build_ladder(
        self,
        count: int = 5,
        base_label: str = "S",
        factor: float = 1.25,
    ) -> List[Workload]:
        """Build a geometric size ladder of this workload family.

        Ladder point ``i`` scales the base size's rows by ``factor**i``
        (columns, rank and sparsity unchanged), so every point shares one
        canonical plan-template digest — the workload a serving tier sees
        when one model family runs at many data sizes.  The default ladder
        spans rows ×1 … ×\\ ``factor**(count-1)``; a template serves a rung
        wherever its plan still costs no more than the original there.
        """
        if count < 1:
            raise ValueError("a size ladder needs at least one point")
        base = self.sizes.get(base_label)
        if base is None:
            raise KeyError(
                f"unknown size {base_label!r} for workload {self.name}; "
                f"available: {sorted(self.sizes)}"
            )
        return [
            self.builder(base.scaled(factor**index, label=f"{base_label}+{index}"))
            for index in range(count)
        ]

    @property
    def size_labels(self) -> List[str]:
        return list(self.sizes.keys())


# ---------------------------------------------------------------------------
# Synthetic data helpers
# ---------------------------------------------------------------------------


def sparse_matrix(rows: int, cols: int, sparsity: float, rng: np.random.Generator) -> MatrixValue:
    """A random sparse matrix with the requested density."""
    return MatrixValue.random_sparse(rows, cols, sparsity, rng)


def dense_matrix(rows: int, cols: int, rng: np.random.Generator, scale: float = 1.0) -> MatrixValue:
    """A random dense matrix."""
    return MatrixValue.random_dense(rows, cols, rng, scale)


def dense_vector(rows: int, rng: np.random.Generator, scale: float = 1.0) -> MatrixValue:
    """A random dense column vector."""
    return MatrixValue.random_dense(rows, 1, rng, scale)


def probability_vector(rows: int, rng: np.random.Generator) -> MatrixValue:
    """A column vector with entries in (0, 1) — class probabilities."""
    return MatrixValue.dense(rng.uniform(0.05, 0.95, size=(rows, 1)))


def label_vector(rows: int, rng: np.random.Generator) -> MatrixValue:
    """A +/-1 label vector."""
    return MatrixValue.dense(np.where(rng.random((rows, 1)) > 0.5, 1.0, -1.0))
