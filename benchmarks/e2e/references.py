"""Independent references: what every benchmarked op must have computed.

The 14 paper roots are written out here as plain NumPy/SciPy formulas,
straight from the algorithm descriptions in ``repro/workloads/*.py`` — no
``compile_expression``, no ``Session``, no interpreter, no LA expression
object at all.  The SSSP/REACH families use the naive evaluators bundled
with the workloads (``Workload.reference``), which are likewise straight
NumPy and never touch the optimizer.

Inputs are not dyadic, and the optimizer re-associates sums and products,
so results are compared at :data:`RTOL`/:data:`ATOL` — elementwise for
dense outputs, against the largest expected magnitude for sparse ones
(where an elementwise pass would cost more than the op being checked).
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Union

import numpy as np
from scipy import sparse

from repro.runtime.data import MatrixValue

from e2e.inputs import FamilyInputs

RTOL = 1e-6
ATOL = 1e-9

Arrays = Mapping[str, object]
Expected = Union[np.ndarray, sparse.csr_matrix]

ALS_LAMBDA = 0.1
SVM_LAMBDA = 0.01


def _scalar(value: float) -> np.ndarray:
    return np.array([[float(value)]])


def _als(a: Arrays) -> Dict[str, Expected]:
    residual = a["U"] @ a["V"].T
    residual -= a["X"].toarray()
    regularizer = ALS_LAMBDA * (np.sum(a["U"] ** 2) + np.sum(a["V"] ** 2))
    return {
        "loss": _scalar(np.sum(residual**2) + regularizer),
        "gradient_u": residual @ a["V"] + ALS_LAMBDA * a["U"],
    }


def _glm(a: Arrays) -> Dict[str, Expected]:
    X = a["X"]
    return {
        "hessian_vector": X.T @ (a["w"] * (X @ a["p"])),
        "gradient": X.T @ (a["mu"] - a["y"]),
        "deviance": _scalar(np.sum(a["w"] * (X @ a["beta"] - a["y"]) ** 2)),
    }


def _svm(a: Arrays) -> Dict[str, Expected]:
    X = a["X"]
    margin = X @ a["w"] - a["y"]
    return {
        "gradient": X.T @ margin + SVM_LAMBDA * a["w"],
        "hessian_vector": X.T @ (X @ a["s"]) + SVM_LAMBDA * a["s"],
        "objective": _scalar(np.sum(margin**2) + SVM_LAMBDA * np.sum(a["w"] ** 2)),
    }


def _mlr(a: Arrays) -> Dict[str, Expected]:
    X, P = a["X"], a["P"]
    # P is a column vector, so rowSums(P) = P and the row weight is P - P*P.
    return {
        "weighted_rows": sparse.csr_matrix(X.multiply(P - P * P)),
        "hessian_vector": X.T @ ((P * P) * (X @ a["v"])),
        "gradient": X.T @ (P - a["y"]),
    }


def _pnmf(a: Arrays) -> Dict[str, Expected]:
    X, W, H = a["X"], a["W"], a["H"]
    product = W @ H
    quotient = sparse.csr_matrix(X.multiply(1.0 / product))
    return {
        "objective": _scalar(np.sum(product) - X.multiply(np.log(product)).sum()),
        "h_update": H * np.asarray(W.T @ quotient) / np.sum(W, axis=0)[:, None],
        "w_numerator": np.asarray(quotient @ H.T),
    }


#: per paper family: every root's expected value from one set of input arrays
PAPER_REFERENCES: Dict[str, Callable[[Arrays], Dict[str, Expected]]] = {
    "ALS": _als,
    "GLM": _glm,
    "SVM": _svm,
    "MLR": _mlr,
    "PNMF": _pnmf,
}


def expected_values(family: FamilyInputs, arrays: Arrays) -> Dict[str, Expected]:
    """The reference result of every root of ``family`` on ``arrays``."""
    formulas = PAPER_REFERENCES.get(family.name)
    if formulas is not None:
        return formulas(arrays)
    if family.workload.reference is None:
        raise KeyError(f"no reference for family {family.name}")
    bound = {name: MatrixValue(array) for name, array in arrays.items()}
    return {root: _two_d(value) for root, value in family.workload.reference(bound).items()}


def _two_d(value: object) -> np.ndarray:
    array = np.asarray(value, dtype=np.float64)
    return array.reshape(1, 1) if array.ndim == 0 else array


def matches(value: MatrixValue, expected: Expected) -> bool:
    """Whether a program output equals its reference within tolerance."""
    if tuple(value.shape) != tuple(expected.shape):
        return False
    if sparse.issparse(expected):
        scale = abs(expected).max() if expected.nnz else 0.0
        difference = abs(value.to_sparse() - expected)
        worst = difference.max() if difference.nnz else 0.0
        return bool(np.isfinite(worst) and worst <= ATOL + RTOL * scale)
    return bool(np.allclose(value.to_dense(), expected, rtol=RTOL, atol=ATOL))


def self_check(family: FamilyInputs, root_name: str, value: MatrixValue) -> None:
    """Prove the check bites: a correct value passes, one wrong cell fails.

    ``value`` is a program output for version 0 of ``root_name``; the
    expected value is corrupted in one cell by a relative 1e-3 (a thousand
    times the tolerance) and must then be rejected.
    """
    expected = expected_values(family, family.arrays(0))[root_name]
    if not matches(value, expected):
        raise AssertionError(f"self-check: correct {family.name}/{root_name} rejected")
    if sparse.issparse(expected):
        wrong = expected.copy()
        wrong.data[0] = wrong.data[0] * (1.0 + 1e-3) + 1e-3
    else:
        wrong = np.array(expected, dtype=np.float64, copy=True)
        wrong.flat[0] = wrong.flat[0] * (1.0 + 1e-3) + 1e-3
    if matches(value, wrong):
        raise AssertionError(f"self-check: wrong {family.name}/{root_name} accepted")
