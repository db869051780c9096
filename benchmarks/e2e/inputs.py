"""Seeded inputs: the program only ever sees what this module generates.

Every leaf variable of a workload family gets a value drawn from the run's
``--seed``: the *data* leaves (sparsity hint below the dense band — the
``X`` of every paper family) are generated once and pinned, the *parameter*
leaves get :data:`VERSIONS` pre-generated versions that the load generators
rotate through.  Densities match the compile-time hints, so no plan ever
sees sparsity drift, and dense values stay in ``[0.05, 0.95)`` so ``log``
and ``/`` in the PNMF roots are well defined.

Values are **not** dyadic (unlike the repo's parity tests), so an optimized
plan may differ from its reference by re-association error; see
:data:`references.RTOL`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import numpy as np
from scipy import sparse

from repro.lang import dag
from repro.lang import expr as la
from repro.runtime.data import SPARSE_THRESHOLD, MatrixValue
from repro.workloads import WORKLOADS, get_semiring_workload, get_workload
from repro.workloads.base import Workload

#: parameter versions the load generators rotate over
VERSIONS = 8

PAPER_FAMILIES = tuple(WORKLOADS)  # ALS, GLM, SVM, MLR, PNMF
SEMIRING_FAMILIES = ("SSSP", "REACH")


def families_for(smoke: bool) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(paper, semiring)`` family names; the smoke test keeps the cheap ones
    that still cover a stackable root, barriers, ILP extraction and a ring."""
    if smoke:
        return ("MLR", "PNMF"), ("SSSP",)
    return PAPER_FAMILIES, SEMIRING_FAMILIES


def _rng(seed: int, *labels: object) -> np.random.Generator:
    """An independent stream per (seed, labels) — stable across processes."""
    salt = zlib.crc32(":".join(map(str, labels)).encode())
    return np.random.default_rng([seed, salt])


def sparse_value(rows: int, cols: int, density: float, rng: np.random.Generator) -> MatrixValue:
    """A CSR matrix with ~``density`` non-zeros in ``[0.05, 0.95)``.

    Draws flat cell indices and drops duplicates, which is ~10x faster than
    ``scipy.sparse.random`` at the M sizes and keeps set-up time about the
    program, not about the generator.
    """
    cells = rows * cols
    flat = np.unique(rng.integers(0, cells, size=int(round(cells * density))))
    data = rng.uniform(0.05, 0.95, size=flat.size)
    matrix = sparse.csr_matrix((data, (flat // cols, flat % cols)), shape=(rows, cols))
    return MatrixValue(matrix)


def dense_array(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(0.05, 0.95, size=(rows, cols))


def _is_data(var: la.Var) -> bool:
    return var.sparsity is not None and var.sparsity < SPARSE_THRESHOLD


@dataclass
class FamilyInputs:
    """One workload family at one size: its roots and their generated inputs."""

    workload: Workload
    #: pinned data values by leaf name (the same objects in every request)
    data: Dict[str, MatrixValue]
    #: per version: parameter arrays by leaf name (wrapped per request or once)
    params: List[Dict[str, np.ndarray]]
    #: leaf names each root binds
    root_leaves: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.workload.name

    def arrays(self, version: int) -> Dict[str, object]:
        """Every leaf as a NumPy/SciPy object — what the references consume."""
        merged: Dict[str, object] = {name: value.data for name, value in self.data.items()}
        merged.update(self.params[version % len(self.params)])
        return merged


def paper_family(name: str, size: str, seed: int) -> FamilyInputs:
    """Generate one of the paper's five families from the leaf metadata."""
    workload = get_workload(name, size)
    leaves: Dict[str, la.Var] = {}
    root_leaves: Dict[str, Tuple[str, ...]] = {}
    for root_name, root in workload.roots.items():
        found = dag.variables(root)
        root_leaves[root_name] = tuple(var.name for var in found)
        for var in found:
            leaves.setdefault(var.name, var)
    data: Dict[str, MatrixValue] = {}
    params: List[Dict[str, np.ndarray]] = [dict() for _ in range(VERSIONS)]
    for leaf, var in sorted(leaves.items()):
        rows, cols = var.shape.rows.size, var.shape.cols.size
        if _is_data(var):
            data[leaf] = sparse_value(rows, cols, var.sparsity, _rng(seed, name, size, leaf))
        else:
            for version in range(VERSIONS):
                params[version][leaf] = dense_array(
                    rows, cols, _rng(seed, name, size, leaf, version)
                )
    return FamilyInputs(workload, data, params, root_leaves)


def semiring_family(name: str, size: str, seed: int) -> FamilyInputs:
    """SSSP / REACH: the bundled generator (dyadic weights, ring zeros).

    The adjacency ``A`` of version 0 is pinned; the distance / frontier
    vector rotates.  ``two_hop`` binds only ``A``, so all its versions are
    the same request.
    """
    workload = get_semiring_workload(name, size)
    base = int(_rng(seed, name, size).integers(0, 2**31 - VERSIONS))
    generated = [workload.inputs(base + version) for version in range(VERSIONS)]
    data = {"A": generated[0]["A"]}
    params = [
        {leaf: value.data for leaf, value in inputs.items() if leaf != "A"}
        for inputs in generated
    ]
    root_leaves = {
        root_name: tuple(var.name for var in dag.variables(root))
        for root_name, root in workload.roots.items()
    }
    return FamilyInputs(workload, data, params, root_leaves)


def request_inputs(
    family: FamilyInputs, root_name: str, version: int
) -> Dict[str, MatrixValue]:
    """A request for ``root_name``: pinned data objects, *freshly wrapped* parameters.

    A new :class:`MatrixValue` around a pre-generated array is a new
    identity, which is all the serving tier's identity-keyed result cache
    looks at — so a caller that wants a guaranteed miss calls this per
    request, and one that wants a hit keeps the returned dict.
    """
    arrays = family.params[version % len(family.params)]
    return {
        leaf: family.data[leaf] if leaf in family.data else MatrixValue(arrays[leaf])
        for leaf in family.root_leaves[root_name]
    }


def all_roots(families: Mapping[str, FamilyInputs]) -> List[Tuple[str, str]]:
    """``(family, root)`` pairs in a fixed order."""
    return [
        (name, root_name)
        for name, family in families.items()
        for root_name in family.workload.roots
    ]
