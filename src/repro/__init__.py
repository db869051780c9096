"""SPORES reproduction: sum-product optimization via relational equality saturation.

This package reproduces the system described in

    Wang, Hutchison, Leang, Howe, Suciu.
    "SPORES: Sum-Product Optimization via Relational Equality Saturation
    for Large Scale Linear Algebra", VLDB 2020 (arXiv:2002.07951).

Sub-packages
------------
``repro.lang``       linear-algebra expression IR and DML-like parser
``repro.ra``         relational-algebra IR over K-relations
``repro.translate``  LA→RA lowering (R_LR) and RA→LA lifting
``repro.egraph``     e-graph engine with class invariants
``repro.rules``      relational equality rules R_EQ and the SystemML catalog
``repro.cost``       sparsity estimation and cost models
``repro.extract``    greedy and ILP plan extraction
``repro.canonical``  canonical forms and the completeness machinery
``repro.optimizer``  the end-to-end SPORES pipeline
``repro.runtime``    NumPy/SciPy execution engine with fused operators
``repro.systemml``   heuristic rule-based baseline optimizer
``repro.workloads``  ALS / GLM / SVM / MLR / PNMF workloads and data generators
``repro.serialize``  versioned plan codec and the persistent plan store
``repro.serve``      multi-threaded serving engine and warm-up CLI
``repro.obs``        observability: metrics registry, trace spans, profiling

Quickstart (Session API)
------------------------
The stable entry point is the compile-once / execute-many Session: compile
an expression into a reusable plan, then execute it against many inputs.
Recompiling the same workload *shape* — same operators, same dimension
sizes and sparsity hints, any input names — is a cache hit that skips
saturation entirely.

>>> from repro import Matrix, Vector, Sum, Session
>>> session = Session()
>>> X = Matrix("X", 10_000, 1_000, sparsity=0.01)
>>> u = Vector("u", X.shape.rows)
>>> v = Vector("v", X.shape.cols)
>>> plan = session.compile(Sum((X - u @ v.T) ** 2))
>>> print(plan.optimized)
>>> result = plan.run(X=x_vals, u=u_vals, v=v_vals)   # doctest: +SKIP

The pure pipeline underneath is :func:`compile_expression`: one expression
and one :class:`OptimizerConfig` in, one :class:`PlanArtifact` (optimized
plan + report) out.
"""

import logging as _logging

from repro.lang import (
    Dim,
    Shape,
    LAExpr,
    Matrix,
    Vector,
    RowVector,
    Scalar,
    const,
    Sum,
    RowSums,
    ColSums,
    parse_expr,
)
from repro.optimizer import (
    OptimizerConfig,
    PlanArtifact,
    compile_expression,
    derive,
)
from repro.api import (
    CacheStats,
    CompiledPlan,
    PlanBindingError,
    PlanCache,
    Session,
    TemplateGuard,
    TemplateGuardError,
)
from repro.serve import ServingEngine

# Library etiquette: the package logs through the "repro" logger tree but
# stays silent unless the application opts in (repro.obs.configure_logging
# or its own handlers).
_logging.getLogger("repro").addHandler(_logging.NullHandler())

__version__ = "1.4.0"

__all__ = [
    "Dim",
    "Shape",
    "LAExpr",
    "Matrix",
    "Vector",
    "RowVector",
    "Scalar",
    "const",
    "Sum",
    "RowSums",
    "ColSums",
    "parse_expr",
    "OptimizerConfig",
    "derive",
    "Session",
    "ServingEngine",
    "CompiledPlan",
    "PlanBindingError",
    "TemplateGuard",
    "TemplateGuardError",
    "PlanCache",
    "CacheStats",
    "PlanArtifact",
    "compile_expression",
    "__version__",
]
