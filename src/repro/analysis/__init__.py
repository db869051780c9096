"""Static analysis over the optimizer's trust boundary.

Three passes, one CLI (``python -m repro.analysis``):

* :mod:`repro.analysis.rules_audit` — differential soundness audit of both
  rewrite catalogs over four semirings, emitting the ring-dependence matrix
  (``analysis/rule_matrix.json``) the future semiring-generic engine gates
  rule sets by;
* :mod:`repro.analysis.plan_lint` — structural checks over LA expressions,
  :class:`~repro.api.plan.PlanEntry`\\ s, compiled tapes and whole plan
  stores, including the ``keep_only_improvements`` cost-monotonicity
  invariant;
* :mod:`repro.analysis.concurrency_lint` — AST lock-discipline and
  nondeterminism checks over the package source.

Findings are suppressed only through a justification-carrying baseline file
(:mod:`repro.analysis.report`); CI runs ``--check`` and fails on anything
new.
"""

from repro.analysis.report import AnalysisReport, Baseline, BaselineError, Finding
from repro.runtime.semiring import (
    AUDIT_SEMIRINGS,
    BOOL_OR_AND,
    MAX_TIMES,
    MIN_PLUS,
    REAL,
    SEMIRINGS_BY_NAME,
    Semiring,
)

__all__ = [
    "AnalysisReport",
    "AUDIT_SEMIRINGS",
    "Baseline",
    "BaselineError",
    "BOOL_OR_AND",
    "Finding",
    "MAX_TIMES",
    "MIN_PLUS",
    "REAL",
    "SEMIRINGS_BY_NAME",
    "Semiring",
]
