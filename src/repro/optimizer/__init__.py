"""The SPORES optimizer: lower → saturate → extract → lift (Fig. 13)."""

from repro.optimizer.config import OptimizerConfig
from repro.optimizer.pipeline import (
    OptimizationReport,
    PhaseTimes,
    PlanArtifact,
    compile_expression,
)
from repro.optimizer.derivation import DerivationResult, derive
from repro.optimizer.guards import TemplateGuard, derive_guard

__all__ = [
    "OptimizerConfig",
    "OptimizationReport",
    "PhaseTimes",
    "PlanArtifact",
    "compile_expression",
    "derive",
    "TemplateGuard",
    "derive_guard",
    "DerivationResult",
]
