"""Fused-region code generation for tape plans.

Lowers a slot-space plan to a tape whose steps are fusion regions — emitted,
cached, executable Python for the fused ones — with bitwise interpreter
parity, plus the columnwise batching analysis the serving tier uses to
stack same-fingerprint matvec requests into one matmat.  See
``docs/codegen.md``.
"""

from repro.runtime.codegen.batching import stackable_slot
from repro.runtime.codegen.emit import emit_source, source_digest
from repro.runtime.codegen.plan import (
    FusedPlan,
    build_executable,
    clear_module_cache,
    compile_fused,
)
from repro.runtime.codegen.regions import (
    CODEGEN_VERSION,
    Region,
    RegionPlan,
    plan_regions,
)

__all__ = [
    "CODEGEN_VERSION",
    "FusedPlan",
    "Region",
    "RegionPlan",
    "build_executable",
    "clear_module_cache",
    "compile_fused",
    "emit_source",
    "plan_regions",
    "source_digest",
    "stackable_slot",
]
