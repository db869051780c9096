"""Python source emitter: one function per *fused* region of a region plan.

Single-node regions need no generated code — they run as the tape's own
step closure (:func:`repro.runtime.tape.kernel_step`).  Only multi-node
regions are emitted, inside a ``build(rt)`` factory that closes the region
functions over the runtime namespace ``rt`` and returns them keyed by
region index, each with the tape's step signature ``fn(vals)``.

The emitted module is deterministic text — a pure function of the
:class:`~repro.runtime.codegen.regions.RegionPlan` — which is what makes
the compiled factory cacheable in-process (keyed by source hash).
Constants are *not* baked into the source; they live in the value vector,
so the source stays size-free and one cached module serves a whole
plan-template size ladder.

Bitwise-parity contract (the repo convention: ``np.array_equal`` against
the interpreter).  Every formula and kernel call comes from the op table
(:mod:`repro.runtime.optable`):

* interiors compute on raw dense ndarrays using the row's ``formula`` —
  exactly the kernel's arithmetic in the kernel's operand order
  (``l + -1.0 * r`` for subtraction, ``x * -1.0`` for negation, the same
  masked ``np.divide`` for division) — for finite data these are
  value-identical to any sparse detour the interpreter might have taken;
* at every boundary (a ``fold-root`` kernel call, or a chain value leaving
  the region) the emitted code wraps the raw array as the dense value
  ``rt.boundary(t)`` = ``MatrixValue(t)``: every kernel of a chain over
  dense operands returns a dense value (its op-table row's ``delivers``),
  so the kernel downstream sees the representation the tape hands it and
  accumulates in the same order;
* every region is guarded: if any elementwise operand is sparse at run
  time, ``rt.fallback`` executes the region with the interpreter kernels
  step by step.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

from repro.lang import expr as la
from repro.runtime.codegen.regions import (
    CODEGEN_VERSION,
    Operand,
    Region,
    RegionPlan,
)
from repro.runtime.optable import ELEMENTWISE, OP_TABLE, loop_of


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def emit_source(plan: RegionPlan, ring_name: str) -> str:
    """Emit the module source for one region plan (deterministic text)."""
    lines: List[str] = [
        f"# repro-codegen v{CODEGEN_VERSION} ring={ring_name} "
        f"regions={len(plan.regions)} fused={plan.fused_regions}",
        '"""Generated fused-region module - do not edit (see docs/codegen.md)."""',
        "",
        "import numpy as np",
        "",
        "",
        "def build(rt):",
    ]
    fused = [region for region in plan.regions if region.fused]
    for region in fused:
        lines.extend("    " + line for line in _emit_fused_region(region))
        lines.append("")
    entries = ", ".join(f"{r.index}: _region_{r.index}" for r in fused)
    lines.append(f"    return {{{entries}}}")
    lines.append("")
    return "\n".join(lines)


def _emit_fused_region(region: Region) -> List[str]:
    body: List[str] = [f"def _region_{region.index}(vals):"]
    # dense guard over every external operand an elementwise member reads
    for position in region.guard_positions:
        body.append(f"    v{position} = vals[{position}]")
    if region.guard_positions:
        guard = " or ".join(f"v{p}.is_sparse" for p in region.guard_positions)
        body.append(f"    if {guard}:")
        body.append(f"        return rt.fallback({region.index}, vals)")
    for position in region.guard_positions:
        body.append(f"    x{position} = v{position}.data")

    root, root_operands = region.schedule[-1]
    chain = list(region.schedule[:-1])
    root_is_elemwise = loop_of(root) == ELEMENTWISE
    if root_is_elemwise:
        chain.append((root, root_operands))
    for k, (node, operands) in enumerate(chain):
        body.append(f"    t{k} = {_formula(node, [_ref(op) for op in operands])}")
    if root_is_elemwise:
        body.append(f"    return rt.boundary(t{len(chain) - 1})")
    else:
        refs = [_boundary_ref(op) for op in root_operands]
        body.append(f"    return {_root_call(root, refs)}")
    return body


def _ref(operand: Operand) -> str:
    """Raw-ndarray reference for an interior expression."""
    kind, value = operand
    return f"t{value}" if kind == "tmp" else f"x{value}"


def _boundary_ref(operand: Operand) -> str:
    """MatrixValue reference for a kernel-call operand at a region boundary."""
    kind, value = operand
    return f"rt.boundary(t{value})" if kind == "tmp" else f"vals[{value}]"


def _formula(node: la.LAExpr, refs: Sequence[str]) -> str:
    """Raw-ndarray expression replicating the node's kernel bitwise."""
    payload = node.static
    return OP_TABLE[type(node)].formula.format(*refs, s=payload[0] if payload else None)


def _root_call(node: la.LAExpr, refs: Sequence[str]) -> str:
    """Interpreter-kernel call for a region root."""
    spec = OP_TABLE[type(node)]
    before, after = spec.statics(node)
    args = [repr(s) for s in before] + list(refs) + [repr(s) for s in after]
    return f"rt.k.{spec.kernel}({', '.join(args)})"
