"""FusedPlan: a tape whose steps are fusion regions, and how to build one.

``compile_fused`` is the entry point: it plans regions, emits the module
source for the fused ones, compiles it once (module factories are memoized
in-process by source hash) and returns a :class:`FusedPlan` — or ``None``
for a non-real semiring, whose dense ring-generic kernels own their own
dispatch.  ``build_executable`` wraps that decision for callers that just
want *the* executor of a plan: fused when the ring allows, the plain
:class:`~repro.runtime.tape.TapePlan` otherwise.

A :class:`FusedPlan` *is* a :class:`TapePlan`: it installs one step per
region and inherits the execution loops, so reuse, fault injection and
profiling operate at region granularity with no code of their own.  A
single-node region's step is the very closure the plain tape would run; a
fused region's step is its emitted function.  Every fused region also owns
an interpreter fallback built from the same op-table rows: when its dense
guard trips at run time (a hinted-dense input arrived sparse), the region
executes step-by-step through the kernels and stays bitwise identical to
the tape.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Union

from repro.lang import expr as la
from repro.runtime import kernels
from repro.runtime.codegen.emit import emit_source, source_digest
from repro.runtime.codegen.regions import Region, RegionPlan, plan_regions
from repro.runtime.data import MatrixValue
from repro.runtime.engine import constant_value
from repro.runtime.layout import row_major_reads
from repro.runtime.optable import OP_TABLE
from repro.runtime.semiring import Semiring, resolve_semiring
from repro.runtime.tape import StepFn, TapePlan, TapeStep, kernel_step

#: ``build(rt)`` of an emitted module: region index -> step function
ModuleFactory = Callable[["_Runtime"], Dict[int, StepFn]]

_CACHE_LIMIT = 256
_MODULE_CACHE: "OrderedDict[str, ModuleFactory]" = OrderedDict()
_CACHE_LOCK = threading.Lock()


class _Runtime:
    """The ``rt`` namespace emitted region functions close over."""

    def __init__(
        self,
        kernel_set: kernels.KernelSet,
        fallback: Callable[[int, List[Optional[MatrixValue]]], MatrixValue],
    ) -> None:
        self.k = kernel_set
        self.fallback = fallback
        #: a chain value leaving the region: dense, as every kernel of a
        #: chain over dense operands returns it
        self.boundary = MatrixValue
        self.ediv = kernels.safe_divide  # the formula under kernels.elem_div
        for name, fn in kernels._UNARY_KERNELS.items():
            setattr(self, f"u_{name}", fn)


def _build_fallback(
    region: Region, kernel_set: kernels.KernelSet
) -> Callable[[List[Optional[MatrixValue]]], MatrixValue]:
    """Step-by-step interpreter execution of one region (guard fallback)."""
    steps = [
        (OP_TABLE[type(node)].bind(node, kernel_set), operands)
        for node, operands in region.schedule
    ]

    def run_region(vals: List[Optional[MatrixValue]]) -> MatrixValue:
        tmps: List[Optional[MatrixValue]] = [None] * len(steps)
        value: Optional[MatrixValue] = None
        for k, (fn, operands) in enumerate(steps):
            args = [
                tmps[ref] if kind == "tmp" else vals[ref] for kind, ref in operands
            ]
            value = fn(*args)
            tmps[k] = value
        assert value is not None
        return value

    return run_region


class FusedPlan(TapePlan):
    """A slot-space plan compiled to fused regions."""

    def __init__(
        self,
        region_plan: RegionPlan,
        factory: ModuleFactory,
        source: str,
        ring: Semiring,
        pinned: frozenset = frozenset(),
    ) -> None:
        self.ring = ring
        self.n_slots = region_plan.n_slots
        self.pinned = pinned
        #: the emitted module text the fused regions were compiled from
        self.source = source
        #: how many region executions took the interpreter fallback
        self.fallback_runs = 0
        self._plan = region_plan
        kernel_set = kernels.for_ring(ring)
        self._fallbacks = {
            region.index: _build_fallback(region, kernel_set)
            for region in region_plan.regions
            if region.fused
        }
        emitted = factory(_Runtime(kernel_set, self._run_fallback))
        steps: List[TapeStep] = []
        for region in region_plan.regions:
            if region.fused:
                fn = emitted[region.index]
            else:
                node, operands = region.schedule[0]
                fn = kernel_step(node, [position for _, position in operands], kernel_set)
            steps.append(
                TapeStep(
                    fn, region.out_position, region.slot_deps, region.nodes, region.label()
                )
            )
        self._load(
            steps,
            region_plan.root_position,
            region_plan.n_positions,
            region_plan.fused_operators,
            prefill=[
                (position, constant_value(node, kernel_set))
                for position, node in region_plan.consts
            ],
        )

    def _run_fallback(
        self, region_index: int, vals: List[Optional[MatrixValue]]
    ) -> MatrixValue:
        self.fallback_runs += 1
        return self._fallbacks[region_index](vals)

    @property
    def fused_regions(self) -> int:
        return self._plan.fused_regions

    @property
    def tape_steps(self) -> int:
        # the linearization is shared: every non-slot position is a tape step
        return self._plan.n_positions - self.n_slots


def clear_module_cache() -> None:
    """Drop every in-process compiled module (tests / cache-bust tooling)."""
    with _CACHE_LOCK:
        _MODULE_CACHE.clear()


def _cached_factory(source: str) -> ModuleFactory:
    key = source_digest(source)  # the ring is part of the source header
    with _CACHE_LOCK:
        cached = _MODULE_CACHE.get(key)
        if cached is not None:
            _MODULE_CACHE.move_to_end(key)
            return cached
    namespace: Dict[str, object] = {}
    code = compile(source, f"<repro-codegen:{key[:12]}>", "exec")
    exec(code, namespace)  # noqa: S102 - our own deterministic emitter output
    factory: ModuleFactory = namespace["build"]  # type: ignore[assignment]
    with _CACHE_LOCK:
        _MODULE_CACHE[key] = factory
        while len(_MODULE_CACHE) > _CACHE_LIMIT:
            _MODULE_CACHE.popitem(last=False)
    return factory


def compile_fused(
    expr: la.LAExpr,
    n_slots: int,
    ring: Union[str, Semiring, None] = None,
    slot_sparsity: Optional[Mapping[int, Optional[float]]] = None,
    pinned: frozenset = frozenset(),
) -> Optional[FusedPlan]:
    """Compile a slot-space plan to a :class:`FusedPlan`.

    ``None`` means "run the plain tape": the ring is not real.  ``pinned``
    slots make the plan hoist the regions only they determine.
    """
    resolved_ring = resolve_semiring(ring)
    if not resolved_ring.is_real:
        return None
    region_plan = plan_regions(expr, n_slots, slot_sparsity, pinned)
    source = emit_source(region_plan, resolved_ring.name)
    factory = _cached_factory(source)
    return FusedPlan(region_plan, factory, source, resolved_ring, pinned)


def build_executable(
    expr: la.LAExpr,
    n_slots: int,
    ring: Union[str, Semiring, None] = None,
    slot_sparsity: Optional[Mapping[int, Optional[float]]] = None,
    pinned: frozenset = frozenset(),
) -> TapePlan:
    """The executor of a slot plan: fused when the ring allows, tape otherwise.

    A ``pinned`` real plan first gets its layout steps
    (:func:`~repro.runtime.layout.row_major_reads`), which it hoists."""
    if pinned and resolve_semiring(ring).is_real:
        expr = row_major_reads(expr)
    fused = compile_fused(
        expr, n_slots, ring=ring, slot_sparsity=slot_sparsity, pinned=pinned
    )
    if fused is not None:
        return fused
    return TapePlan(expr, n_slots, ring=ring, pinned=pinned)
