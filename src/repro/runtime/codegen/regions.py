"""Fusion planner: group a slot plan's tape steps into contraction regions.

The tape executor (:class:`repro.runtime.tape.TapePlan`) pays one Python
closure dispatch and one :class:`MatrixValue` allocation per plan node.  For chains of elementwise
operators over dense operands all of that is overhead: the chain can run as
a handful of raw-ndarray ufunc calls with no materialized
:class:`MatrixValue` intermediates at all.

This module decides *where* that is sound.  It takes the tape's own
linearization (:func:`repro.runtime.tape.linearize` — same positions, same
sharing) and groups maximal single-consumer elementwise chains into
**regions**, reading each operator's loop class from the op table
(:mod:`repro.runtime.optable`):

* an *interior* node is an ``elementwise`` operator consumed by exactly one
  other node of the same region;
* a region *root* is the consuming operator the chain folds into — either a
  further elementwise node with multiple consumers, or an order-sensitive
  ``fold-root`` reducer that the emitted code calls through the
  interpreter's own kernel;
* every other node (fused physical operators, layout moves, casts) becomes
  a single-node region that executes as the very step the tape would run —
  trivially bitwise-identical to it.

Zero-skipping discipline (COFFEE's ``ZeroLoopScheduler`` translated to this
runtime): a chain only fuses when every operand feeding it sits in the
``dense`` sparsity band (:func:`repro.canonical.fingerprint.sparsity_band`
over the plan's slot hints).  Sparse-hinted chains stay on the sparse-aware
interpreter kernels, which already skip zeros structurally; fusing them
would densify.  Band-level gating keeps the decision a pure function of the
plan *template*, so one emitted source serves a whole size ladder.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.canonical.fingerprint import sparsity_band
from repro.lang import expr as la
from repro.runtime.optable import (
    CONSTANT_TYPES,
    DENSE,
    ELEMENTWISE,
    FOLD_ROOT,
    FUSED_PHYSICAL,
    OP_TABLE,
    loop_of,
)
from repro.runtime.tape import Scheduled, linearize, node_label

#: bump when the region/emission semantics change; embedded in emitted
#: sources so a reader can tell which emitter wrote them
CODEGEN_VERSION = 3

#: operand reference inside a region: ``("val", position)`` reads the shared
#: value vector, ``("tmp", k)`` reads the k-th entry of the region schedule
Operand = Tuple[str, int]


@dataclass
class Region:
    """One contraction region: an optional elementwise chain plus its root.

    ``schedule`` lists ``(node, operands)`` in dependency order with the
    root node last; interiors never escape the region, only the root value
    is written back to the shared value vector at ``out_position``.
    """

    index: int
    out_position: int
    schedule: List[Tuple[la.LAExpr, Tuple[Operand, ...]]]
    #: positions of external values any *elementwise* member reads — these
    #: must be dense at run time for the emitted raw-ndarray body to be
    #: sound; the emitted guard falls back to the kernels otherwise
    guard_positions: Tuple[int, ...]
    #: input-slot indices the region transitively depends on (reuse keying)
    slot_deps: Tuple[int, ...]

    @property
    def root(self) -> la.LAExpr:
        return self.schedule[-1][0]

    @property
    def fused(self) -> bool:
        """True when this region actually fuses work (multi-node chain)."""
        return len(self.schedule) > 1

    @property
    def nodes(self) -> Tuple[la.LAExpr, ...]:
        return tuple(node for node, _ in self.schedule)

    def label(self) -> str:
        if not self.fused:
            return node_label(self.root)
        interior = "+".join(node_label(node) for node, _ in self.schedule[:-1])
        return f"Fused[{interior}->{node_label(self.root)}]"


@dataclass
class RegionPlan:
    """The fusion planner's output: constants, regions, and the layout."""

    n_slots: int
    #: total length of the value vector (slots + constants + region outputs)
    n_positions: int
    #: constant nodes materialized once per plan: ``(position, node)``
    consts: List[Tuple[int, la.LAExpr]]
    regions: List[Region]
    root_position: int

    @property
    def fused_regions(self) -> int:
        return sum(1 for region in self.regions if region.fused)

    @property
    def fused_operators(self) -> int:
        """Fused-work count matching the tape's ``fused_operators`` spirit:
        multi-node chains plus fused physical operators."""
        return sum(
            1
            for region in self.regions
            if region.fused or loop_of(region.root) == FUSED_PHYSICAL
        )

    def structure_digest(self) -> str:
        """Stable digest of the fusion structure (not the emitted text)."""
        parts: List[str] = [f"v{CODEGEN_VERSION}", f"slots={self.n_slots}"]
        for position, node in self.consts:
            parts.append(f"const@{position}:{_node_token(node)}")
        for region in self.regions:
            ops = ";".join(
                f"{_node_token(node)}({','.join(f'{k}{i}' for k, i in operands)})"
                for node, operands in region.schedule
            )
            parts.append(f"region@{region.out_position}:{ops}")
        parts.append(f"root={self.root_position}")
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


def _hoisted(entry: Scheduled, pinned: frozenset) -> bool:
    return bool(entry.slot_deps) and pinned.issuperset(entry.slot_deps)


def _node_token(node: la.LAExpr) -> str:
    """Canonical per-node token for digests (payload included)."""
    if isinstance(node, CONSTANT_TYPES):
        shape = node.shape
        return f"{type(node).__name__}[{node.value!r},{shape.rows.size},{shape.cols.size}]"
    before, after = OP_TABLE[type(node)].statics(node)
    return f"{type(node).__name__}{list(before + after)!r}"


def plan_regions(
    expr: la.LAExpr,
    n_slots: int,
    slot_sparsity: Optional[Mapping[int, Optional[float]]] = None,
    pinned: frozenset = frozenset(),
) -> RegionPlan:
    """Plan fusion regions for a slot-space expression.

    ``slot_sparsity`` maps slot index to the plan's sparsity hint (missing
    or ``None`` means dense).  A node only ``pinned`` slots determine never
    folds into a consumer that reads another slot: it stays the root of a
    region of its own, which the executable computes once per pinned value
    (:attr:`~repro.runtime.tape.TapePlan.hoisted`).  Raises :class:`~repro.runtime.engine.
    ExecutionError` for nodes without an op-table row, as the tape does.
    """
    hints: Mapping[int, Optional[float]] = slot_sparsity or {}
    schedule, root_position = linearize(expr, n_slots)

    # Split constants from operators and predict each value's density for
    # the fusion gate: a slot's from its hint, a step's from the
    # representation its op-table row delivers.  The prediction is
    # template-stable: only node types and sparsity *bands* flow in, never
    # runtime data, so one template always plans the same regions.  A
    # re-picked result counts as sparse, and a wrong "dense" merely routes a
    # region through its runtime guard to the interpreter fallback.
    consts: List[Tuple[int, la.LAExpr]] = []
    sched: List[Scheduled] = []
    dense: Dict[int, bool] = {
        slot: sparsity_band(hints.get(slot)) == "dense" for slot in range(n_slots)
    }
    for entry in schedule:
        if isinstance(entry.node, CONSTANT_TYPES):
            consts.append((entry.position, entry.node))
            # MatrixValue.filled(0.0, ...) materializes an empty CSR matrix
            predicted = not (
                isinstance(entry.node, la.FilledMatrix) and entry.node.value == 0.0
            )
        else:
            sched.append(entry)
            sparse = tuple(not dense[op] for op in entry.operands)
            predicted = OP_TABLE[type(entry.node)].delivers(entry.node, sparse) == DENSE
        dense[entry.position] = predicted

    # -- consumer counts (per occurrence; the plan root has an external one)
    consumers: Dict[int, List[int]] = {}
    for i, entry in enumerate(sched):
        for op in entry.operands:
            consumers.setdefault(op, []).append(i)
    consumers.setdefault(root_position, []).append(-1)

    # -- fusion decision: which scheduled nodes fold into their consumer
    fuse_into: Dict[int, int] = {}
    for i, entry in enumerate(sched):
        if loop_of(entry.node) != ELEMENTWISE:
            continue
        users = consumers.get(entry.position, [])
        if len(users) != 1 or users[0] == -1:
            continue
        consumer = sched[users[0]]
        if loop_of(consumer.node) not in (ELEMENTWISE, FOLD_ROOT):
            continue
        # zero-skipping gate: the chain value and everything feeding it must
        # sit in the dense band, otherwise the sparse-aware kernels win
        if not dense[entry.position]:
            continue
        if not all(dense[op] for op in entry.operands):
            continue
        if _hoisted(entry, pinned) and not _hoisted(consumer, pinned):
            continue
        fuse_into[i] = users[0]

    # -- region assignment (reverse order: consumers are scheduled later)
    region_root: Dict[int, int] = {}  # sched index -> sched index of its root
    for i in range(len(sched) - 1, -1, -1):
        target = fuse_into.get(i)
        if target is not None and target in region_root:
            region_root[i] = region_root[target]
        elif target is not None:
            region_root[i] = region_root.setdefault(target, target)
        else:
            region_root.setdefault(i, i)

    members: Dict[int, List[int]] = {}
    for i in range(len(sched)):
        members.setdefault(region_root[i], []).append(i)

    regions: List[Region] = []
    for root_idx in sorted(members):
        group = sorted(members[root_idx])
        group.remove(root_idx)
        group.append(root_idx)  # interiors in schedule order, root last
        local = {sched[i].position: k for k, i in enumerate(group[:-1])}
        region_schedule: List[Tuple[la.LAExpr, Tuple[Operand, ...]]] = []
        guard: List[int] = []
        for i in group:
            entry = sched[i]
            refs: List[Operand] = []
            for op in entry.operands:
                tmp = local.get(op)
                if tmp is not None:
                    refs.append(("tmp", tmp))
                else:
                    refs.append(("val", op))
                    if loop_of(entry.node) == ELEMENTWISE and op not in guard:
                        guard.append(op)
            region_schedule.append((entry.node, tuple(refs)))
        root_entry = sched[root_idx]
        regions.append(
            Region(
                index=len(regions),
                out_position=root_entry.position,
                schedule=region_schedule,
                guard_positions=tuple(guard),
                slot_deps=tuple(sorted(root_entry.slot_deps)),
            )
        )

    return RegionPlan(
        n_slots=n_slots,
        n_positions=n_slots + len(schedule),
        consts=consts,
        regions=regions,
        root_position=root_position,
    )
