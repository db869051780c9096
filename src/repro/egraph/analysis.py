"""Class invariants (the paper's Sec. 3.2) as an e-graph analysis.

Every e-class carries a :class:`ClassData` record holding the three
invariants SPORES tracks:

* **schema** — the set of free attributes.  Equivalent RA expressions must
  have the same schema, so merging two classes with different schemas is a
  bug (and is asserted against).  The schema also powers the guard of rule 3
  (``i ∉ Attr(A)``) and the extraction-time pruning of classes with more
  than two free attributes.
* **constant** — if every expression in the class evaluates to a known
  scalar, its value.  As soon as a class is known constant the analysis adds
  the literal e-node to the class, which integrates constant folding with
  the rest of the rewrites ("modify" hook, exactly as described for egg's
  metadata API).
* **sparsity** — the conservative nnz/size estimate of Fig. 12.  Merging two
  classes keeps the tighter (smaller) estimate, improving the cost model as
  saturation proves more expressions equal.

In addition to the paper's three invariants the analysis tracks **bound** —
the set of index *names* bound by aggregates anywhere inside any member of
the class.  It over-approximates across members and is used by the
capture-avoiding guard of the ``A * Σ_i B = Σ_i (A * B)`` rewrite (rule 3):
an index may only be pushed across a factor that mentions it neither free
nor bound, which keeps every expression in the graph well-scoped without a
renaming mechanism.

It also tracks **pinned** — whether some member of the class reads only
inputs named in :attr:`EGraph.pinned_vars` (and literals): the value is
fixed for as long as those inputs are the same objects, so the cost model
charges a node over pinned classes once rather than per run.  With no
pinned input the flag is ``False`` everywhere and nothing else changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Optional, TYPE_CHECKING

from repro.egraph.enode import ENode, OP_ADD, OP_FUSED, OP_JOIN, OP_LIT, OP_SUM, OP_VAR
from repro.ra.attrs import Attr

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.egraph.graph import EGraph


class SchemaMismatchError(RuntimeError):
    """Two e-classes with different schemas were asserted equal."""


@dataclass(frozen=True)
class ClassData:
    """Invariant data attached to every e-class."""

    schema: FrozenSet[Attr]
    constant: Optional[float]
    sparsity: float
    bound: FrozenSet[str] = frozenset()
    pinned: bool = False

    @property
    def arity(self) -> int:
        return len(self.schema)

    @cached_property
    def schema_names(self) -> FrozenSet[str]:
        return frozenset(attr.name for attr in self.schema)

    @cached_property
    def mentioned_names(self) -> FrozenSet[str]:
        """Every index name a member mentions, free or bound."""
        return self.schema_names | self.bound


#: Default sparsity assumed for inputs without a hint (fully dense).
DEFAULT_SPARSITY = 1.0


class RAAnalysis:
    """The schema / constant / sparsity analysis over RA e-nodes."""

    def make(self, egraph: "EGraph", node: ENode) -> ClassData:
        """Compute the invariant data of a single e-node from its children."""
        if node.op == OP_VAR:
            name, attrs = node.payload
            sparsity = egraph.var_sparsity.get(name, DEFAULT_SPARSITY)
            pinned = name in egraph.pinned_vars
            return ClassData(frozenset(attrs), None, sparsity, frozenset(), pinned)
        if node.op == OP_LIT:
            value = float(node.payload)
            pinned = bool(egraph.pinned_vars)
            return ClassData(frozenset(), value, 0.0 if value == 0.0 else 1.0, frozenset(), pinned)

        child_data = [egraph.data(c) for c in node.children]
        bound: FrozenSet[str] = frozenset()
        for data in child_data:
            bound = bound | data.bound
        pinned = bool(egraph.pinned_vars) and all(data.pinned for data in child_data)
        if node.op == OP_JOIN:
            schema: FrozenSet[Attr] = frozenset()
            for data in child_data:
                schema = schema | data.schema
            constant = None
            if all(d.constant is not None for d in child_data) and not schema:
                constant = math.prod(d.constant for d in child_data)
            sparsity = min(d.sparsity for d in child_data)
            return ClassData(schema, constant, sparsity, bound, pinned)
        if node.op == OP_ADD:
            schema = child_data[0].schema
            constant = None
            if all(d.constant is not None for d in child_data) and not schema:
                constant = sum(d.constant for d in child_data)
            sparsity = min(1.0, sum(d.sparsity for d in child_data))
            return ClassData(schema, constant, sparsity, bound, pinned)
        if node.op == OP_SUM:
            indices: FrozenSet[Attr] = node.payload
            (data,) = child_data
            schema = data.schema - indices
            agg_size = 1
            for attr in indices:
                agg_size *= attr.size if attr.size is not None else 1
            # Σ_i c is |i| copies of c: only c = 0 folds without baking an
            # extent into the class (rule 5 keeps the rest as Σ_i 1_i terms).
            constant = 0.0 if data.constant == 0.0 else None
            sparsity = min(1.0, agg_size * data.sparsity)
            bound = bound | frozenset(a.name for a in indices)
            return ClassData(schema, constant, sparsity, bound, pinned)
        if node.op == OP_FUSED:
            # Only ever merged into its definition's class, whose (tighter)
            # estimate the merge keeps: dense is the sound bound here.
            fusion = node.payload
            return ClassData(fusion.schema, None, 1.0, bound | fusion.bound, pinned)
        raise ValueError(f"unknown operator {node.op!r}")

    def merge(self, left: ClassData, right: ClassData) -> ClassData:
        """Merge the invariants of two classes being unioned."""
        left_names = frozenset(a.name for a in left.schema)
        right_names = frozenset(a.name for a in right.schema)
        if left_names != right_names:
            raise SchemaMismatchError(
                f"merged classes have different schemas: {sorted(left_names)} vs {sorted(right_names)}"
            )
        constant = left.constant if left.constant is not None else right.constant
        # Keep attribute sizes if only one side has them.
        schema = left.schema if _has_sizes(left.schema) else right.schema
        return ClassData(
            schema,
            constant,
            min(left.sparsity, right.sparsity),
            left.bound | right.bound,
            left.pinned or right.pinned,
        )

    def modify(self, egraph: "EGraph", class_id: int) -> None:
        """Constant-fold: materialise a literal e-node for constant classes."""
        data = egraph.data(class_id)
        if data.constant is not None and not data.schema:
            literal = ENode(OP_LIT, float(data.constant), ())
            egraph.add_enode_to_class(literal, class_id)


def _has_sizes(schema: FrozenSet[Attr]) -> bool:
    return all(attr.size is not None for attr in schema)
