"""ILP extraction (the Fig. 11 encoding).

For every admissible operator e-node a boolean variable ``B_op`` is created,
and for every e-class a boolean ``B_c``:

* ``B_r`` (the root class) must be selected;
* ``F(op)``: selecting an operator requires selecting all of its children's
  classes;
* ``G(c)``: selecting a class requires selecting at least one of its
  operators;
* the objective minimises ``Σ B_op · C_op`` where ``C_op`` is the nnz cost.

Because each ``B_op`` is charged once no matter how many selected parents
reference it, shared common subexpressions are costed exactly once — the
property the greedy extractor lacks (Fig. 10).

Two practical additions beyond the paper's figure:

* **acyclicity** — an e-graph can contain cyclic selections that satisfy
  F/G but do not correspond to any finite term; a standard MTZ-style level
  variable per class rules them out;
* **schema pruning** (Sec. 3.2) — variables are only generated for classes
  whose schema can be translated back to LA (``admissible_node``), which
  "prunes away a large number of invalid candidates and helps the solver".

The solver is HiGHS through :func:`scipy.optimize.milp`; the paper used
Gurobi.  A solve that hits the time limit keeps the solver's incumbent
(``solver_status="time_limit"``); only a solve that returns no solution
falls back to the greedy algorithm, so the optimizer always returns a plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import lil_matrix

from repro.cost.model import RACostModel, admissible_node
from repro.egraph.enode import ENode
from repro.egraph.graph import EGraph
from repro.extract.greedy import CostFn, ExtractionError, ExtractionResult, GreedyExtractor
from repro.ra.rexpr import RExpr

#: ``ILPStats.solver_status`` names of the ``milp`` status codes
_STATUS = {0: "optimal", 1: "time_limit"}


@dataclass
class ILPStats:
    """Diagnostics of one ILP solve."""

    num_variables: int
    num_constraints: int
    solver_status: str
    objective: Optional[float]
    used_fallback: bool


class ILPExtractor:
    """Extract the globally cheapest plan with an integer linear program."""

    def __init__(
        self,
        cost_fn: Optional[CostFn] = None,
        node_filter=admissible_node,
        time_limit: float = 10.0,
    ) -> None:
        self.cost_fn = cost_fn or RACostModel()
        self.node_filter = node_filter
        self.time_limit = time_limit
        self.last_stats: Optional[ILPStats] = None

    def extract(self, egraph: EGraph, root: int) -> ExtractionResult:
        """Extract the cheapest expression equivalent to ``root``."""
        root = egraph.find(root)

        class_ids = egraph.class_ids()
        class_index = {cid: i for i, cid in enumerate(class_ids)}
        ops: List[Tuple[int, ENode, float]] = []
        ops_by_class: Dict[int, List[int]] = {cid: [] for cid in class_ids}
        for cid in class_ids:
            for node in egraph.nodes(cid):
                if self.node_filter is not None and not self.node_filter(egraph, cid, node):
                    continue
                if any(egraph.find(child) == cid for child in node.children):
                    # Self-referential e-nodes can never be part of a finite term.
                    continue
                cost = self.cost_fn(egraph, cid, node)
                ops_by_class[cid].append(len(ops))
                ops.append((cid, node, cost))

        num_ops = len(ops)
        num_classes = len(class_ids)
        if num_ops == 0:
            return self._fallback(egraph, root, "no admissible operators")

        # variable layout: [B_op ... | B_class ... | level_class ...]
        num_vars = num_ops + 2 * num_classes
        level_offset = num_ops + num_classes
        big_m = float(num_classes + 1)

        objective = np.zeros(num_vars)
        for op_index, (_, _, cost) in enumerate(ops):
            objective[op_index] = cost

        rows: List[Dict[int, float]] = []
        lower: List[float] = []
        upper: List[float] = []

        def add_row(coeffs: Dict[int, float], lo: float, hi: float) -> None:
            rows.append(coeffs)
            lower.append(lo)
            upper.append(hi)

        # Root class must be selected.
        add_row({num_ops + class_index[root]: 1.0}, 1.0, 1.0)

        for op_index, (cid, node, _) in enumerate(ops):
            # F(op): B_op -> B_child for every child class.
            for child in node.children:
                child = egraph.find(child)
                add_row({op_index: 1.0, num_ops + class_index[child]: -1.0}, -math.inf, 0.0)
                # Acyclicity: level(parent) >= level(child) + 1 when op selected.
                add_row(
                    {
                        level_offset + class_index[child]: 1.0,
                        level_offset + class_index[cid]: -1.0,
                        op_index: big_m,
                    },
                    -math.inf,
                    big_m - 1.0,
                )

        for cid in class_ids:
            # G(c): B_c -> OR of its operators.
            coeffs = {num_ops + class_index[cid]: 1.0}
            for op_index in ops_by_class[cid]:
                coeffs[op_index] = coeffs.get(op_index, 0.0) - 1.0
            add_row(coeffs, -math.inf, 0.0)

        matrix = lil_matrix((len(rows), num_vars))
        for row_index, coeffs in enumerate(rows):
            for col, value in coeffs.items():
                matrix[row_index, col] = value

        integrality = np.zeros(num_vars)
        integrality[: num_ops + num_classes] = 1  # booleans; level vars stay continuous
        bounds_lower = np.zeros(num_vars)
        bounds_upper = np.ones(num_vars)
        bounds_upper[level_offset:] = big_m

        # Imported where it is called: ``scipy.optimize`` is a third of the
        # package's import time and memory, and only the ILP preset gets here.
        from scipy.optimize import Bounds, LinearConstraint, milp

        try:
            result = milp(
                c=objective,
                constraints=LinearConstraint(matrix.tocsc(), np.array(lower), np.array(upper)),
                integrality=integrality,
                bounds=Bounds(bounds_lower, bounds_upper),
                options={"time_limit": self.time_limit, "presolve": True},
            )
        except Exception as error:  # pragma: no cover - solver-side failures
            return self._fallback(egraph, root, f"solver error: {error}")

        # A time-limited solve (status 1) may still carry a feasible
        # incumbent; only a solve without any ``x`` falls back to greedy.
        if result.x is None:
            return self._fallback(egraph, root, f"solver status {result.status}")

        selection = result.x[:num_ops] > 0.5
        chosen: Dict[int, ENode] = {}
        for op_index, (cid, node, _) in enumerate(ops):
            if selection[op_index] and cid not in chosen:
                chosen[cid] = node
        self.last_stats = ILPStats(
            num_variables=num_vars,
            num_constraints=len(rows),
            solver_status=_STATUS.get(result.status, str(result.status)),
            objective=float(result.fun) if result.fun is not None else None,
            used_fallback=False,
        )
        try:
            expr = self._build(egraph, root, chosen, {}, set())
        except (ExtractionError, RecursionError) as error:
            return self._fallback(egraph, root, str(error) or type(error).__name__)
        return ExtractionResult(expr=expr, cost=float(result.fun), class_costs=None)

    # -- helpers -----------------------------------------------------------------
    def _build(
        self,
        egraph: EGraph,
        class_id: int,
        chosen: Dict[int, ENode],
        cache: Dict[int, RExpr],
        in_progress: set,
    ) -> RExpr:
        class_id = egraph.find(class_id)
        if class_id in cache:
            return cache[class_id]
        if class_id in in_progress:
            raise ExtractionError("cyclic ILP selection")
        node = chosen.get(class_id)
        if node is None:
            raise ExtractionError(f"ILP did not select an operator for class {class_id}")
        in_progress.add(class_id)
        expr = egraph.enode_to_term(
            node.canonicalize(egraph.find),
            lambda child: self._build(egraph, child, chosen, cache, in_progress),
        )
        in_progress.discard(class_id)
        cache[class_id] = expr
        return expr

    def _fallback(self, egraph: EGraph, root: int, reason: str) -> ExtractionResult:
        self.last_stats = ILPStats(
            num_variables=0,
            num_constraints=0,
            solver_status=f"fallback ({reason})",
            objective=None,
            used_fallback=True,
        )
        return GreedyExtractor(self.cost_fn, self.node_filter).extract(egraph, root)
