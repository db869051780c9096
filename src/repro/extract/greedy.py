"""Greedy bottom-up extraction.

"This algorithm traverses the saturated graph bottom-up, picking the
cheapest operator in each class at every level" (Sec. 4.3).  The
implementation is the standard fixpoint formulation: the cost of an e-class
is the minimum over its admissible e-nodes of the node's own cost plus the
costs of its children's classes, iterated to convergence (the e-graph may
contain cycles through equivalences, which the fixpoint handles naturally by
leaving unproductive cycles at infinite cost).

Greedy extraction charges a shared e-class once per *use* when comparing
candidates, i.e. it assumes the best plan of a subexpression is also best in
every context — exactly the assumption the common-subexpression example of
Fig. 10 breaks, which is what the ILP extractor fixes.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.cost.model import RACostModel, admissible_node
from repro.egraph.enode import ENode
from repro.egraph.graph import EGraph
from repro.ra.rexpr import RExpr

#: signature of a node-cost function
CostFn = Callable[[EGraph, int, ENode], float]


class ExtractionError(RuntimeError):
    """Raised when no admissible expression can be extracted for the root."""


@dataclass
class ExtractionResult:
    """An extracted RA expression and its estimated cost."""

    expr: RExpr
    cost: float
    #: cost of every e-class that participates in the extracted plan
    class_costs: Dict[int, float] = None


class GreedyExtractor:
    """Pick the cheapest operator per e-class, bottom-up."""

    def __init__(self, cost_fn: Optional[CostFn] = None, node_filter=admissible_node) -> None:
        self.cost_fn = cost_fn or RACostModel()
        self.node_filter = node_filter

    def extract(self, egraph: EGraph, root: int) -> ExtractionResult:
        """Extract the cheapest expression equivalent to ``root``."""
        root = egraph.find(root)
        best_cost, best_node = self._fixpoint(egraph)
        if root not in best_cost or math.isinf(best_cost[root]):
            raise ExtractionError("no admissible expression for the root e-class")
        expr = self._build(egraph, root, best_node, {})
        return ExtractionResult(expr=expr, cost=best_cost[root], class_costs=best_cost)

    # -- internals --------------------------------------------------------------
    def _fixpoint(self, egraph: EGraph):
        best_cost: Dict[int, float] = {cid: math.inf for cid in egraph.class_ids()}
        best_node: Dict[int, ENode] = {}
        changed = True
        while changed:
            changed = False
            for class_id in egraph.class_ids():
                for node in egraph.nodes(class_id):
                    if self.node_filter is not None and not self.node_filter(egraph, class_id, node):
                        continue
                    child_total = 0.0
                    feasible = True
                    for child in node.children:
                        child = egraph.find(child)
                        child_cost = best_cost.get(child, math.inf)
                        if math.isinf(child_cost):
                            feasible = False
                            break
                        child_total += child_cost
                    if not feasible:
                        continue
                    total = self.cost_fn(egraph, class_id, node) + child_total
                    if total < best_cost[class_id] - 1e-12:
                        best_cost[class_id] = total
                        best_node[class_id] = node
                        changed = True
        return best_cost, best_node

    def _build(
        self,
        egraph: EGraph,
        class_id: int,
        best_node: Dict[int, ENode],
        cache: Dict[int, RExpr],
    ) -> RExpr:
        class_id = egraph.find(class_id)
        if class_id in cache:
            return cache[class_id]
        node = best_node.get(class_id)
        if node is None:
            raise ExtractionError(f"e-class {class_id} has no extractable expression")
        expr = egraph.enode_to_term(
            node.canonicalize(egraph.find),
            lambda child: self._build(egraph, child, best_node, cache),
        )
        cache[class_id] = expr
        return expr


class BestCostTable:
    """The greedy fixpoint's class costs, kept current while a graph saturates.

    This is the probe behind ``RunnerConfig.plateau``: cost only, no plan and
    no chosen node, so ties need no order and nodes are read unsorted.  Class
    costs only fall during saturation — a new e-node adds a choice, a merge
    keeps the tighter sparsity and the union of the choices — so the table of
    the previous call is a valid upper bound and :meth:`root_cost` relaxes
    only the classes touched since then, and the parents of any that improved.
    The first call sees every class as touched and is the full fixpoint.
    """

    def __init__(self, egraph: EGraph) -> None:
        self.egraph = egraph
        #: canonical class id -> cost; ids merged away since go stale, unread
        self.costs: Dict[int, float] = {}
        #: touch-log position of the last call
        self._position = 0
        # the pipeline's extractor defaults: ``RACostModel`` + ``admissible_node``
        defaults = GreedyExtractor()
        self._cost_fn, self._admissible = defaults.cost_fn, defaults.node_filter

    def root_cost(self) -> float:
        """What :meth:`GreedyExtractor.extract` would charge for ``egraph.roots``."""
        egraph, costs = self.egraph, self.costs
        find, inf = egraph.find, math.inf
        cost_fn, admissible = self._cost_fn, self._admissible
        # Ascending ids are children-first for freshly inserted terms.
        queue = deque(sorted(egraph.touched_since(self._position)))
        self._position = egraph.touch_position()
        queued = set(queue)
        while queue:
            class_id = queue.popleft()
            queued.discard(class_id)
            best = before = costs.get(class_id, inf)
            for node in egraph.stored_nodes(class_id):
                if not admissible(egraph, class_id, node):
                    continue
                total = cost_fn(egraph, class_id, node)
                for child in node.children:
                    total += costs.get(find(child), inf)
                if total < best:
                    best = total
            if best < before:
                costs[class_id] = best
                for parent in egraph.parent_classes(class_id):
                    parent = find(parent)
                    if parent not in queued:
                        queued.add(parent)
                        queue.append(parent)
        return sum(costs.get(find(root), inf) for root in egraph.roots)
