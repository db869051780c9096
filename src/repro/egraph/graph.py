"""The e-graph: a congruence-closed store of equivalent RA expressions.

The implementation follows egg's design (which SPORES builds on), extended
with the index structures that make e-matching *incremental* rather than a
whole-graph scan per rule per iteration:

* e-nodes are hash-consed, so every distinct operator-over-classes exists at
  most once in the whole graph;
* e-classes are disjoint sets of e-nodes managed by a union-find;
* **operator index** — the graph maintains ``op -> {canonical class ids}``
  (:meth:`EGraph.classes_with_op`) plus per-class operator buckets
  (:meth:`EGraph.nodes_by_op`).  Both are updated in place by ``add``,
  ``merge`` and the repair pass instead of being rebuilt by scans, so a rule
  that matches on ``sum`` nodes touches exactly the classes that contain
  one;
* **dirty tracking** — every structural or analysis change to a class is
  appended to a monotone touch log.  A searcher records its log position
  (:meth:`EGraph.touch_position`) and later asks for the canonical ids of
  everything touched since (:meth:`EGraph.touched_since`), which is what
  lets the runner re-match only changed regions of the graph;
* **live counters** — ``num_enodes``/``num_classes`` are O(1) counters
  maintained on add/merge/repair (the former full hash-cons scan dominated
  saturation profiles).  ``num_enodes`` may over-approximate between a merge
  and the next ``rebuild`` (congruent duplicates not collapsed yet) and is
  exact on a clean graph;
* ``merge`` defers congruence maintenance to an explicit ``rebuild`` pass
  (deferred, batched rebuilding), which processes a worklist of dirty
  classes, re-canonicalises their nodes *and* the stored forms of their
  parent e-nodes (so a clean graph holds only canonical e-nodes), and
  performs the upward merges that congruence closure demands;
* parent back-pointers are stored as a dict keyed by the parent e-node, so
  repeated ``add``/``merge`` cannot accumulate duplicate entries; congruent
  parents discovered while merging are queued on a deferred-merge worklist
  that ``rebuild`` drains;
* every e-class carries analysis data (schema, constant, sparsity) that is
  recomputed for new nodes, merged on unions, and propagated to parents when
  it improves (class invariants, Sec. 3.2).  Analysis improvements also
  count as touches, since they can enable guarded rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.egraph.analysis import ClassData, RAAnalysis
from repro.egraph.enode import ENode, OP_ADD, OP_FUSED, OP_JOIN, OP_LIT, OP_SUM, OP_VAR
from repro.egraph.unionfind import UnionFind
from repro.ra.rexpr import RAdd, RExpr, RFused, RJoin, RLit, RSum, RVar, radd, rjoin, rsum


@dataclass
class EClass:
    """One equivalence class of e-nodes.

    ``nodes`` and the per-operator buckets in ``by_op`` are insertion-ordered
    dicts used as ordered sets, which keeps match enumeration deterministic
    without any sorting.  ``parents`` maps each parent e-node (canonical at
    insertion time) to its e-class id; keying by the e-node dedups the
    unbounded duplicate accumulation the old list representation suffered.
    """

    id: int
    nodes: Dict[ENode, None] = field(default_factory=dict)
    parents: Dict[ENode, int] = field(default_factory=dict)
    by_op: Dict[str, Dict[ENode, None]] = field(default_factory=dict)
    data: Optional[ClassData] = None


class EGraph:
    """An e-graph over RA e-nodes with schema/constant/sparsity invariants."""

    def __init__(self, analysis: Optional[RAAnalysis] = None) -> None:
        self.analysis = analysis or RAAnalysis()
        self._uf = UnionFind()
        #: ``find(class_id)`` — canonical id of the e-class containing
        #: ``class_id``.  Bound straight to the union-find: it is the most
        #: called function of a saturation run, and a forwarding method
        #: doubles its cost.
        self.find = self._uf.find
        self._classes: Dict[int, EClass] = {}
        self._hashcons: Dict[ENode, int] = {}
        #: sparsity hints for named input tensors (consulted by the analysis)
        self.var_sparsity: Dict[str, float] = {}
        #: names of the pinned input tensors (the ``pinned`` analysis);
        #: set before the first ``add_term``, empty for an unpinned compile
        self.pinned_vars: FrozenSet[str] = frozenset()
        self._pending: List[int] = []
        self._analysis_pending: List[int] = []
        #: congruent parent classes discovered while merging parent dicts;
        #: drained by ``rebuild`` before repairing
        self._deferred_merges: List[Tuple[int, int]] = []
        #: classes whose stored node forms may have gone stale (a child
        #: merged); re-canonicalised in bulk at the end of ``rebuild``
        self._stale: Dict[int, None] = {}
        #: operator index: op -> ordered set of canonical class ids that
        #: contain at least one e-node with that operator
        self._op_classes: Dict[str, Dict[int, None]] = {}
        #: total stored e-nodes (== canonical distinct e-nodes once clean)
        self._enode_count = 0
        #: append-only log of touched class ids (see ``touched_since``)
        self._touch_log: List[int] = []
        #: number of merges performed since construction (for convergence checks)
        self.merges_performed = 0
        #: class ids of the terms inserted through ``add_term`` — what an
        #: extractor will be asked for.  Ids as returned at insertion: read
        #: them through ``find``.
        self.roots: List[int] = []
        #: fused e-node -> class of its definition, for every
        #: :class:`~repro.ra.rexpr.RFused` ``add_term`` met.  Kept aside, not
        #: added: whether a fused operator may enter the graph depends on the
        #: ring, and the ``fuse`` rule (:mod:`repro.rules.relational`) that
        #: adds them is gated by it.  Ids as at insertion: read them through
        #: ``find``.
        self.fusions: Dict[ENode, int] = {}

    # -- basic queries ---------------------------------------------------------
    def data(self, class_id: int) -> ClassData:
        """Analysis data of an e-class."""
        return self._classes[self.find(class_id)].data

    def class_ids(self) -> List[int]:
        """All canonical e-class ids (merged-away ids are evicted eagerly)."""
        return list(self._classes)

    def nodes(self, class_id: int) -> List[ENode]:
        """Canonicalised e-nodes of a class, in a deterministic order.

        On a clean graph (no pending rebuild work) the stored nodes are
        already canonical and are returned without re-canonicalising; the
        ordering uses :attr:`ENode.sort_key` rather than ``repr``, whose
        string formatting used to dominate profiles.
        """
        eclass = self._classes[self.find(class_id)]
        if self.is_clean:
            canonical: Iterable[ENode] = eclass.nodes
        else:
            canonical = {node.canonicalize(self.find): None for node in eclass.nodes}
        return sorted(canonical, key=lambda node: node.sort_key)

    def legacy_nodes(self, class_id: int) -> List[ENode]:
        """The pre-index node access path, kept as a test reference.

        Before the operator index, stored node forms were lazily stale, so
        every read had to re-canonicalise the whole class and impose an
        order by formatting ``repr`` strings.  The full-scan searcher built
        on this is what the search-equivalence tests
        (``tests/unit/test_ematch_index.py``) compare the index against.
        """
        eclass = self._classes[self.find(class_id)]
        canonical = {node.canonicalize(self.find) for node in eclass.nodes}
        return sorted(canonical, key=repr)

    @property
    def is_clean(self) -> bool:
        """Whether all deferred congruence/analysis work has been rebuilt."""
        return not (
            self._pending
            or self._analysis_pending
            or self._deferred_merges
            or self._stale
        )

    def num_classes(self) -> int:
        return len(self._classes)

    def num_enodes(self) -> int:
        """Number of e-nodes (O(1); exact when clean, an upper bound between
        a merge and the next ``rebuild``)."""
        return self._enode_count

    def equiv(self, a: int, b: int) -> bool:
        """Whether two class ids have been proven equal."""
        return self._uf.same(a, b)

    # -- operator index --------------------------------------------------------
    def classes_with_op(self, op: str) -> List[int]:
        """Canonical ids of the classes containing at least one ``op`` node."""
        index = self._op_classes.get(op)
        return list(index) if index else []

    def stored_nodes(self, class_id: int) -> Collection[ENode]:
        """All e-nodes of one class, unordered (stored forms; canonical when
        clean).  A live view like :meth:`nodes_by_op`; :meth:`nodes` is the
        sorted copy for callers whose result depends on the order."""
        return self._classes[self.find(class_id)].nodes.keys()

    def parent_classes(self, class_id: int) -> Collection[int]:
        """Ids (read them through ``find``) of the classes holding an e-node
        with ``class_id`` as a child.  A live view."""
        return self._classes[self.find(class_id)].parents.values()

    def nodes_by_op(self, class_id: int, op: str) -> Collection[ENode]:
        """The ``op`` e-nodes of one class (stored forms; canonical when clean).

        A live read-only view of the bucket, not a copy: searchers read
        thousands of buckets per iteration and none can change while they
        do.  Copy it (``list(...)``) to keep it across an ``add``/``merge``.
        """
        bucket = self._classes[self.find(class_id)].by_op.get(op)
        return bucket.keys() if bucket else ()

    # -- dirty tracking --------------------------------------------------------
    def touch_position(self) -> int:
        """Current position in the touch log (pass to ``touched_since``)."""
        return len(self._touch_log)

    def touched_since(self, position: int) -> FrozenSet[int]:
        """Canonical ids of every class touched at or after ``position``.

        A class is *touched* when it gains an e-node, wins a merge, has its
        stored nodes re-canonicalised by repair, or its analysis data
        improves — i.e. whenever new matches rooted at it (or at a parent
        that looks one level down into it) may have appeared.
        """
        return frozenset(map(self.find, self._touch_log[position:]))

    def _touch(self, class_id: int) -> None:
        self._touch_log.append(class_id)

    # -- index maintenance helpers ---------------------------------------------
    def _attach_node(self, eclass: EClass, node: ENode) -> None:
        """Record ``node`` in a class's node set, buckets, index and counter."""
        if node in eclass.nodes:
            return
        eclass.nodes[node] = None
        eclass.by_op.setdefault(node.op, {})[node] = None
        self._op_classes.setdefault(node.op, {})[eclass.id] = None
        self._enode_count += 1
        self._touch(eclass.id)

    def _canonicalize_nodes(self, class_id: int) -> None:
        """Re-canonicalise one class's stored nodes (collapsing duplicates)."""
        class_id = self.find(class_id)
        eclass = self._classes[class_id]
        new_nodes: Dict[ENode, None] = {}
        for node in eclass.nodes:
            new_nodes[node.canonicalize(self.find)] = None
        if new_nodes.keys() != eclass.nodes.keys():
            self._enode_count -= len(eclass.nodes) - len(new_nodes)
            eclass.nodes = new_nodes
            by_op: Dict[str, Dict[ENode, None]] = {}
            for node in new_nodes:
                by_op.setdefault(node.op, {})[node] = None
            eclass.by_op = by_op
            self._touch(class_id)

    def _merge_parent_entry(self, parents: Dict[ENode, int], node: ENode, class_id: int) -> None:
        """Insert a parent entry, deferring the merge of congruent parents."""
        existing = parents.get(node)
        if existing is None:
            parents[node] = class_id
        elif not self._uf.same(existing, class_id):
            self._deferred_merges.append((existing, class_id))

    # -- construction ----------------------------------------------------------
    def add(self, node: ENode) -> int:
        """Add an e-node, returning the id of its e-class (existing or new)."""
        node = node.canonicalize(self.find)
        existing = self._hashcons.get(node)
        if existing is not None:
            return self.find(existing)
        class_id = self._uf.make_set()
        eclass = EClass(id=class_id)
        self._classes[class_id] = eclass
        self._hashcons[node] = class_id
        self._attach_node(eclass, node)
        for child in node.children:
            self._classes[self.find(child)].parents[node] = class_id
        eclass.data = self.analysis.make(self, node)
        self.analysis.modify(self, class_id)
        return self.find(class_id)

    def add_enode_to_class(self, node: ENode, class_id: int) -> None:
        """Assert that ``node`` belongs to ``class_id`` (used by analyses)."""
        node = node.canonicalize(self.find)
        class_id = self.find(class_id)
        existing = self._hashcons.get(node)
        if existing is not None:
            if not self._uf.same(existing, class_id):
                self.merge(existing, class_id)
            return
        self._hashcons[node] = class_id
        self._attach_node(self._classes[class_id], node)
        for child in node.children:
            self._merge_parent_entry(self._classes[self.find(child)].parents, node, class_id)

    def merge(self, a: int, b: int) -> int:
        """Assert that two e-classes are equal; returns the surviving id."""
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return root_a
        winner = self._uf.union(root_a, root_b)
        loser = root_b if winner == root_a else root_a
        self.merges_performed += 1

        winner_class = self._classes[winner]
        loser_class = self._classes.pop(loser)
        # Move nodes and operator buckets wholesale, keeping the counter in
        # step (shared stored forms collapse immediately; congruent-but-not-
        # identical forms collapse at the next repair).
        for node in loser_class.nodes:
            if node in winner_class.nodes:
                self._enode_count -= 1
            else:
                winner_class.nodes[node] = None
        for op, bucket in loser_class.by_op.items():
            winner_class.by_op.setdefault(op, {}).update(bucket)
            index = self._op_classes.setdefault(op, {})
            index.pop(loser, None)
            index[winner] = None
        for parent_node, parent_class in loser_class.parents.items():
            self._merge_parent_entry(winner_class.parents, parent_node, parent_class)

        old_data = winner_class.data
        winner_class.data = self.analysis.merge(winner_class.data, loser_class.data)
        self.analysis.modify(self, winner)
        self._pending.append(winner)
        self._touch(winner)
        if winner_class.data != old_data or winner_class.data != loser_class.data:
            self._analysis_pending.append(winner)
        return winner

    def rebuild(self) -> None:
        """Restore congruence closure and re-propagate analysis data.

        One call processes *all* deferred work in batched rounds: congruent
        parents queued during merges, the repair worklist, then analysis
        propagation — exactly egg's deferred-rebuild loop.  Once congruence
        reaches a fixpoint, classes whose stored node forms went stale are
        re-canonicalised in bulk, so a clean graph holds only canonical
        e-nodes and the operator buckets can be matched without rewriting.
        """
        while True:
            while self._pending or self._analysis_pending or self._deferred_merges:
                while self._deferred_merges:
                    deferred_a, deferred_b = self._deferred_merges.pop()
                    self.merge(deferred_a, deferred_b)
                todo = {self.find(cid) for cid in self._pending}
                self._pending.clear()
                for class_id in todo:
                    self._repair(class_id)
                analysis_todo = {self.find(cid) for cid in self._analysis_pending}
                self._analysis_pending.clear()
                for class_id in analysis_todo:
                    self._propagate_analysis(class_id)
            if not self._stale:
                break
            stale = list(self._stale)
            self._stale.clear()
            for class_id in stale:
                self._canonicalize_nodes(class_id)

    def _repair(self, class_id: int) -> None:
        class_id = self.find(class_id)
        eclass = self._classes[class_id]
        # Re-canonicalise this class's own nodes (collapsing duplicates).
        self._canonicalize_nodes(class_id)
        # Repair parent pointers: canonicalising a parent e-node may reveal
        # that two previously distinct parents became congruent.  Iterate a
        # snapshot — the merges below can mutate parent dicts (including this
        # class's own, through cycles).
        snapshot = list(eclass.parents.items())
        original_keys = set(eclass.parents.keys())
        repaired: Dict[ENode, int] = {}
        for parent_node, parent_class in snapshot:
            self._hashcons.pop(parent_node, None)
            canonical = parent_node.canonicalize(self.find)
            parent_class = self.find(parent_class)
            if canonical in repaired and not self._uf.same(repaired[canonical], parent_class):
                parent_class = self.merge(repaired[canonical], parent_class)
            existing = self._hashcons.get(canonical)
            if existing is not None and not self._uf.same(existing, parent_class):
                parent_class = self.merge(existing, parent_class)
            parent_class = self.find(parent_class)
            self._hashcons[canonical] = parent_class
            repaired[canonical] = parent_class
            # The parent's class stores some (possibly older) form of this
            # node; queue it for bulk re-canonicalisation once congruence
            # reaches a fixpoint.
            if canonical != parent_node:
                self._stale[parent_class] = None
        # This class may have gained parents (or even been merged away) while
        # repairing; fold anything that appeared mid-loop into the result.
        target = self._classes[self.find(class_id)]
        merged_in = [(n, c) for n, c in target.parents.items() if n not in original_keys]
        target.parents = repaired
        for parent_node, parent_class in merged_in:
            self._merge_parent_entry(target.parents, parent_node, parent_class)

    def _propagate_analysis(self, class_id: int) -> None:
        """Recompute parent analysis data after a child's data improved."""
        class_id = self.find(class_id)
        eclass = self._classes[class_id]
        for parent_node, parent_class in list(eclass.parents.items()):
            parent_class = self.find(parent_class)
            parent = self._classes[parent_class]
            fresh = self.analysis.make(self, parent_node.canonicalize(self.find))
            merged = self.analysis.merge(parent.data, fresh)
            if merged != parent.data:
                parent.data = merged
                self.analysis.modify(self, parent_class)
                self._analysis_pending.append(parent_class)
                self._touch(parent_class)

    # -- conversion from/to RA expressions --------------------------------------
    def add_term(self, expr: RExpr) -> int:
        """Insert an RA expression tree bottom-up and return its class id,
        which is also recorded in :attr:`roots`."""
        root = self._add_term(expr)
        self.roots.append(root)
        return root

    def _add_term(self, expr: RExpr) -> int:
        if isinstance(expr, RVar):
            if expr.sparsity is not None:
                current = self.var_sparsity.get(expr.name, 1.0)
                self.var_sparsity[expr.name] = min(current, expr.sparsity)
            return self.add(ENode(OP_VAR, (expr.name, expr.attrs), ()))
        if isinstance(expr, RLit):
            return self.add(ENode(OP_LIT, float(expr.value), ()))
        if isinstance(expr, RJoin):
            children = tuple(self._add_term(arg) for arg in expr.args)
            return self.add(ENode(OP_JOIN, None, children))
        if isinstance(expr, RAdd):
            children = tuple(self._add_term(arg) for arg in expr.args)
            return self.add(ENode(OP_ADD, None, children))
        if isinstance(expr, RSum):
            child = self._add_term(expr.child)
            return self.add(ENode(OP_SUM, expr.indices, (child,)))
        if isinstance(expr, RFused):
            definition = self._add_term(expr.definition)
            children = tuple(self._add_term(arg) for arg in expr.args)
            self.fusions.setdefault(ENode(OP_FUSED, expr.fusion, children), definition)
            return definition
        raise TypeError(f"cannot add {type(expr).__name__} to the e-graph")

    def extract_any(self, class_id: int) -> RExpr:
        """Extract *some* RA expression from a class (smallest-ish, no cost model).

        Used for debugging and for tests that only need a witness term; the
        real extraction lives in :mod:`repro.extract`.
        """
        from repro.extract.greedy import GreedyExtractor

        return GreedyExtractor(lambda egraph, cid, node: 1.0, node_filter=None).extract(self, class_id).expr

    def enode_to_term(self, node: ENode, chooser) -> RExpr:
        """Rebuild an RA expression from an e-node, choosing child terms via ``chooser``."""
        if node.op == OP_VAR:
            name, attrs = node.payload
            return RVar(name, attrs, self.var_sparsity.get(name))
        if node.op == OP_LIT:
            return RLit(float(node.payload))
        child_terms = [chooser(child) for child in node.children]
        if node.op == OP_JOIN:
            return rjoin(child_terms)
        if node.op == OP_ADD:
            return radd(child_terms)
        if node.op == OP_SUM:
            return rsum(node.payload, child_terms[0])
        if node.op == OP_FUSED:
            return RFused(node.payload, tuple(child_terms))
        raise ValueError(f"unknown operator {node.op!r}")

    # -- diagnostics -------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert index/counter consistency on a clean graph (tests only).

        Verifies, against ground truth recomputed by scanning:

        * the stored nodes of every class are canonical and partitioned
          exactly by the per-class operator buckets;
        * the operator index covers every (op, class) pair;
        * the hash-cons maps every canonical stored node to its class, and
          no two classes store the same canonical node;
        * ``num_enodes``/``num_classes`` match the recomputed counts;
        * every stored node is registered as a parent of each of its
          children.
        """
        assert self.is_clean, "check_invariants requires a rebuilt graph"
        seen_nodes: Dict[ENode, int] = {}
        total = 0
        # Parent keys may be stale (pre-merge) forms until their own class is
        # repaired; compare against the canonicalised key set per class.
        canonical_parents: Dict[int, FrozenSet[ENode]] = {}

        def parent_keys(class_id: int) -> FrozenSet[ENode]:
            if class_id not in canonical_parents:
                canonical_parents[class_id] = frozenset(
                    parent.canonicalize(self.find)
                    for parent in self._classes[class_id].parents
                )
            return canonical_parents[class_id]
        for class_id, eclass in self._classes.items():
            assert self.find(class_id) == class_id, f"non-canonical class {class_id}"
            bucket_union: Dict[ENode, None] = {}
            for op, bucket in eclass.by_op.items():
                for node in bucket:
                    assert node.op == op, f"node {node!r} in wrong bucket {op!r}"
                    bucket_union[node] = None
                if bucket:
                    assert class_id in self._op_classes.get(op, {}), (
                        f"class {class_id} missing from op index for {op!r}"
                    )
            assert bucket_union.keys() == eclass.nodes.keys(), (
                f"buckets of class {class_id} do not partition its nodes"
            )
            for node in eclass.nodes:
                assert node.canonicalize(self.find) == node, (
                    f"stale stored node {node!r} in class {class_id}"
                )
                assert node not in seen_nodes, (
                    f"node {node!r} stored in classes {seen_nodes[node]} and {class_id}"
                )
                seen_nodes[node] = class_id
                assert self.find(self._hashcons[node]) == class_id, (
                    f"hashcons maps {node!r} elsewhere"
                )
                for child in node.children:
                    child_id = self.find(child)
                    assert node in parent_keys(child_id), (
                        f"{node!r} missing from parents of child {child}"
                    )
            total += len(eclass.nodes)
        assert total == self._enode_count, (
            f"enode counter {self._enode_count} != recomputed {total}"
        )
        assert self.num_classes() == len(self._classes)

    def dump(self) -> str:  # pragma: no cover - debugging aid
        lines = []
        for class_id in sorted(self.class_ids()):
            data = self.data(class_id)
            schema = ",".join(sorted(a.name for a in data.schema))
            lines.append(f"class {class_id} [{{{schema}}} sp={data.sparsity:.3g}]")
            for node in self.nodes(class_id):
                lines.append(f"  {node!r}")
        return "\n".join(lines)
