"""Rewrite-rule protocol for equality saturation.

A rule is a **query**, a **bind** and a **rewrite**.  The query is a value
(:class:`Query`): read the e-graph's operator index as relations
``op(class, node)`` and it is the conjunctive query "an ``anchor`` e-node,
optionally each of its child positions, optionally an ``inner`` e-node of a
given operator in that child's class".  ``bind`` is the rule's guard: it
sees one binding of those variables and returns the ``args`` its ``rewrite``
needs, or ``None``.  The R_EQ guards are non-syntactic (schema conditions,
sub-multisets of n-ary joins), so ``bind`` is plain Python rather than a
pattern language — but *how* bindings are enumerated, restricted to the
changed part of the graph and keyed is written once, in
:meth:`Rule.search`.  A rule that cannot be put this way overrides
``search``; ``Runner`` only ever calls that.

Matches are **data, not closures**.  ``search`` returns flat :class:`Match`
records — the rule, a deterministic key, the root e-class and a small tuple
of arguments — and does no right-hand-side work at all: on the heavy roots a
rule finds thousands of matches per iteration and the sampling scheduler
keeps at most ``runner.SAMPLE_LIMIT`` of them.  Only for those winners does the
runner call :meth:`Match.apply`, which hands the arguments to
:meth:`Rule.rewrite` (build the replacement, e.g. ``factor``'s multiset
intersection and schema padding) and merges the result into the root class.

Searching is *pure* — it never adds, merges or touches anything, so every
rule of an iteration sees the same clean snapshot — and *incremental*:
``search`` takes an optional ``dirty`` set of canonical e-class ids that
changed since the rule's previous search (as reported by
:meth:`repro.egraph.graph.EGraph.touched_since`).  A query spans an anchor
node plus its immediate children (guards only consult analysis data, whose
improvements also count as touches), so revisiting the anchors whose own
class or child classes are dirty is exact; ``dirty=None`` requests a full
search.  Rules whose ``bind`` correlates *all* children of the anchor
(``factor``, ``pull-add-out-of-sum``) set ``incremental = False`` and are
always searched in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple, TYPE_CHECKING

from repro.egraph.enode import AC_OPS, ENode

if TYPE_CHECKING:  # pragma: no cover
    from repro.egraph.graph import EGraph


class Match:
    """One place a rule applies: ``(rule, key, root, args)``.

    ``key`` is unique per search and orders matches deterministically;
    ``root`` is the e-class the match is rooted at (the class the rewrite's
    result is merged into, and the class the runner re-enqueues for an
    incremental rule when sampling drops the match); ``args`` is what
    :meth:`Rule.rewrite` needs, captured at search time.

    ``sort_bytes`` is the key as the sampler ranks it and always equals
    ``repr(key).encode()``.  Searchers that emit matches by the thousand
    pass the text pre-assembled from cached :attr:`ENode.sort_repr` strings
    instead of having the nested key formatted per match.
    """

    __slots__ = ("rule", "key", "root", "args", "sort_bytes")

    def __init__(
        self, rule: "Rule", key: tuple, root: int, args: tuple, sort_text: Optional[str] = None
    ) -> None:
        self.rule = rule
        self.key = key
        self.root = root
        self.args = args
        self.sort_bytes = (repr(key) if sort_text is None else sort_text).encode()

    def apply(self, egraph: "EGraph") -> bool:
        """Rewrite and merge into the root class; ``True`` if the graph changed.

        Tolerates running after other matches already changed the graph
        (rewrites pass class ids through ``egraph.find`` before use).
        """
        before = egraph.merges_performed, egraph.num_enodes()
        replacement = self.rule.rewrite(egraph, *self.args)
        if replacement is None:
            return False
        egraph.merge(replacement, self.root)
        return (egraph.merges_performed, egraph.num_enodes()) != before

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Match {self.rule.name} {self.key!r}>"


@dataclass(frozen=True)
class Query:
    """What a rule matches, as a value the one evaluator (:meth:`Rule.search`) runs.

    ``anchor`` names the operator(s) of the root e-node.  ``child`` also
    binds each child position of it (to the position and the child's
    canonical class), and ``inner`` — which implies ``child`` — an e-node of
    that operator in the child's class.  ``many`` says the rule's ``bind``
    returns several matches per binding instead of one ``args``.

    The match key is fixed by the shape: ``(root class, anchor.sort_key
    [, position] [, *extra] [, inner.sort_key])`` — the position for a
    ``child`` query on an n-ary anchor (``sum`` has one child), ``extra`` from
    a ``many`` binder.
    """

    anchor: Tuple[str, ...]
    child: bool = False
    inner: Optional[str] = None
    many: bool = False

    def __post_init__(self) -> None:
        if self.inner is not None:
            object.__setattr__(self, "child", True)

    def __str__(self) -> str:
        """``anchor[/inner]``: ``*/+`` is a join with a union child, ``*/_`` a
        join and any child, ``*|+`` a join or a union on its own."""
        anchor = "|".join(self.anchor)
        return f"{anchor}/{self.inner or '_'}" if self.child else anchor


class SearchContext:
    """What one ``search`` call shares between its bindings.

    The backend is picked here, once: ``nodes(class_id, op)`` reads the
    operator buckets, or — ``indexed=False``, the reference the
    search-equivalence tests compare the index against — re-canonicalises and
    filters the class through :meth:`EGraph.legacy_nodes`.  The indexed form
    is a live view of the bucket; a ``bind`` that keeps it in a match's
    ``args`` must copy it.  ``memo`` is scratch space that lives as long as
    the snapshot being searched does.
    """

    __slots__ = ("egraph", "find", "data", "nodes", "classes", "memo")

    def __init__(self, egraph: "EGraph", indexed: bool) -> None:
        self.egraph = egraph
        self.find = egraph.find
        self.data = egraph.data
        self.nodes = egraph.nodes_by_op if indexed else self._scan
        #: ``classes(op)``: the classes that can hold an ``op`` e-node
        self.classes = egraph.classes_with_op if indexed else lambda op: egraph.class_ids()
        self.memo: Dict[Any, Any] = {}

    def _scan(self, class_id: int, op: str) -> List[ENode]:
        return [node for node in self.egraph.legacy_nodes(class_id) if node.op == op]

    def anchors(self, op: str, dirty: Optional[FrozenSet[int]]) -> List[Tuple[int, ENode]]:
        """All ``(class_id, node)`` pairs of one operator; a non-``None``
        ``dirty`` keeps those whose own class or a child class is in it."""
        nodes = self.nodes
        return [
            (class_id, node)
            for class_id in self.classes(op)
            for node in nodes(class_id, op)
            if dirty is None or class_id in dirty or not dirty.isdisjoint(node.children)
        ]


class Rule:
    """Base class for rewrite rules: ``name``, ``soundness``, ``query``,
    ``bind`` and ``rewrite`` (or an overridden ``search`` and ``rewrite``)."""

    #: human-readable rule name (shown in reports and tests)
    name: str = "rule"

    #: the semirings the rewrite is sound over, ``"<rings>[; needs: a, b]"``
    #: (:mod:`repro.optimizer.ring_gate` reads it, the rule audit verifies
    #: it).  Data, not docstring prose — ``python -OO`` strips docstrings —
    #: and a rule that declares nothing never fires off the real ring.
    soundness: str = ""

    #: expansive rules (AC regrouping, distributivity) are the ones the
    #: sampling strategy throttles hardest; marking them lets the runner and
    #: the benchmarks distinguish them.
    expansive: bool = False

    #: whether ``search`` honours a ``dirty`` class set; rules that need a
    #: global view of the graph set this to ``False`` and always full-scan.
    incremental: bool = True

    #: whether ``search`` reads the e-graph's operator index (the default)
    #: or the full scan kept as the search-equivalence tests' reference.
    indexed: bool = True

    #: what the inherited ``search`` enumerates; ``None`` on a rule that
    #: overrides ``search`` instead.
    query: Optional[Query] = None

    def bind(self, ctx: SearchContext, root: int, node: ENode, *bound) -> Optional[Any]:
        """The guard: one binding of the query's variables to ``args``.

        ``bound`` is ``(position, child)`` for a ``child`` query, plus the
        ``inner`` e-node for an ``inner`` one; ``child`` is canonical, ``root``
        is ``node``'s class.  Return the ``args`` tuple for :meth:`rewrite`, or
        ``None`` when the guard fails.  A ``many`` binder returns an iterable
        of ``(extra, extra_text, args)`` instead: ``extra`` is the tuple of key
        parts that tells its matches apart and ``extra_text`` their ``repr``
        joined by ``", "`` — the binder's to supply so that it can splice
        cached strings, as the evaluator does with ``sort_repr``
        (``tests/unit/test_match_records.py`` holds the two to each other).
        Like ``search``, must not modify the e-graph.
        """
        raise NotImplementedError

    def search(self, egraph: "EGraph", dirty: Optional[FrozenSet[int]] = None) -> List[Match]:
        """Find matches; ``dirty`` restricts the search to changed classes.

        Must not modify the e-graph: the runner searches every rule against
        one snapshot and shares one dirty set between rules.

        This default body is the query evaluator.  What a match's identity
        depends on is decided here: the backend, which anchors are revisited,
        the canonical child ids, ``Match.key`` and its pre-assembled text
        (spliced from the bound e-nodes' cached ``sort_repr``; the part up to
        the position is built once per ``(node, position)`` that has inner
        e-nodes, and not at all where ``bind`` declines).
        """
        query = self.query
        if query is None:
            raise NotImplementedError(f"{type(self).__name__} has neither a query nor a search")
        if not (self.indexed and self.incremental):
            dirty = None  # the scan reference and the global-view rules search in full
        ctx = SearchContext(egraph, self.indexed)
        find, nodes, bind = ctx.find, ctx.nodes, self.bind
        by_child, inner_op, many = query.child, query.inner, query.many
        matches: List[Match] = []

        def emit(root, key, text, found, tail=(), tail_text=")"):
            """One binding's match(es); ``key``/``text`` end before ``bind``'s
            extra parts and the inner e-node's."""
            if not many:
                matches.append(Match(self, key + tail, root, found, text + tail_text))
                return
            for extra, extra_text, args in found:
                sort_text = f"{text}, {extra_text}{tail_text}"
                matches.append(Match(self, key + extra + tail, root, args, sort_text))

        for op in query.anchor:
            positional = op in AC_OPS
            for root, node in ctx.anchors(op, dirty):
                if not by_child:
                    found = bind(ctx, root, node)
                    if found is not None:
                        emit(root, (root, node.sort_key), f"({root}, {node.sort_repr}", found)
                    continue
                for position, child in enumerate(map(find, node.children)):
                    if inner_op is None:
                        found = bind(ctx, root, node, position, child)
                        if found is None:
                            continue
                    else:
                        inner_nodes = nodes(child, inner_op)
                        if not inner_nodes:
                            continue
                    key, text = (root, node.sort_key), f"({root}, {node.sort_repr}"
                    if positional:
                        key, text = key + (position,), f"{text}, {position}"
                    if inner_op is None:
                        emit(root, key, text, found)
                        continue
                    for inner in inner_nodes:
                        found = bind(ctx, root, node, position, child, inner)
                        if found is None:
                            continue
                        tail, tail_text = (inner.sort_key,), f", {inner.sort_repr})"
                        if many:
                            emit(root, key, text, found, tail, tail_text)
                        else:  # the hot shape: no call per match beyond ``bind``
                            matches.append(Match(self, key + tail, root, found, text + tail_text))
        return matches

    def rewrite(self, egraph: "EGraph", *args) -> Optional[int]:
        """Build the right-hand side for one match's ``args``.

        Returns the class id to merge into the match's root, or ``None`` if
        the rewrite turns out not to apply.  Runs only for scheduled matches.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.name}>"
