"""The relational equality rules R_EQ (Fig. 3 of the paper).

The seven identities of Fig. 3 are realised as e-graph rewrite rules over
the n-ary RA operators.  Because ``*`` and ``+`` are stored as flattened,
order-canonical n-ary e-nodes, the associativity/commutativity identities
(rules 6 and 7) are structural and need no rewrite; the remaining identities
become the rules below.  Where the paper's binary identity generalises to an
n-ary regrouping (picking which factor distributes, which sub-multiset is
factored out, which index is eliminated first), the generalisation is what
makes the rule *expansive* in the paper's sense — these rules are marked
``expansive=True`` and are the ones the sampling scheduler throttles.

Every rule states three things: its ``query`` (a value — the anchor
operator, optionally each child position, optionally an ``inner`` e-node in
that child's class), its ``bind`` (the guard, returning the ``args`` for
``rewrite`` or ``None``) and its ``rewrite``.  How a query is evaluated —
operator index or the ``relational_rules(indexed=False)`` scan reference,
the ``dirty`` neighbourhood test, match keys — is
:meth:`repro.egraph.rewrite.Rule.search`, in one place.  ``factor`` and
``pull-add-out-of-sum`` cross-correlate *all* addends of a union: their
queries are anchor-only, their ``bind`` returns several matches per anchor
and they keep ``incremental = False``.

==============================  ===========================================
rule                            identity
==============================  ===========================================
``distribute``                  A * (B + C) = A*B + A*C           (rule 1 →)
``factor``                      A*B + A*C = A * (B + C)           (rule 1 ←)
``combine-addends``             A + A = 2 * A            (rule 1 ← special)
``push-sum-into-add``           Σ_i (A + B) = Σ_i A + Σ_i B       (rule 2 →)
``pull-add-out-of-sum``         Σ_i A + Σ_i B = Σ_i (A + B)       (rule 2 ←)
``pull-factor-out-of-sum``      Σ_i (A * B) = A * Σ_i B, i ∉ A    (rule 3 ←)
``push-factor-into-sum``        A * Σ_i B = Σ_i (A * B), i ∉ A    (rule 3 →)
``merge-nested-sums``           Σ_i Σ_j A = Σ_{i,j} A             (rule 4)
``eliminate-unused-index``      Σ_i A = A * Σ_i 1_i, i ∉ Attr(A)  (rule 5)
``drop-identities``             A * 1 = A,  A + 0 = A       (housekeeping)
``fuse``                        definition = fused operator    (Sec. 3.3)
==============================  ===========================================

``fuse`` is not an R_EQ identity: it places the fused e-nodes the lowering
proposed (``EGraph.fusions``) in the classes of their definitions, and is
the only rule that is not sound over every semiring.
"""

from __future__ import annotations

from collections import Counter
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.egraph.enode import ENode, OP_ADD, OP_FUSED, OP_JOIN, OP_LIT, OP_SUM, OP_VAR
from repro.egraph.graph import EGraph
from repro.egraph.rewrite import Match, Query, Rule, SearchContext
from repro.ra.attrs import Attr
from repro.translate.lower import ONES_PREFIX, dim_of_attr


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def mk_lit(egraph: EGraph, value: float) -> int:
    return egraph.add(ENode(OP_LIT, float(value), ()))


def mk_join(egraph: EGraph, class_ids: Sequence[int]) -> int:
    """Build a join of e-classes; a single argument is returned as-is."""
    ids = [egraph.find(c) for c in class_ids]
    if not ids:
        return mk_lit(egraph, 1.0)
    if len(ids) == 1:
        return ids[0]
    return egraph.add(ENode(OP_JOIN, None, tuple(sorted(ids))))


def mk_add(egraph: EGraph, class_ids: Sequence[int]) -> int:
    """Build a union of e-classes; a single argument is returned as-is."""
    ids = [egraph.find(c) for c in class_ids]
    if not ids:
        return mk_lit(egraph, 0.0)
    if len(ids) == 1:
        return ids[0]
    return egraph.add(ENode(OP_ADD, None, tuple(sorted(ids))))


def mk_sum(egraph: EGraph, indices: Iterable[Attr], child: int) -> int:
    """Build an aggregation; an empty index set is the child itself."""
    index_set = frozenset(indices)
    if not index_set:
        return egraph.find(child)
    child = egraph.find(child)
    return egraph.add(ENode(OP_SUM, index_set, (child,)))


def mk_ones(egraph: EGraph, attr: Attr) -> int:
    """The lowering's all-ones tensor over ``attr`` (named after its dim)."""
    return egraph.add(ENode(OP_VAR, (f"{ONES_PREFIX}{dim_of_attr(attr.name)}", (attr,)), ()))


def _without(children: Tuple[int, ...], position: int) -> Tuple[int, ...]:
    """``children`` minus the one at ``position``."""
    return children[:position] + children[position + 1:]


# ---------------------------------------------------------------------------
# Rules 6/7: associativity — flatten nested n-ary joins and unions
# ---------------------------------------------------------------------------


class Flatten(Rule):
    """``A * (B * C) = *(A, B, C)`` and ``A + (B + C) = +(A, B, C)``.

    Commutativity is structural (children of ``*``/``+`` are stored sorted),
    but associativity still needs a rewrite: other rules build joins whose
    arguments are e-classes that themselves contain joins, and rules such as
    ``pull-factor-out-of-sum`` or ``factor`` need the flattened view to see
    all the factors at once.
    """

    name = "flatten"
    soundness = "any-semiring; needs: associativity, commutativity"

    def __init__(self, op: str) -> None:
        self.op = op
        self.name = f"flatten-{'join' if op == OP_JOIN else 'add'}"
        self.query = Query(anchor=(op,), inner=op)

    def bind(self, ctx, root, node, position, child, inner):
        if child == root:
            return None  # avoid self-flattening loops
        return node, position, inner

    def rewrite(self, egraph: EGraph, node: ENode, position: int, inner: ENode) -> int:
        children = _without(node.children, position) + inner.children
        return mk_join(egraph, children) if self.op == OP_JOIN else mk_add(egraph, children)


# ---------------------------------------------------------------------------
# Rule 1 forward: distribute join over union
# ---------------------------------------------------------------------------


class Distribute(Rule):
    """``A * (B + C) = A*B + A*C`` — distribute a join over a union child."""

    name = "distribute"
    soundness = "any-semiring; needs: distributivity, commutativity"
    expansive = True
    query = Query(anchor=(OP_JOIN,), inner=OP_ADD)

    def bind(self, ctx, root, join_node, position, child, add_node):
        return join_node, position, add_node

    def rewrite(self, egraph: EGraph, join_node: ENode, position: int, add_node: ENode) -> int:
        others = _without(join_node.children, position)
        return mk_add(egraph, [mk_join(egraph, others + (addend,)) for addend in add_node.children])


# ---------------------------------------------------------------------------
# Rule 1 backward: factor a common sub-multiset out of a union
# ---------------------------------------------------------------------------

#: one way to read an addend as a product: the factor multiset, its key set,
#: its sorted elements (the match-key component) and their cached ``repr``
FactorView = Tuple[Counter, FrozenSet[int], Tuple[int, ...], str]


class Factor(Rule):
    """``A*B + A*C = A * (B + C)`` — factor a common factor out of two addends.

    Factoring cross-correlates every pair of addends (and every join view of
    each addend), so a changed-neighbourhood test cannot bound its matches;
    the rule opts out of incremental search and always scans its anchor op.
    It is also the rule that finds the most matches it never applies, so
    ``bind`` only pairs up views; the common sub-multiset, the quotients
    and their schema padding are computed in ``rewrite``.
    """

    name = "factor"
    soundness = "any-semiring; needs: distributivity, commutativity"
    expansive = True
    incremental = False
    query = Query(anchor=(OP_ADD,), many=True)

    def bind(self, ctx, root, add_node) -> Iterator[tuple]:
        views = self._factor_views(ctx, add_node)
        for i in range(len(views)):
            for j in range(i + 1, len(views)):
                positions = f"{i}, {j}, "
                for fi, keys_i, elements_i, text_i in views[i]:
                    for fj, keys_j, elements_j, text_j in views[j]:
                        # Every multiplicity is >= 1, so overlapping key
                        # sets are exactly a non-empty intersection.
                        if keys_i.isdisjoint(keys_j):
                            continue
                        # Key the views by content, not enumeration
                        # position, so scheduling does not depend on the
                        # search backend's iteration order.
                        yield (
                            (i, j, elements_i, elements_j),
                            f"{positions}{text_i}, {text_j}",
                            (add_node, i, j, fi, fj),
                        )

    @staticmethod
    def _factor_views(ctx: SearchContext, add_node: ENode) -> List[List[FactorView]]:
        """For each addend, the multisets of join factors it can be seen as.

        Views are pre-packaged so the pairwise loop can disjointness-test
        and build match keys without recomputing anything per pair; the
        per-class ``ctx.memo`` is shared across all add nodes of one search.
        """
        find, memo = ctx.find, ctx.memo
        views: List[List[FactorView]] = []
        for child in add_node.children:
            child = find(child)
            child_views = memo.get(child)
            if child_views is None:
                counters = [Counter({child: 1})]
                for node in ctx.nodes(child, OP_JOIN):
                    counters.append(Counter(map(find, node.children)))
                child_views = memo[child] = []
                for counter in counters:
                    elements = tuple(sorted(counter.elements()))
                    child_views.append((counter, frozenset(counter), elements, repr(elements)))
            views.append(child_views)
        return views

    def rewrite(
        self, egraph: EGraph, add_node: ENode, i: int, j: int, fi: Counter, fj: Counter
    ) -> Optional[int]:
        common = fi & fj
        rest_i = fi - common
        rest_j = fj - common
        term_i = mk_join(egraph, list(rest_i.elements())) if rest_i else mk_lit(egraph, 1.0)
        term_j = mk_join(egraph, list(rest_j.elements())) if rest_j else mk_lit(egraph, 1.0)
        # The union requires schema-compatible operands: pad the narrower
        # remainder with all-ones tensors over the attributes only the
        # other one carries (e.g. P*X + (-1)*P*P*X factors into
        # P * X * (ones + (-1)*P)).
        term_i, term_j = _pad_to_common_schema(egraph, term_i, term_j)
        if egraph.data(term_i).schema_names != egraph.data(term_j).schema_names:
            return None
        inner_sum = mk_add(egraph, [term_i, term_j])
        factored = mk_join(egraph, list(common.elements()) + [inner_sum])
        other_addends = [c for pos, c in enumerate(add_node.children) if pos not in (i, j)]
        return mk_add(egraph, other_addends + [factored])


def _pad_to_common_schema(egraph: EGraph, term_i: int, term_j: int) -> Tuple[int, int]:
    """Pad two quotient terms with all-ones tensors up to a shared schema."""
    schema_i = egraph.data(term_i).schema
    schema_j = egraph.data(term_j).schema
    names_i = {attr.name for attr in schema_i}
    names_j = {attr.name for attr in schema_j}

    def pad(term: int, own_names, other_schema) -> int:
        missing = [attr for attr in other_schema if attr.name not in own_names]
        if not missing:
            return term
        factors = [mk_ones(egraph, attr) for attr in sorted(missing, key=lambda a: a.name)]
        return mk_join(egraph, factors + [term])

    return pad(term_i, names_i, schema_j), pad(term_j, names_j, schema_i)


# ---------------------------------------------------------------------------
# Rule 1 backward, special case: combine equal addends into a coefficient
# ---------------------------------------------------------------------------


class CombineAddends(Rule):
    """``A + A = 2 * A`` — merge repeated addends into a scalar coefficient.

    The coefficient is the count of equal addends read through the ℕ → S
    homomorphism, so in an idempotent semiring it collapses to one and the
    rewrite degenerates to the ring's own ``A ⊕ A = A``.
    """

    name = "combine-addends"
    soundness = "any-semiring; needs: counting-literals"
    query = Query(anchor=(OP_ADD,))

    def bind(self, ctx, root, add_node):
        counts = Counter(map(ctx.find, add_node.children))
        if any(count >= 2 for count in counts.values()):
            return (counts,)
        return None

    def rewrite(self, egraph: EGraph, counts: Counter) -> int:
        new_children: List[int] = []
        for child, count in counts.items():
            if count == 1:
                new_children.append(child)
            else:
                coefficient = mk_lit(egraph, float(count))
                new_children.append(mk_join(egraph, [coefficient, child]))
        return mk_add(egraph, new_children)


# ---------------------------------------------------------------------------
# Rule 2: aggregation distributes over union
# ---------------------------------------------------------------------------


class PushSumIntoAdd(Rule):
    """``Σ_i (A + B) = Σ_i A + Σ_i B``."""

    name = "push-sum-into-add"
    soundness = "any-semiring; needs: associativity, commutativity"
    query = Query(anchor=(OP_SUM,), inner=OP_ADD)

    def bind(self, ctx, root, sum_node, position, child, add_node):
        return sum_node.payload, add_node

    def rewrite(self, egraph: EGraph, indices: FrozenSet[Attr], add_node: ENode) -> int:
        return mk_add(egraph, [mk_sum(egraph, indices, child) for child in add_node.children])


class PullAddOutOfSum(Rule):
    """``Σ_i A + Σ_i B = Σ_i (A + B)`` when every addend aggregates the same indices.

    The rule intersects the aggregated index sets across *all* addends, so a
    changed-neighbourhood test cannot bound its matches; it opts out of
    incremental search.
    """

    name = "pull-add-out-of-sum"
    soundness = "any-semiring; needs: associativity, commutativity"
    incremental = False
    query = Query(anchor=(OP_ADD,), many=True)

    def bind(self, ctx, root, add_node) -> Iterator[tuple]:
        # Copied out of the buckets: the rewrite chooses among the sums
        # as they were when the match was found.
        sum_views: List[List[ENode]] = [
            list(ctx.nodes(ctx.find(child), OP_SUM)) for child in add_node.children
        ]
        if not all(sum_views):
            return
        # All addends must agree on the aggregated index names.
        index_sets = [
            {frozenset(a.name for a in node.payload) for node in sums} for sums in sum_views
        ]
        for names in sorted(set.intersection(*index_sets), key=sorted):
            names_key = tuple(sorted(names))
            yield (names_key,), repr(names_key), (names, sum_views)

    def rewrite(
        self, egraph: EGraph, names: FrozenSet[str], sum_views: List[List[ENode]]
    ) -> Optional[int]:
        inner_children: List[int] = []
        indices: Optional[FrozenSet[Attr]] = None
        for sums in sum_views:
            # Choose deterministically (smallest structural key) so the
            # rewrite is independent of the search backend's node order.
            chosen = min(
                (node for node in sums if frozenset(a.name for a in node.payload) == names),
                key=lambda node: node.sort_key,
                default=None,
            )
            if chosen is None:
                return None
            indices = chosen.payload if indices is None else indices
            inner_children.append(egraph.find(chosen.children[0]))
        return mk_sum(egraph, indices, mk_add(egraph, inner_children))


# ---------------------------------------------------------------------------
# Rule 3: aggregation commutes with join factors that do not mention the index
# ---------------------------------------------------------------------------


class PullFactorOutOfSum(Rule):
    """``Σ_i (A * B) = A * Σ_i B`` when i ∉ Attr(A).

    Implemented as a single variable-elimination step: pick one aggregated
    index ``s``, split the join into the factors that mention ``s`` and those
    that do not, aggregate ``s`` over the former only.  Repeated application
    yields the fully factorised sum-product form (e.g.
    ``Σ_{i,j,k} W(i,j) H(j,k)`` becomes
    ``Σ_j (Σ_i W(i,j)) * (Σ_k H(j,k))``, the colSums/rowSums plan of PNMF).
    """

    name = "pull-factor-out-of-sum"
    soundness = "any-semiring; needs: distributivity, commutativity"
    expansive = True
    query = Query(anchor=(OP_SUM,), inner=OP_JOIN, many=True)

    def bind(self, ctx, root, sum_node, position, child, join_node) -> Iterator[tuple]:
        indices: FrozenSet[Attr] = sum_node.payload
        memo, schemas = ctx.memo, []  # class -> schema names, for the whole search
        for c in join_node.children:
            names = memo.get(c)
            if names is None:
                names = memo[c] = ctx.data(c).schema_names
            schemas.append((c, names))
        for index in sorted(indices, key=lambda a: a.name):
            inside = [c for c, names in schemas if index.name in names]
            outside = [c for c, names in schemas if index.name not in names]
            if inside and outside:
                yield (index.name,), repr(index.name), (indices, index, inside, outside)

    def rewrite(
        self,
        egraph: EGraph,
        indices: FrozenSet[Attr],
        index: Attr,
        inside: List[int],
        outside: List[int],
    ) -> int:
        inner = mk_sum(egraph, frozenset({index}), mk_join(egraph, inside))
        return mk_sum(egraph, indices - {index}, mk_join(egraph, outside + [inner]))


class PushFactorIntoSum(Rule):
    """``A * Σ_i B = Σ_i (A * B)`` when i is mentioned nowhere in A.

    The guard requires the pushed index names to be absent from both the free
    schema and the bound-index over-approximation of every other factor,
    which keeps the rewrite capture-avoiding without a renaming step.
    """

    name = "push-factor-into-sum"
    soundness = "any-semiring; needs: distributivity, commutativity"
    expansive = True
    query = Query(anchor=(OP_JOIN,), inner=OP_SUM)

    def bind(self, ctx, root, join_node, position, child, sum_node):
        others = _without(join_node.children, position)
        names = frozenset(a.name for a in sum_node.payload)
        if any(names & ctx.data(other).mentioned_names for other in others):
            return None
        return others, sum_node

    def rewrite(self, egraph: EGraph, others: Tuple[int, ...], sum_node: ENode) -> int:
        inner = mk_join(egraph, others + (egraph.find(sum_node.children[0]),))
        return mk_sum(egraph, sum_node.payload, inner)


# ---------------------------------------------------------------------------
# Rule 4: nested aggregations merge
# ---------------------------------------------------------------------------


class MergeNestedSums(Rule):
    """``Σ_i Σ_j A = Σ_{i,j} A``."""

    name = "merge-nested-sums"
    soundness = "any-semiring; needs: associativity, commutativity"
    query = Query(anchor=(OP_SUM,), inner=OP_SUM)

    def bind(self, ctx, root, sum_node, position, child, inner):
        outer_names = {a.name for a in sum_node.payload}
        inner_names = {a.name for a in inner.payload}
        if outer_names & inner_names:
            return None  # would shadow; never produced by the translator
        return sum_node.payload, inner

    def rewrite(self, egraph: EGraph, outer_indices: FrozenSet[Attr], inner: ENode) -> int:
        merged = frozenset(outer_indices) | frozenset(inner.payload)
        return mk_sum(egraph, merged, egraph.find(inner.children[0]))


# ---------------------------------------------------------------------------
# Rule 5: aggregating an index the child does not mention
# ---------------------------------------------------------------------------


class EliminateUnusedIndex(Rule):
    """``Σ_i A = A * Σ_i 1_i`` when i ∉ Attr(A).

    The extent |i| stays a term — the aggregate of the lowering's ones
    tensor over ``i`` — never a literal, so the plan carries no size and
    re-pinning the dim resizes it.  Distributivity alone proves it
    (``⊕_i (A ⊗ 1) = A ⊗ ⊕_i 1``), in every semiring.
    """

    name = "eliminate-unused-index"
    soundness = "any-semiring; needs: distributivity"
    query = Query(anchor=(OP_SUM,))

    def bind(self, ctx, root, sum_node):
        child_schema = ctx.data(sum_node.children[0]).schema_names
        unused = [a for a in sum_node.payload if a.name not in child_schema]
        if not unused:
            return None
        return sum_node, unused

    def rewrite(self, egraph: EGraph, sum_node: ENode, unused: List[Attr]) -> int:
        remaining = frozenset(sum_node.payload) - frozenset(unused)
        inner = mk_sum(egraph, remaining, egraph.find(sum_node.children[0]))
        extents = [mk_sum(egraph, (attr,), mk_ones(egraph, attr)) for attr in unused]
        return mk_join(egraph, [inner] + extents)


# ---------------------------------------------------------------------------
# Housekeeping: identity elements
# ---------------------------------------------------------------------------


class DropIdentities(Rule):
    """``A * 1 = A`` and ``A + 0 = A`` for scalar identity classes.

    Constant folding (the class invariant) discovers that a class is the
    scalar 1 or 0; this rule then removes it from joins and unions, which
    keeps the extraction problem small.  Constant discoveries count as
    touches, so the incremental search still sees newly folded children.
    The literals 1 and 0 denote the ring's own identities, so no arithmetic
    beyond the semiring axioms is assumed.
    """

    name = "drop-identities"
    soundness = "any-semiring"
    query = Query(anchor=(OP_JOIN, OP_ADD))

    def bind(self, ctx, root, node):
        kept = len(self._keep(ctx.egraph, node))
        if kept == 0 or kept == len(node.children):
            return None
        return (node,)

    @staticmethod
    def _keep(egraph: EGraph, node: ENode) -> List[int]:
        """The children of a join/union that are not its scalar identity."""
        identity = 1.0 if node.op == OP_JOIN else 0.0
        keep = []
        for child in node.children:
            data = egraph.data(child)
            if data.constant != identity or data.schema:
                keep.append(child)
        return keep

    def rewrite(self, egraph: EGraph, node: ENode) -> Optional[int]:
        # Recomputed against the graph as it is now: earlier rewrites of the
        # same batch may have folded more children to the identity.
        keep = self._keep(egraph, node)
        if not keep:
            return None
        return mk_join(egraph, keep) if node.op == OP_JOIN else mk_add(egraph, keep)


class AbsorbOnes(Rule):
    """``ones(i) * A = A`` whenever ``i`` is already in A's schema.

    The lowering pads broadcast additions with synthetic all-ones tensors
    (named ``__ones__<dim>``) so that unions stay schema-compatible.  Inside
    a join such a tensor is the multiplicative identity along an axis the
    other factors already carry, so it can be dropped — which is what lets
    saturation prove e.g. ``X - Y*X = (1 - Y)*X`` where the literal ``1``
    was padded up to a matrix.
    """

    name = "absorb-ones"
    soundness = "any-semiring"
    query = Query(anchor=(OP_JOIN,), child=True)

    def bind(self, ctx, root, node, position, child):
        if not any(n.payload[0].startswith(ONES_PREFIX) for n in ctx.nodes(child, OP_VAR)):
            return None
        others = _without(node.children, position)
        if not others:
            return None
        others_schema: FrozenSet[str] = frozenset()
        for other in others:
            others_schema = others_schema | ctx.data(other).schema_names
        if not ctx.data(child).schema_names <= others_schema:
            return None
        return (others,)

    def rewrite(self, egraph: EGraph, others: Tuple[int, ...]) -> int:
        return mk_join(egraph, others)


# ---------------------------------------------------------------------------
# Sec. 3.3: fused operators live in the class of their definition
# ---------------------------------------------------------------------------


class Fuse(Rule):
    """``definition = fused operator``, for the fusions the lowering proposed.

    The lowering finds the nodes ``runtime.fusion`` would fuse and the
    e-graph keeps each one's fused e-node aside (``EGraph.fusions``); this
    rule adds it to its definition's class, so the cost of the fused kernel
    is what extraction and the anytime probe see for that class.  Real ring
    only: the fused kernels hard-code real arithmetic (their ``OP_TABLE``
    rows need ``"real"``) and ``ra_interp`` refuses a fused node elsewhere.
    """

    name = "fuse"
    soundness = "real-only"
    incremental = False

    def search(self, egraph: EGraph, dirty=None) -> List[Match]:
        find = egraph.find
        matches = []
        for node, class_id in egraph.fusions.items():
            root, node = find(class_id), node.canonicalize(find)
            if node not in egraph.nodes_by_op(root, OP_FUSED):
                key_text = f"({root}, {node.sort_repr})"
                matches.append(Match(self, (root, node.sort_key), root, (node,), key_text))
        return matches

    def rewrite(self, egraph: EGraph, node: ENode) -> int:
        return egraph.add(node)


def relational_rules(indexed: bool = True, ring=None) -> List[Rule]:
    """The full R_EQ rule set in a deterministic order.

    ``indexed=False`` has the rules' queries evaluated by the full scan
    (every class visited, nodes re-canonicalised and re-filtered per rule);
    it exists as the reference of the search-equivalence tests.

    ``ring`` (a :class:`~repro.runtime.semiring.Semiring` or ``None`` for
    real arithmetic) drops every rule whose own ``soundness`` declaration
    does not cover the target semiring (:func:`repro.optimizer.ring_gate.
    rule_allowed`).  All thirteen R_EQ rules declare — and the audit
    measures — any-semiring soundness under the counting-literal
    interpretation; ``fuse`` is real-only, so no other ring ever sees a fused
    e-node.  A rule added without a declaration stays out of every non-real
    compile.
    """
    rules: List[Rule] = [
        Flatten(OP_JOIN),
        Flatten(OP_ADD),
        DropIdentities(),
        AbsorbOnes(),
        CombineAddends(),
        MergeNestedSums(),
        EliminateUnusedIndex(),
        PushSumIntoAdd(),
        PullAddOutOfSum(),
        PullFactorOutOfSum(),
        Distribute(),
        Factor(),
        PushFactorIntoSum(),
        Fuse(),
    ]
    if ring is not None:
        from repro.optimizer.ring_gate import rule_allowed

        rules = [rule for rule in rules if rule_allowed(rule, ring)]
    for rule in rules:
        rule.indexed = indexed
    return rules
