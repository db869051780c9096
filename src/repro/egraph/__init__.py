"""E-graph engine for equality saturation (Sec. 3 of the paper).

The engine is a from-scratch implementation of the data structure SPORES
borrows from the ``egg`` library, organised around *incremental,
operator-indexed e-matching* and *batched deferred rebuilding* — the two
techniques that keep the per-iteration cost of saturation proportional to
what changed rather than to the size of the graph:

* :mod:`repro.egraph.unionfind` — disjoint sets with path compression,
  tracking which e-classes have been merged.
* :mod:`repro.egraph.enode` — hash-consed operator nodes whose children are
  e-class ids; associative-commutative operators keep their children in a
  canonical sorted order (rules 6 and 7 of R_EQ flatten ``*`` and ``+`` into
  n-ary operators, so AC-equivalence is structural here).  Nodes carry a
  cheap structural ``sort_key`` for deterministic ordering.
* :mod:`repro.egraph.graph` — the e-graph itself: ``add``, ``merge``,
  ``rebuild`` (congruence closure), class invariants (Sec. 3.2) and
  conversion to and from :mod:`repro.ra` expressions.  The graph maintains
  a persistent **operator index** (``op -> classes``, with per-class
  operator buckets) updated in place by add/merge/repair, a **touch log**
  from which searchers derive the set of *dirty* classes changed since
  they last looked, and O(1) live ``num_enodes``/``num_classes`` counters.
  After ``rebuild`` the stored nodes are fully canonical, so matching
  reads the buckets verbatim with no per-access re-canonicalisation.
* :mod:`repro.egraph.analysis` — the class-invariant framework: schema,
  constant folding and sparsity, merged on every union exactly as the paper
  describes.  Invariant improvements count as touches so guarded rules
  re-match affected regions.
* :mod:`repro.egraph.rewrite` — the rewrite-rule protocol: a rule is a
  ``Query`` (anchor operator, child positions, inner operator — a value), a
  ``bind`` guard and a ``rewrite``; the one query evaluator is the pure
  ``Rule.search(egraph, dirty)``, which revisits only changed classes and
  returns flat ``Match(rule, key, root, args)`` records, and ``rewrite``
  builds the right-hand side only for the matches the scheduler keeps;
  rules that need a global view (``factor``, ``pull-add-out-of-sum``)
  declare ``incremental = False`` and full-scan their anchor operator.
* :mod:`repro.egraph.runner` — the saturation loop with the two scheduling
  strategies the paper evaluates: depth-first (apply every match) and
  match sampling (Sec. 3.1, "Dealing with Expansive Rules").  Each
  iteration searches all rules against one clean snapshot, applies the
  scheduled matches, and restores congruence with a single batched
  ``rebuild`` (instead of one per rule); per-rule cursors into the touch
  log drive the incremental searches, and ``RunReport.rule_stats`` reports
  each rule's found → scheduled → applied funnel.  A run ends at a fixpoint,
  at a budget, or once the cheapest extractable plan of ``EGraph.roots`` has
  stopped improving (``RunnerConfig.plateau`` → ``StopReason.PLATEAU``).
"""

from repro.egraph.unionfind import UnionFind
from repro.egraph.enode import ENode, OP_JOIN, OP_ADD, OP_SUM, OP_VAR, OP_LIT, OP_FUSED, AC_OPS
from repro.egraph.analysis import ClassData, RAAnalysis
from repro.egraph.graph import EGraph
from repro.egraph.rewrite import Match, Query, Rule
from repro.egraph.runner import Runner, RunnerConfig, RunReport, RuleStats, StopReason

__all__ = [
    "UnionFind",
    "ENode",
    "OP_JOIN",
    "OP_ADD",
    "OP_SUM",
    "OP_FUSED",
    "OP_VAR",
    "OP_LIT",
    "AC_OPS",
    "ClassData",
    "RAAnalysis",
    "EGraph",
    "Rule",
    "Query",
    "Match",
    "Runner",
    "RunnerConfig",
    "RunReport",
    "RuleStats",
    "StopReason",
]
