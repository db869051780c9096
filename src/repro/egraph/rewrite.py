"""Rewrite-rule protocol for equality saturation.

A rule is a *searcher* that finds the places it applies and a *rewrite* that
builds the equivalent expression for one of them.  Because the R_EQ rules
need non-syntactic guards (schema conditions, subset enumeration over n-ary
joins), rules are plain Python objects rather than a pattern language.

Matches are **data, not closures**.  ``search`` returns flat :class:`Match`
records — the rule, a deterministic key, the root e-class and a small tuple
of arguments — and does no right-hand-side work at all: on the heavy roots a
rule finds thousands of matches per iteration and the sampling scheduler
keeps at most ``sample_limit`` of them.  Only for those winners does the
runner call :meth:`Match.apply`, which hands the arguments to
:meth:`Rule.rewrite` (build the replacement, e.g. ``factor``'s multiset
intersection and schema padding) and merges the result into the root class.

Searching is *pure* — it never adds, merges or touches anything, so every
rule of an iteration sees the same clean snapshot — and *incremental*:
``search`` takes an optional ``dirty`` set of canonical e-class ids that
changed since the rule's previous search (as reported by
:meth:`repro.egraph.graph.EGraph.touched_since`).  A rule whose patterns
span a root node plus its immediate children only needs to revisit matches
whose root class or child classes are dirty; passing ``dirty=None`` requests
a full search.  Rules that cannot bound their matches to a changed
neighbourhood set ``incremental = False`` and are always searched in full.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, TYPE_CHECKING

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


class Rule:
    """Base class for rewrite rules."""

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
    #: or the legacy full scan (kept as the e-matching benchmark baseline).
    use_index: bool = True

    def search(self, egraph: "EGraph", dirty: Optional[FrozenSet[int]] = None) -> List[Match]:
        """Find matches; ``dirty`` restricts the search to changed classes.

        Must not modify the e-graph: the runner searches every rule against
        one snapshot and shares one dirty set between rules.
        """
        raise NotImplementedError

    def rewrite(self, egraph: "EGraph", *args) -> Optional[int]:
        """Build the right-hand side for one match's ``args``.

        Returns the class id to merge into the match's root, or ``None`` if
        the rewrite turns out not to apply.  Runs only for scheduled matches.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.name}>"
