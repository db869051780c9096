"""Known-bad fixtures proving every analysis pass can actually fail.

A static-analysis gate that has never flagged anything is indistinguishable
from one that cannot.  ``python -m repro.analysis --selftest`` runs each
pass against a seeded defect — a rewrite rule that drops a join factor, a
catalog pattern claiming ``X + Y = X * Y``, a class mutating guarded state
lock-free, wall-clock and unseeded-RNG calls on a hot path, a plan entry
whose optimized cost exceeds its original, a doctored tape, a scalable
template whose plan holds a dim its signature cannot re-pin, an RA plan with
shadowed and unbound Σ-indices, a corrupt store file — and succeeds only if
every fixture is flagged with the expected finding code.  CI runs it next
to ``--check``, so a pass silently going blind fails the build.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from dataclasses import dataclass
from typing import Any, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis import concurrency_lint, plan_lint, rules_audit
from repro.egraph.enode import OP_JOIN
from repro.egraph.graph import EGraph
from repro.egraph.rewrite import Match, Rule
from repro.ra.attrs import Attr
from repro.ra.rexpr import RSum, RVar
from repro.rules.systemml_catalog import CatalogPattern


class DropSecondFactor(Rule):
    """Deliberately unsound: ``A * B = A`` (drops a join factor)."""

    name = "selftest-drop-factor"
    soundness = "any-semiring"

    def search(self, egraph: EGraph, dirty: Optional[FrozenSet[int]] = None) -> List[Match]:
        matches: List[Match] = []
        for class_id in egraph.classes_with_op(OP_JOIN):
            class_id = egraph.find(class_id)
            for node in egraph.nodes(class_id):
                if node.op != OP_JOIN or len(node.children) < 2:
                    continue
                matches.append(
                    Match(self, (class_id, node.sort_key), class_id, (class_id, node.children[0]))
                )
        return matches

    def rewrite(self, egraph: EGraph, class_id: int, first: int) -> Optional[int]:
        # The schema analysis vetoes merges across schemas, so this only
        # lands on elementwise joins — still unsound in every ring
        # (A ⊙ B = A), which is the point of the fixture.
        if egraph.data(first).schema_names != egraph.data(class_id).schema_names:
            return None
        return egraph.find(first)


#: a catalog pattern whose equation is false in every ring
BROKEN_PATTERN = CatalogPattern(
    method="SelftestBroken",
    lhs="X + Y",
    rhs="X * Y",
    soundness="any-semiring",
)


#: a class that guards ``_count`` in one method and races it in another
RACY_SOURCE = '''
import threading

class RacyCounter:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def increment(self):
        with self._lock:
            self._count += 1

    def reset(self):
        self._count = 0  # racy: no lock
'''

#: hot-path module using the wall clock for a decision and an unseeded RNG
NONDETERMINISTIC_SOURCE = '''
import time
import numpy as np

def deadline_passed(deadline):
    return time.time() > deadline

def jitter():
    rng = np.random.default_rng()
    return rng.uniform()
'''


@dataclass
class FixtureResult:
    """One fixture, the finding code it must trigger, and what happened."""

    fixture: str
    expected_code: str
    fired: bool
    observed: Tuple[str, ...] = ()


def _codes(findings: Sequence[Any]) -> Tuple[str, ...]:
    return tuple(sorted({finding.code for finding in findings}))


def _check(fixture: str, expected: str, findings: Sequence[Any]) -> FixtureResult:
    codes = _codes(findings)
    return FixtureResult(fixture, expected, expected in codes, codes)


def run_selftest() -> List[FixtureResult]:
    """Run every fixture through its pass; all must be flagged."""
    results: List[FixtureResult] = []

    # rules-audit: an unsound relational rule declared sound everywhere.
    findings, _ = rules_audit.run_rules_audit(
        rules=[DropSecondFactor()], patterns=[], trials=1
    )
    results.append(_check("broken-relational-rule", "declaration-mismatch", findings))

    # rules-audit: a catalog pattern whose two sides differ.
    findings, _ = rules_audit.run_rules_audit(
        rules=[], patterns=[BROKEN_PATTERN], trials=1
    )
    results.append(_check("broken-catalog-pattern", "declaration-mismatch", findings))

    # concurrency-lint: guarded state mutated lock-free.
    findings = concurrency_lint.lint_source(RACY_SOURCE, "selftest/racy.py", hot_path=False)
    results.append(_check("racy-class", "unguarded-mutation", findings))

    # concurrency-lint: wall clock and unseeded RNG on a hot path.
    findings = concurrency_lint.lint_source(
        NONDETERMINISTIC_SOURCE, "selftest/hot.py", hot_path=True
    )
    results.append(_check("wall-clock-decision", "wall-clock-decision", findings))
    results.append(_check("unseeded-random", "unseeded-random", findings))

    # plan-lint: a committed entry whose optimized cost regressed.
    entry, _ = _compiled_entry()
    report = entry.artifact.report
    corrupt = dataclasses.replace(
        entry,
        artifact=dataclasses.replace(
            entry.artifact,
            report=dataclasses.replace(
                report,
                original_cost=1.0,
                optimized_cost=2.0,
            ),
        ),
    )
    findings = plan_lint.lint_entry(corrupt, "selftest/cost")
    results.append(_check("cost-regression", "cost-regression", findings))

    # plan-lint: a sparsity hint no probability could have produced.
    bad_sparsity, _ = _compiled_entry()
    doctored_var = None
    for node in bad_sparsity.slot_plan.walk():
        if type(node).__name__ == "Var":
            doctored_var = node
            break
    assert doctored_var is not None
    object.__setattr__(doctored_var, "sparsity", 1.5)
    findings = plan_lint.lint_expr(bad_sparsity.slot_plan, "selftest/sparsity")
    object.__setattr__(doctored_var, "sparsity", None)
    results.append(_check("bad-sparsity", "sparsity-out-of-range", findings))

    # plan-lint: a tape with a step bolted on after the root.
    entry, n_slots = _compiled_entry()
    from repro.runtime.tape import TapePlan, TapeStep

    tape = TapePlan(entry.slot_plan, n_slots)
    tape._steps.append(
        TapeStep(lambda vals: vals[0], n_slots + len(tape), (), (), "Const")
    )
    findings = plan_lint.lint_tape(tape, "selftest/tape")
    results.append(_check("doctored-tape", "dead-tape-step", findings))

    # plan-lint: a scalable template whose plan holds an extent over a dim
    # the signature has no slot for (what a lift minting a dim would leave).
    entry, _ = _compiled_entry()
    from repro.lang import Dim, Shape
    from repro.lang import expr as la
    from repro.lang.dims import UNIT
    from repro.optimizer.guards import TemplateGuard

    signature = entry.signature
    extent = la.Sum(la.FilledMatrix(1.0, Shape(Dim("sf_m.1", 8), UNIT)))
    foreign = dataclasses.replace(
        entry,
        slot_plan=la.ElemMul(extent, entry.slot_plan),
        guard=TemplateGuard(tuple(zip(signature.dim_names, signature.dim_sizes)), exact=False),
    )
    findings = plan_lint.lint_entry(foreign, "selftest/guard")
    results.append(_check("guard-foreign-dim", "guard-foreign-dim", findings))

    # plan-lint: shadowed and unbound Σ-indices.
    i, j, k = Attr("i", 2), Attr("j", 3), Attr("k", 4)
    a = RVar("A", (i, j))
    shadowed = RSum(frozenset((i,)), RSum(frozenset((i, j)), a))
    findings = plan_lint.lint_rexpr(shadowed, "selftest/ra")
    results.append(_check("shadowed-sum-index", "shadowed-sum-index", findings))
    findings = plan_lint.lint_rexpr(RSum(frozenset((k,)), a), "selftest/ra")
    results.append(_check("unbound-sum-index", "unbound-sum-index", findings))

    # plan-lint: a store file that does not decode.
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "deadbeef.json"), "w", encoding="utf-8") as f:
            f.write("{not json")
        findings = plan_lint.lint_store_dir(tmp, where_prefix="selftest/")
    results.append(_check("corrupt-store-file", "unreadable-entry", findings))

    return results


_ENTRY_CACHE: Optional[Any] = None


def _compiled_entry() -> Tuple[Any, int]:
    """One genuinely compiled plan entry (cached per process)."""
    global _ENTRY_CACHE
    if _ENTRY_CACHE is None:
        from repro.api.session import Session
        from repro.lang import Dim, Matrix
        from repro.lang import expr as la

        m, n = Dim("sf_m", 8), Dim("sf_n", 6)
        x = Matrix("X", m, n, sparsity=0.5)
        y = Matrix("Y", m, n, sparsity=0.5)
        session = Session()
        session.compile(la.Sum(x * y))
        _ENTRY_CACHE = session.cache.lookup(session.cache.keys()[0])
    entry = _ENTRY_CACHE
    return entry, len(entry.signature.slots)


def format_results(results: List[FixtureResult]) -> str:
    lines = ["analysis selftest: every pass must flag its seeded defect"]
    for result in results:
        status = "ok " if result.fired else "MISSED"
        lines.append(
            f"  {status:>6}  {result.fixture}: expected {result.expected_code!r}, "
            f"observed {list(result.observed)}"
        )
    failed = sum(1 for result in results if not result.fired)
    lines.append(
        f"selftest {'passed' if not failed else 'FAILED'}: "
        f"{len(results) - failed}/{len(results)} fixtures flagged"
    )
    return "\n".join(lines)
