"""Differential soundness audit of both rewrite catalogs.

For every rule the audit answers one question per semiring: *does the
rewrite preserve the value of the plan?*  Two harnesses:

* **Relational rules** (R_EQ, :mod:`repro.rules.relational`) are audited
  through the e-graph itself.  Each rule is applied — alone — to a pool of
  candidate RA expressions chosen so every rule fires on at least one; the
  saturated class is then *enumerated* (bounded, acyclic) and every term the
  rule made equal to the original is re-evaluated over each semiring on
  seeded random inputs.  A term that disagrees indicts exactly the audited
  rule, because no other rule touched the graph.
* **Catalog patterns** (:mod:`repro.rules.systemml_catalog`) carry their
  left- and right-hand sides syntactically, so both sides are evaluated
  directly with the semiring-generic LA evaluator.

Each rule must also *declare* its side conditions — the ``soundness``
attribute of a :class:`~repro.egraph.rewrite.Rule` or the ``soundness``
field of a :class:`~repro.rules.systemml_catalog.CatalogPattern`, the same
string the optimizer's ring gate (:mod:`repro.optimizer.ring_gate`) admits
rules by.  The audit parses the declaration, predicts the sound semirings
from the capability flags, and fails when prediction and measurement
disagree (or the declaration is missing).  The result is the per-rule
ring-dependence matrix persisted as ``analysis/rule_matrix.json``.

Declaration form: ``"<rings>[; needs: a, b]"`` with ``rings`` one of
``any-semiring``, ``real-only`` or ``<ring>, <ring>, ...`` and ``needs``
tokens from :data:`KNOWN_NEEDS`; ``subtraction``, ``division`` and
``idempotence`` restrict the predicted set through the capability flags, the
rest (``associativity``, ``commutativity``, ``distributivity``,
``counting-literals``, ``annihilation``) hold in every audited ring and are
kept as machine-readable documentation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.evaluate import (
    RingUnsupported,
    evaluate_laexpr,
    sample_la_inputs,
    sample_rexpr_inputs,
)
from repro.analysis.report import Finding
from repro.optimizer.ring_gate import SoundnessClaim, parse_soundness
from repro.runtime import ra_interp
from repro.runtime.semiring import (
    AUDIT_SEMIRINGS,
    UNIVERSAL_NEEDS,
    RingLiteralError,
    Semiring,
    capability_table,
)
from repro.egraph.enode import OP_FUSED, OP_JOIN, OP_LIT, OP_SUM, OP_VAR
from repro.egraph.graph import EGraph
from repro.egraph.rewrite import Rule
from repro.lang import Matrix, Vector
from repro.lang.dims import Dim
from repro.ra.attrs import Attr
from repro.ra.rexpr import RAdd, RExpr, RFused, RJoin, RLit, RSum, RVar, unfused
from repro.rules.relational import relational_rules
from repro.rules.systemml_catalog import CatalogPattern, all_patterns, make_env
from repro.translate.lower import lower


PASS_NAME = "rules-audit"

#: tokens a Soundness declaration may list under ``needs:``
KNOWN_NEEDS = UNIVERSAL_NEEDS | {"subtraction", "division", "idempotence"}


@dataclass
class RuleVerdict:
    """The measured four-semiring verdict for one rule or pattern."""

    kind: str  # "relational" | "catalog"
    name: str
    status: Dict[str, str] = field(default_factory=dict)  # ring → sound|unsound|unsupported
    declared: Optional[SoundnessClaim] = None
    candidates_matched: int = 0
    terms_checked: int = 0
    detail: str = ""

    @property
    def sound_over(self) -> List[str]:
        return [name for name, status in self.status.items() if status == "sound"]

    def classified(self) -> bool:
        return len(self.status) == len(AUDIT_SEMIRINGS)

    def to_dict(self) -> Dict[str, object]:
        requires = {
            "subtraction": False,
            "multiplicative_inverse": False,
            "idempotence": False,
            "commutativity": False,
            "counting_literals": False,
        }
        if self.declared is not None:
            requires["subtraction"] = "subtraction" in self.declared.needs
            requires["multiplicative_inverse"] = "division" in self.declared.needs
            requires["idempotence"] = "idempotence" in self.declared.needs
            requires["commutativity"] = "commutativity" in self.declared.needs
            requires["counting_literals"] = "counting-literals" in self.declared.needs
        return {
            "kind": self.kind,
            "sound_over": sorted(self.sound_over),
            "unsupported_in": sorted(
                name for name, status in self.status.items() if status == "unsupported"
            ),
            "unsound_in": sorted(
                name for name, status in self.status.items() if status == "unsound"
            ),
            "requires": requires,
            "declared": (
                {"rings": self.declared.rings, "needs": list(self.declared.needs)}
                if self.declared is not None
                else None
            ),
            "candidates_matched": self.candidates_matched,
            "terms_checked": self.terms_checked,
        }


# ---------------------------------------------------------------------------
# Relational harness: candidates, application, bounded term enumeration
# ---------------------------------------------------------------------------

_I = Attr("i", 2)
_J = Attr("j", 3)
_K = Attr("k", 2)

ATTR_SIZES: Dict[str, int] = {"i": 2, "j": 3, "k": 2}

_A = RVar("A", (_I, _J))
_B = RVar("B", (_J, _K))
_C = RVar("C", (_I, _J))
_U = RVar("u", (_J,))
_W = RVar("w", (_K,))
_P = RVar("p", (_I,), 0.5)
_XS = RVar("xs", (_I, _J), 0.3)


def candidate_pool() -> List[Tuple[str, RExpr]]:
    """Hand-picked RA expressions guaranteeing every R_EQ rule a match.

    Raw constructors (not the folding smart constructors) keep joins and
    unions nested so the flatten rules have something to do.  The last
    candidate is lowered from ``t(A) %*% (A %*% u)``: its ``mmchain`` fusion
    is what ``fuse`` places.
    """
    ones_i = RVar("__ones__i", (_I,))
    a = Matrix("A", Dim("i", _I.size), Dim("j", _J.size))
    chain = lower(a.T @ (a @ Vector("u", Dim("j", _J.size)))).plan.body
    return [
        ("nested-join", RJoin((_A, RJoin((_B, _W))))),
        ("nested-add", RAdd((_A, RAdd((_C, _A))))),
        ("join-over-add", RJoin((_U, RAdd((_A, _C))))),
        ("factorable-add", RAdd((RJoin((_A, _U)), RJoin((_C, _U))))),
        ("repeat-add", RAdd((_A, _A))),
        ("sum-of-add", RSum(frozenset({_I}), RAdd((_A, _C)))),
        ("add-of-sums", RAdd((RSum(frozenset({_I}), _A), RSum(frozenset({_I}), _C)))),
        ("sum-of-join", RSum(frozenset({_I, _K}), RJoin((_A, _B)))),
        ("join-with-sum", RJoin((_W, RSum(frozenset({_I}), _A)))),
        ("nested-sums", RSum(frozenset({_I}), RSum(frozenset({_J}), _A))),
        ("unused-index", RSum(frozenset({_K}), _A)),
        ("identity-join", RJoin((RLit(1.0), _A))),
        # Unions must be schema-compatible, so the + 0 identity only ever
        # appears between scalars.
        ("identity-add", RAdd((RLit(0.0), RVar("s", ())))),
        ("ones-join", RJoin((ones_i, RJoin((_A, _U))))),
        ("sparse-factor", RAdd((RJoin((_P, _XS)), RJoin((_P, RJoin((_P, _XS))))))),
        ("deep-mixed", RSum(frozenset({_J}), RJoin((_A, RAdd((_U, _U)))))),
        ("fusible-chain", chain),
    ]


def enumerate_terms(
    egraph: EGraph,
    class_id: int,
    per_class: int = 3,
    total: int = 48,
) -> List[RExpr]:
    """Bounded, acyclic enumeration of representative terms of a class."""

    def terms_of(cid: int, path: FrozenSet[int]) -> List[RExpr]:
        cid = egraph.find(cid)
        if cid in path:
            return []
        on_path = path | {cid}
        out: List[RExpr] = []
        for node in egraph.nodes(cid):
            if len(out) >= total:
                break
            if node.op == OP_VAR:
                name, attrs = node.payload
                out.append(RVar(name, tuple(attrs)))
            elif node.op == OP_LIT:
                out.append(RLit(node.payload))
            else:
                child_terms: List[List[RExpr]] = []
                for child in node.children:
                    terms = terms_of(child, on_path)
                    if not terms:
                        child_terms = []
                        break
                    child_terms.append(terms[:per_class])
                if not child_terms:
                    continue
                for combo in itertools.product(*child_terms):
                    if node.op == OP_SUM:
                        out.append(RSum(node.payload, combo[0]))
                    elif node.op == OP_FUSED:
                        out.append(RFused(node.payload, tuple(combo)))
                    elif node.op == OP_JOIN:
                        out.append(RJoin(tuple(combo)))
                    else:
                        out.append(RAdd(tuple(combo)))
                    if len(out) >= total:
                        break
        return out

    return terms_of(class_id, frozenset())


def apply_rule_once(rule: Rule, candidate: RExpr, max_matches: int = 12):
    """Seed an e-graph with ``candidate`` and apply only ``rule``.

    Returns ``(egraph, root_class, applied)`` — ``applied`` counts matches
    whose application changed the graph.
    """
    egraph = EGraph()
    root = egraph.add_term(candidate)
    egraph.rebuild()
    matches = rule.search(egraph, None)
    applied = 0
    for match in matches[:max_matches]:
        if match.apply(egraph):
            applied += 1
    if applied:
        egraph.rebuild()
    return egraph, egraph.find(root), applied


def audit_relational_rule(
    rule: Rule,
    candidates: Optional[Sequence[Tuple[str, RExpr]]] = None,
    semirings: Sequence[Semiring] = AUDIT_SEMIRINGS,
    trials: int = 2,
    seed: int = 0,
) -> RuleVerdict:
    """Differential verdict for one relational rule over every semiring."""
    verdict = RuleVerdict(kind="relational", name=rule.name)
    pool = list(candidates if candidates is not None else candidate_pool())
    status = {ring.name: "sound" for ring in semirings}
    evaluated = {ring.name: 0 for ring in semirings}
    for cand_name, candidate in pool:
        egraph, root, applied = apply_rule_once(rule, candidate)
        if not applied:
            continue
        verdict.candidates_matched += 1
        terms = enumerate_terms(egraph, root)
        for ring in semirings:
            if status[ring.name] == "unsound":
                continue
            for trial in range(trials):
                rng = np.random.default_rng(seed * 7919 + trial)
                inputs = sample_rexpr_inputs(candidate, ring, rng, ATTR_SIZES)
                # a literal without a counting reading, or a fused kernel off
                # the real ring, is outside the ring's fragment: unsupported
                # there, not unsound
                try:
                    expected, _ = ra_interp.evaluate(unfused(candidate), inputs, ATTR_SIZES, ring)
                except RingLiteralError:
                    status[ring.name] = "unsupported"
                    break
                for term in terms:
                    try:
                        actual, _ = ra_interp.evaluate(term, inputs, ATTR_SIZES, ring)
                    except (RingLiteralError, ra_interp.RingOperatorError):
                        status[ring.name] = "unsupported"
                        break
                    evaluated[ring.name] += 1
                    if not ring.allclose(expected, actual):
                        status[ring.name] = "unsound"
                        verdict.detail = (
                            f"candidate {cand_name!r}: a term equated by "
                            f"{rule.name!r} disagrees in {ring.name}"
                        )
                        break
                if status[ring.name] != "sound":
                    break
    verdict.status = status
    verdict.terms_checked = sum(evaluated.values())
    return verdict


# ---------------------------------------------------------------------------
# Catalog harness: direct two-sided evaluation
# ---------------------------------------------------------------------------


def audit_catalog_pattern(
    pattern: CatalogPattern,
    index: int,
    semirings: Sequence[Semiring] = AUDIT_SEMIRINGS,
    trials: int = 2,
    seed: int = 0,
) -> RuleVerdict:
    """Evaluate both sides of one catalog pattern over every semiring."""
    name = f"{pattern.method}[{index}]"
    verdict = RuleVerdict(kind="catalog", name=name)
    try:
        lhs, rhs = pattern.parse(make_env())
    except Exception as error:  # noqa: BLE001 - reported, not raised
        verdict.status = {ring.name: "unsupported" for ring in semirings}
        verdict.detail = f"parse failure: {error}"
        return verdict
    status: Dict[str, str] = {}
    checked = 0
    for ring in semirings:
        ring_status = "sound"
        for trial in range(trials):
            rng = np.random.default_rng(seed * 104729 + trial)
            inputs = sample_la_inputs([lhs, rhs], ring, rng)
            try:
                left = evaluate_laexpr(lhs, ring, inputs)
                right = evaluate_laexpr(rhs, ring, inputs)
            except RingUnsupported:
                ring_status = "unsupported"
                break
            checked += 1
            if not ring.allclose(left, right):
                ring_status = "unsound"
                verdict.detail = f"{pattern.lhs} != {pattern.rhs} in {ring.name}"
                break
        status[ring.name] = ring_status
    verdict.status = status
    verdict.terms_checked = checked
    verdict.candidates_matched = 1
    return verdict


# ---------------------------------------------------------------------------
# The pass: audit both catalogs, cross-check declarations, build the matrix
# ---------------------------------------------------------------------------


def run_rules_audit(
    semirings: Sequence[Semiring] = AUDIT_SEMIRINGS,
    trials: int = 2,
    seed: int = 0,
    rules: Optional[Sequence[Rule]] = None,
    patterns: Optional[Sequence[CatalogPattern]] = None,
) -> Tuple[List[Finding], Dict[str, object]]:
    """Run the full audit; returns (findings, ring-dependence matrix)."""
    findings: List[Finding] = []
    verdicts: List[RuleVerdict] = []

    audited_rules = list(rules if rules is not None else relational_rules())
    for rule in audited_rules:
        verdict = audit_relational_rule(rule, semirings=semirings, trials=trials, seed=seed)
        verdict.declared = parse_soundness(rule.soundness)
        verdicts.append(verdict)
        where = f"rules/relational.py::{rule.name}"
        if verdict.candidates_matched == 0:
            findings.append(
                Finding(
                    PASS_NAME,
                    "unexercised-rule",
                    where,
                    "no audit candidate matched this rule — classification is vacuous",
                )
            )
        findings.extend(_declaration_findings(verdict, where, semirings))

    audited_patterns = list(patterns if patterns is not None else all_patterns())
    for index_in_method, pattern in _indexed(audited_patterns):
        verdict = audit_catalog_pattern(
            pattern, index_in_method, semirings=semirings, trials=trials, seed=seed
        )
        verdict.declared = parse_soundness(pattern.soundness)
        verdicts.append(verdict)
        where = f"rules/systemml_catalog.py::{verdict.name}"
        if verdict.detail.startswith("parse failure"):
            findings.append(
                Finding(PASS_NAME, "pattern-parse-failure", where, verdict.detail)
            )
        findings.extend(_declaration_findings(verdict, where, semirings))

    classified = sum(1 for verdict in verdicts if verdict.classified())
    matrix = {
        "semirings": capability_table(),
        "literal_interpretation": (
            "integer n >= 0 denotes the n-fold ⊕ of the multiplicative one "
            "(collapses to one in idempotent rings); other literals are real-only"
        ),
        "note": (
            "commutativity/associativity/distributivity requirements are declared, "
            "not measured: every audited semiring satisfies them"
        ),
        "rules": {
            f"{verdict.kind}:{verdict.name}": verdict.to_dict() for verdict in verdicts
        },
        "classified": classified,
        "total": len(verdicts),
    }
    return findings, matrix


def _indexed(patterns: Sequence[CatalogPattern]) -> List[Tuple[int, CatalogPattern]]:
    """Per-method position of each pattern (stable audit names)."""
    counters: Dict[str, int] = {}
    out: List[Tuple[int, CatalogPattern]] = []
    for pattern in patterns:
        position = counters.get(pattern.method, 0)
        counters[pattern.method] = position + 1
        out.append((position, pattern))
    return out


def _declaration_findings(
    verdict: RuleVerdict, where: str, semirings: Sequence[Semiring]
) -> List[Finding]:
    findings: List[Finding] = []
    if verdict.declared is None:
        findings.append(
            Finding(
                PASS_NAME,
                "missing-soundness-declaration",
                where,
                "rule declares no soundness",
            )
        )
        return findings
    unknown = [need for need in verdict.declared.needs if need not in KNOWN_NEEDS]
    if unknown:
        findings.append(
            Finding(
                PASS_NAME,
                "unknown-soundness-token",
                where,
                f"unknown needs tokens {unknown!r} (allowed: {sorted(KNOWN_NEEDS)})",
            )
        )
    if verdict.candidates_matched == 0:
        return findings
    predicted = verdict.declared.predicted(semirings)
    measured = frozenset(verdict.sound_over)
    if predicted != measured:
        findings.append(
            Finding(
                PASS_NAME,
                "declaration-mismatch",
                where,
                f"declared sound over {sorted(predicted)} but measured "
                f"{sorted(measured)}"
                + (f" ({verdict.detail})" if verdict.detail else ""),
            )
        )
    return findings
