"""Ring-dependence gating: what a non-real semiring may run.

Both gates read a declaration that lives with the thing it describes:

* **Rules.**  Every R_EQ rule (``Rule.soundness``) and every catalog pattern
  (``CatalogPattern.soundness``) declares the semirings it is sound over in
  the compact form ``"<rings>[; needs: a, b]"`` — ``rings`` is
  ``any-semiring``, ``real-only`` or a comma-separated list of ring names.
  :func:`rule_allowed` admits a rule under a ring exactly when the
  declaration covers it; the differential audit (``python -m
  repro.analysis``) measures every rule over four semirings, fails on any
  declaration the measurement contradicts, and commits the result as
  ``analysis/rule_matrix.json``.  The real ring runs everything; a rule
  that declares nothing is excluded under every other ring.
* **Operators.**  :func:`check_ring_compatibility` rejects an expression
  whose operators need a capability the ring lacks — the ``needs`` column
  of :data:`repro.runtime.optable.OP_TABLE`, the same column the ring's
  ``KernelSet`` binds its kernels by.

A capability token means one thing everywhere:
:meth:`repro.runtime.semiring.Semiring.provides`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Optional, Sequence, Tuple

from repro.lang import dag
from repro.lang import expr as la
from repro.runtime.optable import CONSTANT_TYPES, OP_TABLE
from repro.runtime.semiring import Semiring


@dataclass(frozen=True)
class SoundnessClaim:
    """A parsed soundness declaration."""

    rings: str
    needs: Tuple[str, ...] = ()

    def predicted(self, semirings: Sequence[Semiring]) -> FrozenSet[str]:
        """Names of the ``semirings`` the declaration claims soundness over."""
        clause = self.rings.strip()
        if clause == "real-only":
            clause = "real"
        named = {token.strip() for token in clause.split(",")}
        return frozenset(
            ring.name
            for ring in semirings
            if (clause == "any-semiring" or ring.name in named)
            and all(ring.provides(need) for need in self.needs)
        )


def parse_soundness(text: Optional[str]) -> Optional[SoundnessClaim]:
    """Parse ``"<rings>[; needs: a, b]"``; ``None`` for an empty declaration."""
    rings, *clauses = (text or "").split(";")
    if not rings.strip():
        return None
    needs: Tuple[str, ...] = ()
    for clause in clauses:
        clause = clause.strip()
        if clause.startswith("needs:"):
            tokens = clause[len("needs:") :].split(",")
            needs = tuple(token.strip() for token in tokens if token.strip())
    return SoundnessClaim(rings=rings.strip(), needs=needs)


def rule_allowed(rule: Any, ring: Semiring) -> bool:
    """May ``rule`` (a relational :class:`~repro.egraph.rewrite.Rule` or a
    :class:`~repro.rules.systemml_catalog.CatalogPattern`: anything carrying
    a ``soundness`` declaration) fire when compiling for ``ring``?"""
    if ring.is_real:
        return True
    claim = parse_soundness(rule.soundness)
    # undeclared -> not audited -> not trusted off the real ring
    return claim is not None and ring.name in claim.predicted((ring,))


# ---------------------------------------------------------------------------
# Expression-level compatibility
# ---------------------------------------------------------------------------


class RingCompatibilityError(ValueError):
    """An expression uses an operator the target ring cannot execute."""


def check_ring_compatibility(expr: la.LAExpr, ring: Semiring) -> None:
    """Reject expressions a non-real ``ring`` cannot soundly execute.

    Raises at compile time — before any saturation work — when the
    expression contains

    * an operator whose row ``needs`` a capability the ring lacks:
      subtraction (``Neg``/``ElemMinus``), division (``ElemDiv``), or real
      arithmetic itself (``UnaryFunc`` is real analysis, the fused physical
      operators hard-code it);
    * a number without a counting reading (negative, fractional or
      non-finite): a literal has no canonical image in the ring
      (:class:`~repro.runtime.semiring.RingLiteralError`), and a numeric
      static payload — ``Power``'s exponent — counts ⊗-folds.

    No-op for the real ring.
    """
    if ring.is_real:
        return
    for node in dag.postorder(expr):
        if isinstance(node, la.Var):
            continue
        if isinstance(node, CONSTANT_TYPES):
            ring.encode_literal(node.value)  # raises RingLiteralError
            continue
        spec = OP_TABLE[type(node)]
        if not ring.provides(spec.needs):
            raise RingCompatibilityError(
                f"{spec.label(node)} needs {spec.needs} and the {ring.name!r} "
                "semiring does not provide it"
            )
        for (name, kind), value in zip(node.static_fields, node.static):
            if kind is float and not (value >= 0 and float(value).is_integer()):
                raise RingCompatibilityError(
                    f"{spec.label(node)}: {name} {value!r} is not a non-negative "
                    f"integer; only ⊗-folds exist in the {ring.name!r} semiring"
                )
