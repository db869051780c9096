"""The runtime ``Semiring`` protocol: rings the engine can execute over.

The type started as audit-only infrastructure of :mod:`repro.analysis`;
the differential rule audit (PR 8) proved 87/100 rewrites any-semiring
sound, which cleared the way to promote it here and parameterize the
*execution* stack by ring.  The audit imports it from this module.

A :class:`Semiring` bundles the carrier operations (⊕, ⊗, their identities,
the ⊕-reduction used by aggregation) with the *capability flags* the rules'
soundness declarations and the operator rows' ``needs`` are read against
(:meth:`Semiring.provides`):

``subtraction``
    every element has an additive inverse (rewrites using ``-`` / ``Neg``);
``division``
    every non-zero element has a multiplicative inverse (``/``);
``idempotent``
    ``a ⊕ a = a`` — what makes the counting-literal interpretation collapse
    (see :func:`Semiring.from_int`).

Integer literals are interpreted through the canonical ℕ → S homomorphism:
the literal ``n ≥ 0`` denotes the n-fold ⊕ of the multiplicative one.  Under
this interpretation rules like ``A + A = 2·A`` and ``Σ_i A = |i|·A`` are
semiring-generic: in an idempotent ring ``from_int(n)`` collapses to one, so
the coefficient is exactly the no-op the ring's own ``A ⊕ A = A`` demands.
Negative or fractional literals have no such reading and stay real-only —
:meth:`Semiring.encode_literal` enforces exactly that at execution time, so
the runtime's literal semantics match the interpretation the audit proved
the rewrite rules sound under.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

Array = np.ndarray
BinOp = Callable[[Array, Array], Array]
Sampler = Callable[[np.random.Generator, Tuple[int, ...]], Array]


#: capability tokens every commutative semiring meets (under the
#: counting-literal interpretation): declared for the record, never gating
UNIVERSAL_NEEDS = frozenset(
    {"associativity", "commutativity", "distributivity", "annihilation", "counting-literals"}
)


class RingLiteralError(ValueError):
    """A literal with no counting interpretation reached a non-real ring."""


class UnknownSemiringError(ValueError):
    """A semiring name that no registered ring answers to."""


@dataclass(frozen=True)
class Semiring:
    """One commutative semiring with numpy carriers and capability flags."""

    name: str
    description: str
    zero: float
    one: float
    add: BinOp
    mul: BinOp
    #: draw a dense sample from the ring's preferred test domain
    sample: Sampler
    #: additive inverses exist (x - y is meaningful)
    has_subtraction: bool
    #: multiplicative inverses exist for the sampled domain (x / y)
    has_division: bool
    #: a ⊕ a = a
    idempotent: bool
    #: ⊕-inverse (only when ``has_subtraction``)
    sub: Optional[BinOp] = None
    #: ⊗-inverse (only when ``has_division``)
    div: Optional[BinOp] = None
    #: equality tolerance; 0.0 means exact comparison
    rtol: float = field(default=1e-8)
    atol: float = field(default=1e-8)

    # -- derived operations ----------------------------------------------------
    @property
    def is_real(self) -> bool:
        """True for the ring the optimizer was originally built for."""
        return self.name == "real"

    def provides(self, need: Optional[str]) -> bool:
        """Whether this ring has the capability ``need`` names.

        The one reading of a capability token, shared by the operator rows
        (``OpSpec.needs``: what the kernel and the compile-time gate check)
        and the rules' soundness declarations (``needs:`` clauses).  ``None``
        and the :data:`UNIVERSAL_NEEDS` never restrict; a token nobody
        defined is not provided — refuse rather than guess.
        """
        if need is None or need in UNIVERSAL_NEEDS:
            return True
        if need == "subtraction":
            return self.has_subtraction and self.sub is not None
        if need == "division":
            return self.has_division and self.div is not None
        if need == "idempotence":
            return self.idempotent
        return need == "real" and self.is_real

    def from_int(self, count: int) -> float:
        """ℕ → S: the ``count``-fold ⊕ of the multiplicative one.

        ``from_int(0)`` is the additive identity.  In an idempotent ring
        every positive count collapses to one, which is what makes the
        counting-literal rewrites ring-generic.
        """
        if count <= 0:
            return self.zero
        if self.idempotent:
            return self.one
        total = self.one
        for _ in range(count - 1):
            total = float(self.add(np.float64(total), np.float64(self.one)))
        return total

    def encode_literal(self, value: float) -> float:
        """Map a scalar literal from the IR into this ring's carrier.

        The real ring takes literals at face value.  Every other ring only
        understands *counting* literals — non-negative integers read through
        :meth:`from_int` — because that is the interpretation under which
        the audit proved the literal-bearing rewrites (``A + A = 2·A``,
        ``Σ_i A = |i|·A``, identity absorption) semiring-generic.  Negative
        or fractional literals have no counting reading and raise
        :class:`RingLiteralError` instead of silently computing nonsense.
        """
        if self.is_real:
            return float(value)
        numeric = float(value)
        if not np.isfinite(numeric) or numeric < 0 or numeric != int(numeric):
            raise RingLiteralError(
                f"literal {value!r} has no counting interpretation under the "
                f"{self.name!r} semiring; only integers n >= 0 (read as the "
                "n-fold ⊕ of one) are ring-generic"
            )
        return self.from_int(int(numeric))

    def aggregate(self, array: Array, axis=None, keepdims: bool = False) -> Array:
        """⊕-reduce ``array`` over ``axis`` (``None`` = all axes)."""
        if axis is None:
            axis = tuple(range(array.ndim))
        if isinstance(axis, int):
            axis = (axis,)
        result = array
        for position in sorted(axis, reverse=True):
            result = self._reduce(result, position)
        if keepdims:
            result = np.expand_dims(result, tuple(sorted(axis)))
        return np.asarray(result)

    def _reduce(self, array: Array, axis: int) -> Array:
        if array.shape[axis] == 0:
            shape = list(array.shape)
            del shape[axis]
            return np.full(shape, self.zero)
        ufunc = getattr(self.add, "reduce", None)
        if ufunc is not None:
            return self.add.reduce(array, axis=axis)  # type: ignore[union-attr]
        slices = np.moveaxis(array, axis, 0)
        total = slices[0]
        for part in slices[1:]:
            total = self.add(total, part)
        return total

    def fill(self, shape: Tuple[int, ...], value: float) -> Array:
        return np.full(shape, value, dtype=np.float64)

    def sample_sparse(
        self, rng: np.random.Generator, shape: Tuple[int, ...], sparsity: Optional[float]
    ) -> Array:
        """A sample whose expected density matches a sparsity hint.

        Entries knocked out by the hint take the ring's *zero* (``+inf`` in
        min-plus, ``0`` elsewhere), so an all-zero hint really produces the
        ⊕-identity tensor the sparsity-conditioned rewrites assume.
        """
        dense = self.sample(rng, shape)
        if sparsity is None or sparsity >= 1.0:
            return dense
        mask = rng.random(shape) < float(max(sparsity, 0.0))
        return np.where(mask, dense, self.zero)

    def allclose(self, left: Array, right: Array) -> bool:
        left = np.asarray(left, dtype=np.float64)
        right = np.asarray(right, dtype=np.float64)
        if left.shape != right.shape:
            try:
                left, right = np.broadcast_arrays(left, right)
            except ValueError:
                return False
        if self.rtol == 0.0 and self.atol == 0.0:
            return bool(np.array_equal(left, right))
        # equal_nan=False; infinities (the min-plus zero) compare equal.
        return bool(np.allclose(left, right, rtol=self.rtol, atol=self.atol))


def _sample_real(rng: np.random.Generator, shape: Tuple[int, ...]) -> Array:
    # Positive and bounded away from zero so divisions stay well-conditioned.
    return rng.uniform(0.5, 2.0, size=shape)


def _sample_tropical(rng: np.random.Generator, shape: Tuple[int, ...]) -> Array:
    return rng.uniform(0.0, 10.0, size=shape)


def _sample_bool(rng: np.random.Generator, shape: Tuple[int, ...]) -> Array:
    return (rng.random(shape) < 0.5).astype(np.float64)


REAL = Semiring(
    name="real",
    description="(ℝ, +, ×) — the arithmetic the optimizer was built for",
    zero=0.0,
    one=1.0,
    add=np.add,
    mul=np.multiply,
    sample=_sample_real,
    has_subtraction=True,
    has_division=True,
    idempotent=False,
    sub=np.subtract,
    div=np.divide,
)

MIN_PLUS = Semiring(
    name="min-plus",
    description="(ℝ ∪ {+∞}, min, +) — shortest paths / Viterbi",
    zero=float("inf"),
    one=0.0,
    add=np.minimum,
    mul=np.add,
    sample=_sample_tropical,
    has_subtraction=False,
    # ⊗ = + is a group operation: the ⊗-inverse is numeric negation.
    has_division=True,
    idempotent=True,
    div=np.subtract,
)

MAX_TIMES = Semiring(
    name="max-times",
    description="(ℝ≥0, max, ×) — most-probable path over probabilities",
    zero=0.0,
    one=1.0,
    add=np.maximum,
    mul=np.multiply,
    sample=_sample_real,
    has_subtraction=False,
    has_division=True,
    idempotent=True,
    div=np.divide,
)

BOOL_OR_AND = Semiring(
    name="bool",
    description="({0,1}, or, and) — reachability / relational semantics",
    zero=0.0,
    one=1.0,
    add=np.maximum,
    mul=np.minimum,
    sample=_sample_bool,
    has_subtraction=False,
    has_division=False,
    idempotent=True,
    rtol=0.0,
    atol=0.0,
)

#: the audit set, in report order
AUDIT_SEMIRINGS: Tuple[Semiring, ...] = (REAL, MIN_PLUS, MAX_TIMES, BOOL_OR_AND)

SEMIRINGS_BY_NAME: Dict[str, Semiring] = {ring.name: ring for ring in AUDIT_SEMIRINGS}


def resolve_semiring(ring: Union[str, Semiring, None]) -> Semiring:
    """Accept a ring object, a registered ring name, or ``None`` (→ real)."""
    if ring is None:
        return REAL
    if isinstance(ring, Semiring):
        return ring
    try:
        return SEMIRINGS_BY_NAME[ring]
    except KeyError:
        known = ", ".join(sorted(SEMIRINGS_BY_NAME))
        raise UnknownSemiringError(
            f"unknown semiring {ring!r}; known rings: {known}"
        ) from None


def capability_table() -> Dict[str, Dict[str, object]]:
    """The per-ring capability flags, as embedded in ``rule_matrix.json``."""
    return {
        ring.name: {
            "description": ring.description,
            "subtraction": ring.has_subtraction,
            "division": ring.has_division,
            "idempotent": ring.idempotent,
        }
        for ring in AUDIT_SEMIRINGS
    }
