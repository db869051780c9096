"""Canonical forms for RA expressions (Sec. 2.3 and Appendix A).

The completeness argument of the paper rests on a normal form: every RPlan
is equivalent to a *polyterm* — a sum of terms, each term a constant
coefficient times an aggregation over a monomial (a bag of indexed tensor
atoms) — and two expressions are semantically equal iff their polyterms are
isomorphic (Definition A.5, Theorem A.3).  This module implements:

* the data model: :class:`Atom`, :class:`Term`, :class:`Polyterm`
  (Definition A.2);
* :func:`canonicalize` — rewrite any RA expression into its polyterm using
  exactly the transformations the R_EQ rules justify (distribute ``*`` over
  ``+``, push aggregations onto each term, merge repeated atoms and
  isomorphic terms);
* term homomorphism and isomorphism (Definitions A.3 and A.4), decided by
  backtracking over bound-index bijections;
* :func:`equivalent` — the decision procedure for semantic equivalence of
  two RA expressions (and, through lowering, of two LA expressions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.ra.attrs import Attr
from repro.ra.rexpr import RAdd, RExpr, RJoin, RLit, RSum, RVar, unfused
from repro.translate.lower import ONES_PREFIX


# ---------------------------------------------------------------------------
# Data model (Definition A.2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """An indexed tensor occurrence ``X(i, j)``."""

    name: str
    indices: Tuple[str, ...]

    def rename(self, mapping: Dict[str, str]) -> "Atom":
        return Atom(self.name, tuple(mapping.get(i, i) for i in self.indices))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.name}({','.join(self.indices)})"


@dataclass(frozen=True)
class Term:
    """An aggregation over a monomial: ``Σ_{bound} Π atoms``.

    ``atoms`` is a sorted tuple (a canonical bag representation — repeated
    atoms simply appear several times, which encodes powers), ``bound`` the
    aggregated index names, ``agg_sizes`` the extents of aggregated indices
    that do not occur in any atom (rule 5 turns those into multiplicative
    factors, but we keep them symbolically so terms over different dimension
    sizes stay distinct).
    """

    atoms: Tuple[Atom, ...]
    bound: FrozenSet[str]
    agg_sizes: Tuple[str, ...] = ()

    @property
    def free(self) -> FrozenSet[str]:
        used = {i for atom in self.atoms for i in atom.indices}
        return frozenset(used - self.bound)

    @property
    def all_indices(self) -> FrozenSet[str]:
        return frozenset(i for atom in self.atoms for i in atom.indices)

    def signature(self) -> tuple:
        """A cheap invariant used to prune isomorphism checks."""
        histogram = sorted((atom.name, len(atom.indices)) for atom in self.atoms)
        return (tuple(histogram), len(self.bound), tuple(sorted(self.agg_sizes)), tuple(sorted(self.free)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = ",".join(sorted(self.bound))
        atoms = " * ".join(map(repr, self.atoms))
        prefix = f"Σ_{{{bound}}} " if bound else ""
        return f"{prefix}{atoms}"


@dataclass
class Polyterm:
    """A sum of coefficient-weighted terms plus a constant (Definition A.2)."""

    terms: List[Tuple[float, Term]] = field(default_factory=list)
    constant: float = 0.0

    def is_zero(self) -> bool:
        return not self.terms and self.constant == 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{coeff:g}·[{term!r}]" for coeff, term in self.terms]
        if self.constant or not parts:
            parts.append(f"{self.constant:g}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Canonicalization (Lemma 2.1)
# ---------------------------------------------------------------------------


class _FreshNames:
    """Generates globally fresh bound-index names during canonicalization."""

    def __init__(self) -> None:
        self.counter = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}#{self.counter}"


def canonicalize(expr: RExpr) -> Polyterm:
    """Compute the canonical polyterm of an RA expression.

    The transformation mirrors the proof of Lemma 2.1: distribute joins over
    unions, push aggregations down to each term (renaming bound indices
    apart so scopes never collide), fold constants, and merge isomorphic
    terms by adding their coefficients.  A fused node is read as its
    definition.
    """
    poly = _expand(unfused(expr), _FreshNames())
    return _combine(poly)


def _expand(expr: RExpr, fresh: _FreshNames) -> Polyterm:
    if isinstance(expr, RLit):
        return Polyterm(terms=[], constant=float(expr.value))
    if isinstance(expr, RVar):
        atom = Atom(expr.name, tuple(attr.name for attr in expr.attrs))
        return Polyterm(terms=[(1.0, Term(atoms=(atom,), bound=frozenset()))])
    if isinstance(expr, RAdd):
        result = Polyterm()
        for arg in expr.args:
            part = _expand(arg, fresh)
            result.terms.extend(part.terms)
            result.constant += part.constant
        return result
    if isinstance(expr, RJoin):
        parts = [_expand(arg, fresh) for arg in expr.args]
        return _product(parts)
    if isinstance(expr, RSum):
        inner = _expand(expr.child, fresh)
        return _aggregate(inner, expr.indices, fresh)
    raise TypeError(f"cannot canonicalize {type(expr).__name__}")


def _product(parts: Sequence[Polyterm]) -> Polyterm:
    """Distribute a join over the polyterms of its arguments."""
    result = Polyterm(terms=[(1.0, Term(atoms=(), bound=frozenset()))], constant=0.0)
    # Treat the polyterm as coefficient*terms plus constant, i.e. a list of
    # (coeff, Optional[Term]) summands where None stands for the constant 1.
    summands: List[Tuple[float, Optional[Term]]] = [(1.0, None)]
    for part in parts:
        new_summands: List[Tuple[float, Optional[Term]]] = []
        part_summands: List[Tuple[float, Optional[Term]]] = [
            (coeff, term) for coeff, term in part.terms
        ]
        if part.constant != 0.0:
            part_summands.append((part.constant, None))
        for coeff_a, term_a in summands:
            for coeff_b, term_b in part_summands:
                new_summands.append((coeff_a * coeff_b, _merge_terms(term_a, term_b)))
        summands = new_summands
    result = Polyterm()
    for coeff, term in summands:
        if coeff == 0.0:
            continue
        if term is None or (not term.atoms and not term.bound and not term.agg_sizes):
            result.constant += coeff
        else:
            result.terms.append((coeff, term))
    return result


def _merge_terms(a: Optional[Term], b: Optional[Term]) -> Optional[Term]:
    if a is None:
        return b
    if b is None:
        return a
    # Bound indices were renamed apart when aggregations were pushed, and
    # joins of two aggregations keep disjoint scopes, so a plain union is
    # capture-free here.
    return Term(
        atoms=tuple(sorted(a.atoms + b.atoms, key=_atom_key)),
        bound=a.bound | b.bound,
        agg_sizes=tuple(sorted(a.agg_sizes + b.agg_sizes)),
    )


def _aggregate(poly: Polyterm, indices: Iterable[Attr], fresh: _FreshNames) -> Polyterm:
    """Push ``Σ_indices`` onto every term of ``poly`` (rules 2, 4, 5)."""
    index_list = sorted(indices, key=lambda a: a.name)
    result = Polyterm()
    for coeff, term in poly.terms:
        renaming: Dict[str, str] = {}
        new_bound = set(term.bound)
        extra_sizes: List[str] = []
        new_coeff = coeff
        for attr in index_list:
            if attr.name in term.free:
                fresh_name = fresh.fresh(attr.name)
                renaming[attr.name] = fresh_name
                new_bound.add(fresh_name)
            else:
                # Rule 5: Σ_i over a term that does not mention i scales it by dim(i).
                if attr.size is not None:
                    new_coeff *= attr.size
                else:
                    extra_sizes.append(attr.name.split("#")[0])
        atoms = tuple(sorted((atom.rename(renaming) for atom in term.atoms), key=_atom_key))
        bound = frozenset(renaming.get(i, i) for i in new_bound)
        result.terms.append(
            (new_coeff, Term(atoms=atoms, bound=bound, agg_sizes=term.agg_sizes + tuple(extra_sizes)))
        )
    if poly.constant != 0.0:
        constant = poly.constant
        extra_sizes = []
        for attr in index_list:
            if attr.size is not None:
                constant *= attr.size
            else:
                extra_sizes.append(attr.name.split("#")[0])
        if extra_sizes:
            result.terms.append((constant, Term(atoms=(), bound=frozenset(), agg_sizes=tuple(sorted(extra_sizes)))))
        else:
            result.constant += constant
    return result


def _atom_key(atom: Atom) -> tuple:
    return (atom.name, atom.indices)


def _drop_redundant_ones(term: Term) -> Term:
    """Remove all-ones broadcast atoms whose indices other atoms already carry.

    The lowering pads broadcast additions with synthetic all-ones tensors to
    keep unions schema-compatible.  Inside a monomial such an atom is a
    no-op whenever its index also appears on a real tensor, so the canonical
    form drops it; it is kept only when it alone carries an index (where it
    genuinely encodes a replication along that axis).
    """
    real_indices = {
        i for atom in term.atoms if not atom.name.startswith(ONES_PREFIX) for i in atom.indices
    }
    kept: List[Atom] = []
    for atom in term.atoms:
        if atom.name.startswith(ONES_PREFIX) and set(atom.indices) <= real_indices:
            continue
        kept.append(atom)
    if len(kept) == len(term.atoms):
        return term
    return Term(atoms=tuple(sorted(kept, key=_atom_key)), bound=term.bound, agg_sizes=term.agg_sizes)


def _combine(poly: Polyterm) -> Polyterm:
    """Merge isomorphic terms by adding coefficients (the last canonical step)."""
    remaining: List[Tuple[float, Term]] = []
    for coeff, term in poly.terms:
        term = _drop_redundant_ones(term)
        for position, (existing_coeff, existing_term) in enumerate(remaining):
            if isomorphic(term, existing_term):
                remaining[position] = (existing_coeff + coeff, existing_term)
                break
        else:
            remaining.append((coeff, term))
    remaining = [(coeff, term) for coeff, term in remaining if coeff != 0.0]
    remaining.sort(key=lambda pair: (pair[1].signature(), pair[0]))
    return Polyterm(terms=remaining, constant=poly.constant)


# ---------------------------------------------------------------------------
# Homomorphism and isomorphism (Definitions A.3, A.4)
# ---------------------------------------------------------------------------


def homomorphism(source: Term, target: Term) -> Optional[Dict[str, str]]:
    """Find a map of bound indices taking ``source``'s bag onto ``target``'s.

    Free indices must map to themselves.  Returns the mapping, or ``None``
    when no homomorphism exists.
    """
    if len(source.atoms) != len(target.atoms):
        return None
    if source.free != target.free:
        return None
    if sorted(source.agg_sizes) != sorted(target.agg_sizes):
        return None
    mapping: Dict[str, str] = {name: name for name in source.free}
    used_targets: List[Atom] = list(target.atoms)
    return _match_atoms(list(source.atoms), used_targets, mapping, source.bound, target.bound)


def _match_atoms(
    source_atoms: List[Atom],
    target_atoms: List[Atom],
    mapping: Dict[str, str],
    source_bound: FrozenSet[str],
    target_bound: FrozenSet[str],
) -> Optional[Dict[str, str]]:
    if not source_atoms:
        return dict(mapping)
    atom = source_atoms[0]
    rest = source_atoms[1:]
    for position, candidate in enumerate(target_atoms):
        if candidate is None or candidate.name != atom.name or len(candidate.indices) != len(atom.indices):
            continue
        extension = dict(mapping)
        feasible = True
        for source_index, target_index in zip(atom.indices, candidate.indices):
            if source_index in extension:
                if extension[source_index] != target_index:
                    feasible = False
                    break
            else:
                if source_index in source_bound and target_index not in target_bound:
                    feasible = False
                    break
                extension[source_index] = target_index
        if not feasible:
            continue
        remaining = list(target_atoms)
        remaining[position] = None
        result = _match_atoms(rest, remaining, extension, source_bound, target_bound)
        if result is not None:
            return result
    return None


def isomorphic(a: Term, b: Term) -> bool:
    """Term isomorphism: a bijective homomorphism exists (Definition A.4)."""
    if a.signature() != b.signature():
        return False
    forward = homomorphism(a, b)
    if forward is None:
        return False
    # A pair of homomorphisms induces an isomorphism (Lemma A.1); since the
    # atom bags have equal size, a surjective forward map of the indices is
    # enough, but we check the reverse direction for robustness.
    backward = homomorphism(b, a)
    return backward is not None


def polyterms_isomorphic(a: Polyterm, b: Polyterm, tolerance: float = 1e-9) -> bool:
    """Isomorphism of canonical expressions (Definition A.7)."""
    if abs(a.constant - b.constant) > tolerance:
        return False
    if len(a.terms) != len(b.terms):
        return False
    unmatched = list(b.terms)
    for coeff, term in a.terms:
        for position, (other_coeff, other_term) in enumerate(unmatched):
            if other_term is None:
                continue
            if abs(coeff - other_coeff) <= tolerance and isomorphic(term, other_term):
                unmatched[position] = (other_coeff, None)
                break
        else:
            return False
    return True


def equivalent(a: RExpr, b: RExpr) -> bool:
    """Semantic equivalence of two RA expressions (Theorem A.3)."""
    return polyterms_isomorphic(canonicalize(a), canonicalize(b))
