"""Schema utilities for RA expressions.

The schema of an RA expression is its set of free attributes; equivalent
expressions necessarily share it (Sec. 3.2 of the paper uses this fact as an
E-class invariant).  This module adds validation helpers used by tests and
by the translator, and the schema-compatibility checks the rewrite guards
need.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.ra.attrs import Attr
from repro.ra.rexpr import RAdd, RExpr, RJoin, RLit, RSum, RVar, all_indices, free_attrs, unfused


class SchemaError(ValueError):
    """Raised when an RA expression is structurally ill-formed."""


def validate(node: RExpr) -> FrozenSet[Attr]:
    """Check structural well-formedness and return the free attributes.

    Checks performed:

    * every argument of a union has the same schema (unions require
      union-compatible relations);
    * aggregates only bind attributes that actually occur free in their
      child;
    * no aggregate re-binds an attribute that is already bound deeper in the
      same expression (no shadowing — the translator guarantees globally
      unique bound names, and rewrites preserve this invariant because their
      guards are capture-avoiding).

    A fused node is checked as its definition.
    """
    node = unfused(node)
    _check_no_shadowing(node, frozenset())
    return _validate(node)


def _validate(node: RExpr) -> FrozenSet[Attr]:
    if isinstance(node, (RVar, RLit)):
        return free_attrs(node)
    if isinstance(node, RJoin):
        result: FrozenSet[Attr] = frozenset()
        for arg in node.args:
            result |= _validate(arg)
        return result
    if isinstance(node, RAdd):
        schemas = [_validate(arg) for arg in node.args]
        names = {frozenset(a.name for a in s) for s in schemas}
        if len(names) > 1:
            raise SchemaError(
                "union arguments have different schemas: "
                + ", ".join(sorted("{" + ",".join(sorted(n)) + "}" for n in names))
            )
        return schemas[0]
    if isinstance(node, RSum):
        child_schema = _validate(node.child)
        child_names = {a.name for a in child_schema}
        for attr in node.indices:
            if attr.name not in child_names:
                raise SchemaError(
                    f"aggregate binds {attr.name!r} which is not free in its child"
                )
        return frozenset(a for a in child_schema if a not in node.indices)
    raise TypeError(f"unknown RA node {type(node).__name__}")


def _check_no_shadowing(node: RExpr, bound_above: FrozenSet[str]) -> None:
    if isinstance(node, RSum):
        names = {a.name for a in node.indices}
        clash = names & bound_above
        if clash:
            raise SchemaError(f"aggregate shadows bound attribute(s) {sorted(clash)}")
        _check_no_shadowing(node.child, bound_above | names)
    else:
        for child in node.children:
            _check_no_shadowing(child, bound_above)


def arity(node: RExpr) -> int:
    """Number of free attributes."""
    return len(free_attrs(node))


def is_liftable(node: RExpr) -> bool:
    """Whether the schema fits back into linear algebra (at most 2 attrs)."""
    return arity(node) <= 2


def bound_indices(node: RExpr) -> FrozenSet[Attr]:
    """Attributes bound by some aggregate inside ``node``."""
    return all_indices(node) - free_attrs(node)


def attr_by_name(node: RExpr, name: str) -> Optional[Attr]:
    """Find an attribute (free or bound) by name, if present."""
    for attr in all_indices(node):
        if attr.name == name:
            return attr
    return None
