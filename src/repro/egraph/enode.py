"""E-nodes: hash-consed operators whose children are e-class ids.

The operator alphabet matches the RA IR (translation happens before and after
saturation, Sec. 3.5):

=========  ====================================  ==========================
op         payload                               children
=========  ====================================  ==========================
``var``    ``(name, attrs)``                     none
``lit``    ``value`` (float)                     none
``*``      ``None``                              n e-class ids (n >= 2)
``+``      ``None``                              n e-class ids (n >= 2)
``sum``    ``frozenset[Attr]``                   one e-class id
``fused``  :class:`~repro.ra.rexpr.Fusion`       one e-class id per operand
=========  ====================================  ==========================

A ``fused`` e-node is a fused LA operator (``wsloss``, ``mmchain``,
``sprop``) over its operands' classes, in the class of its definition; it is
the one place an LA operator enters the graph, as the payload's opaque
``op``.

``*`` and ``+`` are associative and commutative (rules 6/7 of R_EQ), so
their children are stored as a sorted tuple; two joins of the same e-classes
in different orders are the *same* e-node.  This builds AC into congruence
instead of requiring explicit commutativity rewrites, which is how the
flattened n-ary representation in the paper behaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Tuple

OP_VAR = "var"
OP_LIT = "lit"
OP_JOIN = "*"
OP_ADD = "+"
OP_SUM = "sum"
OP_FUSED = "fused"

#: Operators whose children are unordered (associative & commutative).
AC_OPS = frozenset({OP_JOIN, OP_ADD})

_VALID_OPS = frozenset({OP_VAR, OP_LIT, OP_JOIN, OP_ADD, OP_SUM, OP_FUSED})


@dataclass(frozen=True)
class ENode:
    """An operator applied to e-class ids."""

    op: str
    payload: Hashable
    children: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.op not in _VALID_OPS:
            raise ValueError(f"unknown e-node operator {self.op!r}")
        # Every node is looked up in several dicts (hash-cons, class nodes,
        # op buckets, parents); hash the field tuple once, not per lookup.
        object.__setattr__(self, "_hash", hash((self.op, self.payload, self.children)))

    def __hash__(self) -> int:
        return self._hash

    def canonicalize(self, find) -> "ENode":
        """Rewrite children through ``find`` and restore canonical ordering."""
        children = tuple(map(find, self.children))
        if self.op in AC_OPS:
            children = tuple(sorted(children))
        if children == self.children:
            return self
        return ENode(self.op, self.payload, children)

    @cached_property
    def sort_key(self) -> Tuple:
        """Cheap structural ordering key: (op, payload key, children).

        Deterministic across processes (no object ids, no hash randomisation)
        and far cheaper than ``repr``-based ordering, which used to dominate
        e-matching profiles.
        """
        if self.op == OP_VAR:
            name, attrs = self.payload
            payload_key: Tuple = (name, tuple(_attr_key(a) for a in attrs))
        elif self.op == OP_LIT:
            payload_key = (self.payload,)
        elif self.op == OP_SUM:
            payload_key = tuple(sorted(_attr_key(a) for a in self.payload))
        elif self.op == OP_FUSED:
            payload_key = self.payload.key
        else:
            payload_key = ()
        return (self.op, payload_key, self.children)

    @cached_property
    def sort_repr(self) -> str:
        """``repr(self.sort_key)``, cached: searchers splice it into a match's
        sampling bytes instead of formatting the nested key per match."""
        return repr(self.sort_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.op == OP_VAR:
            name, attrs = self.payload
            return f"var:{name}({','.join(a.name for a in attrs)})"
        if self.op == OP_LIT:
            return f"lit:{self.payload}"
        if self.op == OP_SUM:
            names = ",".join(sorted(a.name for a in self.payload))
            return f"sum_{{{names}}}({self.children[0]})"
        if self.op == OP_FUSED:
            return f"fused:{self.payload.name}({','.join(map(str, self.children))})"
        return f"{self.op}({','.join(map(str, self.children))})"


def _attr_key(attr) -> Tuple:
    """Total-order key for an attribute (sizes may be ``None``)."""
    return (attr.name, attr.size is None, attr.size or 0)
