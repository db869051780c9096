"""Pretty-printer producing a DML-like surface syntax for LA expressions.

The output round-trips through :func:`repro.lang.parser.parse_expr` for the
operators the parser supports, which keeps the SystemML rewrite catalog
(strings) and the internal IR in one notation.
"""

from __future__ import annotations

from repro.lang import expr as e


def pretty(node: e.LAExpr) -> str:
    """Render ``node`` as a DML-like string."""
    return _render(node, 0)


# precedence levels: higher binds tighter
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_MATMUL = 3
_PREC_UNARY = 4
_PREC_POW = 5
_PREC_ATOM = 6


def _paren(text: str, inner_prec: int, outer_prec: int) -> str:
    if inner_prec < outer_prec:
        return f"({text})"
    return text


def _number(value: float) -> str:
    """A constant as DML text: integral values without the ``.0``.

    ``float.is_integer`` is false for ``inf`` / ``nan`` where ``int(value)``
    raises, so the non-finite constants the codec round-trips also print.
    """
    return str(int(value)) if float(value).is_integer() else repr(value)


#: infix operators: node type -> (symbol, precedence); all left-associative
_INFIX = {
    e.MatMul: ("%*%", _PREC_MATMUL),
    e.ElemMul: ("*", _PREC_MUL),
    e.ElemDiv: ("/", _PREC_MUL),
    e.ElemPlus: ("+", _PREC_ADD),
    e.ElemMinus: ("-", _PREC_ADD),
}

#: function-call syntax: node type -> DML function name
_CALLS = {
    e.Transpose: "t",
    e.RowSums: "rowSums",
    e.ColSums: "colSums",
    e.Sum: "sum",
    e.CastScalar: "as.scalar",
    e.WSLoss: "wsloss",
    e.WCeMM: "wcemm",
    e.WDivMM: "wdivmm",
    e.SProp: "sprop",
    e.MMChain: "mmchain",
}


def _dim_text(dim) -> str:
    return str(dim.size) if dim.size is not None else dim.name


def _render(node: e.LAExpr, outer_prec: int) -> str:
    if isinstance(node, e.Var):
        return node.name
    if isinstance(node, e.Literal):
        return _number(node.value)
    if isinstance(node, e.FilledMatrix):
        shape = node.fill_shape
        return f"matrix({_number(node.value)}, {_dim_text(shape.rows)}, {_dim_text(shape.cols)})"
    kind = type(node)
    if kind in _INFIX:
        symbol, prec = _INFIX[kind]
        text = f"{_render(node.left, prec)} {symbol} {_render(node.right, prec + 1)}"
        return _paren(text, prec, outer_prec)
    if kind is e.Power:
        text = f"{_render(node.child, _PREC_POW + 1)} ^ {_number(node.exponent)}"
        return _paren(text, _PREC_POW, outer_prec)
    if kind is e.Neg:
        text = f"-{_render(node.child, _PREC_UNARY)}"
        return _paren(text, _PREC_UNARY, outer_prec)
    # everything else is a call: a node type without DML spelling (one
    # declared outside this package) prints under its class name
    args = [_render(child, 0) for child in node.children]
    if kind is e.UnaryFunc:
        return f"{node.func}({args[0]})"
    if kind is e.WDivMM:
        args.append("left" if node.multiply_left else "right")
    elif kind not in _CALLS:
        args.extend(repr(value) for value in node.static)
    return f"{_CALLS.get(kind, kind.__name__)}({', '.join(args)})"
