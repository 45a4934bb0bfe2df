"""Printing BUTF expressions back to source text.

``parse(pretty(e))`` returns a tree structurally equal to ``e``: the printer
inserts parentheses exactly where the grammar's precedence would otherwise
reassociate, and prints uncurried arithmetic applications back in infix
form.
"""

from __future__ import annotations

from butfpi.butf.syntax import (
    ARITH_OPS,
    App,
    Array,
    Builtin,
    Expr,
    If,
    Index,
    Lam,
    Num,
    Tup,
    Var,
)
from butfpi.lexer import OP_NAMES

_OP_SYMBOL = {name: symbol for symbol, name in OP_NAMES.items()}

# precedence levels: 0 lambda/if, 1 add/sub, 2 mul/div, 3 application,
# 4 indexing/atoms.  An expression is parenthesized when its own level is
# below the level its context demands.
_LOOSE, _ADD, _MUL, _APP, _TIGHT = 0, 1, 2, 3, 4


def _infix_parts(e: Expr) -> tuple[str, Expr, Expr] | None:
    match e:
        case App(Builtin(op), Tup((left, right))) if op in ARITH_OPS:
            return _OP_SYMBOL[op], left, right
    return None


def _level(e: Expr) -> int:
    match e:
        case Lam() | If():
            return _LOOSE
        case Num(v) if v < 0:
            # a bare negative literal is fine except as an application
            # argument, where `f -3` would read as subtraction
            return _APP
        case App():
            infix = _infix_parts(e)
            if infix is None:
                return _APP
            return _ADD if infix[0] in "+-" else _MUL
        case Index():
            return _TIGHT
        case _:
            return _TIGHT


def _show(e: Expr, level: int) -> str:
    text = _bare(e)
    return f"({text})" if _level(e) < level else text


def _bare(e: Expr) -> str:
    match e:
        case Num(v):
            return str(v)
        case Var(name):
            return name
        case Builtin(op):
            return op if op not in ARITH_OPS else f"({_OP_SYMBOL[op]})"
        case Array(items):
            return "[" + ", ".join(_show(x, _LOOSE) for x in items) + "]"
        case Tup(items):
            if len(items) == 0:
                return "()"
            if len(items) == 1:
                return f"({_show(items[0], _LOOSE)},)"
            return "(" + ", ".join(_show(x, _LOOSE) for x in items) + ")"
        case Index(target, index):
            return f"{_show(target, _TIGHT)}[{_show(index, _LOOSE)}]"
        case Lam(param, body):
            return f"\\{param}. {_show(body, _LOOSE)}"
        case If(cond, then, orelse):
            return f"if {_show(cond, _ADD)} then {_show(then, _ADD)} else {_show(orelse, _LOOSE)}"
        case App():
            infix = _infix_parts(e)
            if infix is not None:
                sym, left, right = infix
                lvl = _ADD if sym in "+-" else _MUL
                return f"{_show(left, lvl)} {sym} {_show(right, lvl + 1)}"
            return f"{_show(e.fun, _APP)} {_show(e.arg, _TIGHT)}"
    raise TypeError(f"not an expression: {e!r}")


def pretty(e: Expr) -> str:
    """Render ``e`` as parseable source text."""
    return _bare(e)
