"""Abstract syntax for BUTF and the basic operations on terms.

Expressions are immutable trees.  The constructors mirror the grammar:
numbers, variables, arrays, indexing, lambda abstraction, application,
tuples, conditionals, and the builtin constants (``map``, ``iota``,
``size`` and the four uncurried arithmetic operators).

Values are the subset of expressions headed by a constant, a lambda, or an
array/tuple all of whose elements are values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from butfpi.lexer import _fresh_variant

ARITH_OPS = ("add", "sub", "mul", "div")
ARRAY_OPS = ("map", "iota", "size")
BUILTIN_OPS = ARRAY_OPS + ARITH_OPS


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Builtin:
    """A builtin constant: one of ``map iota size add sub mul div``."""

    op: str

    def __post_init__(self) -> None:
        if self.op not in BUILTIN_OPS:
            raise ValueError(f"unknown builtin {self.op!r}")


@dataclass(frozen=True)
class Array:
    items: tuple["Expr", ...]


@dataclass(frozen=True)
class Tup:
    items: tuple["Expr", ...]


@dataclass(frozen=True)
class Index:
    target: "Expr"
    index: "Expr"


@dataclass(frozen=True)
class Lam:
    param: str
    body: "Expr"


@dataclass(frozen=True)
class App:
    fun: "Expr"
    arg: "Expr"


@dataclass(frozen=True)
class If:
    cond: "Expr"
    then: "Expr"
    orelse: "Expr"


Expr = Union[Num, Var, Builtin, Array, Tup, Index, Lam, App, If]


def is_value(e: Expr) -> bool:
    """True iff ``e`` is in the value grammar.

    Constants and lambdas are values outright; arrays and tuples are values
    exactly when every element is.
    """
    match e:
        case Num() | Builtin() | Lam():
            return True
        case Array(items) | Tup(items):
            return all(is_value(x) for x in items)
        case _:
            return False


def free_vars(e: Expr) -> frozenset[str]:
    match e:
        case Num() | Builtin():
            return frozenset()
        case Var(name):
            return frozenset((name,))
        case Array(items) | Tup(items):
            out: frozenset[str] = frozenset()
            for x in items:
                out |= free_vars(x)
            return out
        case Index(target, index):
            return free_vars(target) | free_vars(index)
        case Lam(param, body):
            return free_vars(body) - {param}
        case App(fun, arg):
            return free_vars(fun) | free_vars(arg)
        case If(cond, then, orelse):
            return free_vars(cond) | free_vars(then) | free_vars(orelse)
    raise TypeError(f"not an expression: {e!r}")


def substitute(e: Expr, x: str, v: Expr) -> Expr:
    """Capture-avoiding substitution ``e{x := v}``.

    Binders that would capture a free variable of ``v`` are renamed to a
    fresh identifier first.  The evaluator only ever substitutes values, but
    the function is defined for arbitrary ``v``.
    """
    return _substitute(e, x, v, free_vars(v))


def _substitute(e: Expr, x: str, v: Expr, fv_v: frozenset[str]) -> Expr:
    # a module function, not a recursive closure: the closure would be a
    # reference cycle left for the cyclic collector on every call
    match e:
        case Num() | Builtin():
            return e
        case Var(name):
            return v if name == x else e
        case Array(items):
            return Array(tuple(_substitute(it, x, v, fv_v) for it in items))
        case Tup(items):
            return Tup(tuple(_substitute(it, x, v, fv_v) for it in items))
        case Index(target, index):
            return Index(_substitute(target, x, v, fv_v), _substitute(index, x, v, fv_v))
        case App(fun, arg):
            return App(_substitute(fun, x, v, fv_v), _substitute(arg, x, v, fv_v))
        case If(cond, then, orelse):
            return If(_substitute(cond, x, v, fv_v), _substitute(then, x, v, fv_v),
                      _substitute(orelse, x, v, fv_v))
        case Lam(param, body):
            if param == x or x not in free_vars(body):
                return e
            if param in fv_v:
                renamed = _fresh_variant(param, fv_v | free_vars(body) | {x})
                body = substitute(body, param, Var(renamed))
                param = renamed
            return Lam(param, _substitute(body, x, v, fv_v))
    raise TypeError(f"not an expression: {e!r}")
