"""The BUTF source language: syntax, parsing, printing, evaluation."""

from butfpi.butf.syntax import (
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
    free_vars,
    is_value,
    substitute,
)
from butfpi.butf.parse import ParseError, parse
from butfpi.butf.pretty import pretty
from butfpi.butf.eval import (
    AlreadyValue,
    Diverged,
    EvalResult,
    Reduced,
    Stuck,
    apply_arith,
    eval_expr,
    step,
)

__all__ = [
    "App", "Array", "Builtin", "Expr", "If", "Index", "Lam", "Num", "Tup", "Var",
    "free_vars", "is_value", "substitute",
    "ParseError", "parse", "pretty",
    "AlreadyValue", "Diverged", "EvalResult", "Reduced", "Stuck",
    "apply_arith", "eval_expr", "step",
]
