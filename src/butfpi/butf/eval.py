"""Call-by-value small-step evaluation of BUTF.

``step`` performs exactly one reduction under the deterministic
leftmost-outermost strategy: in an application the function is evaluated
before the argument, array and tuple elements evaluate left to right, a
conditional evaluates only its condition, and the builtins fire once their
argument is a value.  Each reduction is labeled with the rule that fired
(``E-BETA``, ``E-INDEX``, ``E-IF-TRUE``, ``E-IF-FALSE``, ``E-MAP``,
``E-SIZE``, ``E-IOTA``, ``E-ARITH``) plus the position of the subterm that
stepped, which is the congruence marker (an array element step at position
``i`` carries path ``(i, ...)``).

``eval_expr`` iterates ``step`` under a fuel bound and counts reductions;
congruence descent never adds to the count beyond the one rule fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from butfpi.butf.pretty import pretty
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
    is_value,
    substitute,
)

@dataclass(frozen=True)
class Reduced:
    expr: Expr
    rule: str
    path: tuple[int, ...] = ()
    map_fn: Lam | None = None  # on E-MAP, the function that was mapped


@dataclass(frozen=True)
class AlreadyValue:
    pass


@dataclass(frozen=True)
class Stuck:
    reason: str
    steps: int = 0


@dataclass(frozen=True)
class Diverged:
    steps: int


@dataclass(frozen=True)
class TraceEntry:
    index: int
    rule: str
    path: tuple[int, ...]
    after: str


@dataclass(frozen=True)
class EvalResult:
    value: Expr
    steps: int
    map_fns: tuple[Lam, ...] = ()
    trace: tuple[TraceEntry, ...] = ()
    rule_counts: tuple[tuple[str, int], ...] = ()

    def count(self, rule: str) -> int:
        return dict(self.rule_counts).get(rule, 0)


def apply_arith(op: str, a: int, b: int) -> int:
    """Exact integer arithmetic; division truncates toward zero."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0:
            raise ZeroDivisionError("division by zero")
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q
    raise ValueError(f"unknown arithmetic op {op!r}")


def step(e: Expr) -> Reduced | AlreadyValue | Stuck:
    if is_value(e):
        return AlreadyValue()
    return _step(e)


def _descend(e: Expr, child: Expr, pos: int, rebuild) -> Reduced | Stuck:
    sub = _step(child)
    if isinstance(sub, Stuck):
        return sub
    return Reduced(rebuild(sub.expr), sub.rule, (pos,) + sub.path, sub.map_fn)


def _step(e: Expr) -> Reduced | Stuck:
    # precondition: e is not a value
    match e:
        case Var(name):
            return Stuck(f"free variable {name!r} in redex position")
        case Array(items):
            for i, item in enumerate(items):
                if not is_value(item):
                    pre, post = items[:i], items[i + 1:]
                    return _descend(e, item, i, lambda x: Array(pre + (x,) + post))
        case Tup(items):
            for i, item in enumerate(items):
                if not is_value(item):
                    pre, post = items[:i], items[i + 1:]
                    return _descend(e, item, i, lambda x: Tup(pre + (x,) + post))
        case Index(target, index):
            if not is_value(target):
                return _descend(e, target, 0, lambda x: Index(x, index))
            if not is_value(index):
                return _descend(e, index, 1, lambda x: Index(target, x))
            return _project(target, index)
        case If(cond, then, orelse):
            if not is_value(cond):
                return _descend(e, cond, 0, lambda x: If(x, then, orelse))
            if cond == Num(0):
                return Reduced(orelse, "E-IF-FALSE")
            return Reduced(then, "E-IF-TRUE")
        case App(fun, arg):
            if not is_value(fun):
                return _descend(e, fun, 0, lambda x: App(x, arg))
            if not is_value(arg):
                return _descend(e, arg, 1, lambda x: App(fun, x))
            return _apply(fun, arg)
    raise AssertionError(f"unhandled non-value expression: {e!r}")


def _project(target: Expr, index: Expr) -> Reduced | Stuck:
    if not isinstance(target, Array):
        return Stuck("index target not an array")
    if not isinstance(index, Num):
        return Stuck("index not a number")
    i = index.value
    if i < 0 or i >= len(target.items):
        return Stuck(f"index {i} out of bounds for array of size {len(target.items)}")
    return Reduced(target.items[i], "E-INDEX")


def _apply(fun: Expr, arg: Expr) -> Reduced | Stuck:
    match fun:
        case Lam(param, body):
            return Reduced(substitute(body, param, arg), "E-BETA")
        case Builtin("map"):
            match arg:
                case Tup((Lam(param, body) as fn, Array(vals))):
                    out = tuple(substitute(body, param, v) for v in vals)
                    return Reduced(Array(out), "E-MAP", map_fn=fn)
                case _:
                    return Stuck("map needs a (lambda, array) pair")
        case Builtin("iota"):
            if isinstance(arg, Num):
                return Reduced(Array(tuple(Num(i) for i in range(max(arg.value, 0)))), "E-IOTA")
            return Stuck("iota needs a number")
        case Builtin("size"):
            if isinstance(arg, Array):
                return Reduced(Num(len(arg.items)), "E-SIZE")
            return Stuck("size needs an array")
        case Builtin(op) if op in ARITH_OPS:
            match arg:
                case Tup((Num(a), Num(b))):
                    try:
                        return Reduced(Num(apply_arith(op, a, b)), "E-ARITH")
                    except ZeroDivisionError:
                        return Stuck("division by zero")
                case _:
                    return Stuck("arithmetic needs a pair of numbers")
        case _:
            return Stuck("cannot apply a non-function value")
    raise AssertionError("unreachable")


def eval_expr(e: Expr, fuel: int = 1_000_000, want_trace: bool = False
              ) -> EvalResult | Stuck | Diverged:
    """Iterate ``step`` until a value, stuck state, or fuel exhaustion.

    ``steps`` counts fired reductions.  ``map_fns`` records the mapped
    function at each E-MAP firing in order; the translation side needs it
    to account for dummy function calls.
    """
    steps = 0
    map_fns: list[Lam] = []
    trace: list[TraceEntry] = []
    counts: dict[str, int] = {}
    while True:
        outcome = step(e)
        match outcome:
            case AlreadyValue():
                return EvalResult(e, steps, tuple(map_fns), tuple(trace),
                                  tuple(sorted(counts.items())))
            case Stuck(reason):
                return Stuck(reason, steps)
            case Reduced(next_e, rule, path, map_fn):
                if steps >= fuel:
                    return Diverged(steps)
                steps += 1
                counts[rule] = counts.get(rule, 0) + 1
                if map_fn is not None:
                    map_fns.append(map_fn)
                if want_trace:
                    trace.append(TraceEntry(steps, rule, path, pretty(next_e)))
                e = next_e
