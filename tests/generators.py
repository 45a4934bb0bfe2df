"""Seeded structural fuzzers for expressions and processes."""

import random

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
)

VAR_POOL = ("a", "b", "x", "y", "z", "foo", "k_1", "_tmp")


def random_expr(rng: random.Random, depth: int = 4, bound: tuple[str, ...] = ()) -> Expr:
    """An arbitrary expression; may contain free variables."""
    if depth <= 0:
        leaves = ["num", "var", "builtin"]
        kind = rng.choice(leaves)
        if kind == "num":
            return Num(rng.randint(-20, 20))
        if kind == "var":
            pool = bound if bound and rng.random() < 0.7 else VAR_POOL
            return Var(rng.choice(pool))
        return Builtin(rng.choice(("map", "iota", "size", "add", "sub", "mul", "div")))
    kind = rng.choice(("num", "var", "lam", "app", "array", "tuple", "index", "if", "builtin"))
    sub = lambda d=1: random_expr(rng, depth - d, bound)
    if kind == "num":
        return Num(rng.randint(-20, 20))
    if kind == "var":
        pool = bound if bound and rng.random() < 0.7 else VAR_POOL
        return Var(rng.choice(pool))
    if kind == "builtin":
        return Builtin(rng.choice(("map", "iota", "size", "add", "sub", "mul", "div")))
    if kind == "lam":
        x = rng.choice(VAR_POOL)
        return Lam(x, random_expr(rng, depth - 1, bound + (x,)))
    if kind == "app":
        return App(sub(), sub())
    if kind == "array":
        return Array(tuple(sub() for _ in range(rng.randint(0, 3))))
    if kind == "tuple":
        return Tup(tuple(sub() for _ in range(rng.randint(0, 3))))
    if kind == "index":
        return Index(sub(), sub())
    return If(sub(), sub(), sub())


def random_closed_program(rng: random.Random, depth: int = 4) -> Expr:
    """A closed program in the translatable fragment.

    Builtins appear applied to plausibly shaped arguments so that most
    generated programs exercise the array machinery rather than getting
    stuck immediately; lambdas keep everything closed.
    """
    def go(depth: int, bound: tuple[str, ...]) -> Expr:
        if depth <= 0:
            if bound and rng.random() < 0.5:
                return Var(rng.choice(bound))
            return Num(rng.randint(-9, 9))
        kind = rng.choice((
            "num", "var", "lam", "beta", "array", "tuple", "index", "if",
            "arith", "iota", "size", "map",
        ))
        if kind == "num":
            return Num(rng.randint(-9, 9))
        if kind == "var":
            if bound:
                return Var(rng.choice(bound))
            return Num(rng.randint(-9, 9))
        if kind == "lam":
            x = f"v_{len(bound)}"
            return Lam(x, go(depth - 1, bound + (x,)))
        if kind == "beta":
            x = f"v_{len(bound)}"
            return App(Lam(x, go(depth - 1, bound + (x,))), go(depth - 1, bound))
        if kind == "array":
            return Array(tuple(go(depth - 1, bound) for _ in range(rng.randint(0, 3))))
        if kind == "tuple":
            return Tup(tuple(go(depth - 1, bound) for _ in range(rng.randint(0, 3))))
        if kind == "index":
            n = rng.randint(1, 3)
            arr = Array(tuple(go(depth - 2, bound) for _ in range(n)))
            return Index(arr, Num(rng.randrange(n)))
        if kind == "if":
            return If(go(depth - 1, bound), go(depth - 1, bound), go(depth - 1, bound))
        if kind == "arith":
            op = rng.choice(("add", "sub", "mul"))
            return App(Builtin(op), Tup((go(depth - 1, bound), go(depth - 1, bound))))
        if kind == "iota":
            return App(Builtin("iota"), Num(rng.randint(0, 3)))
        if kind == "size":
            return App(Builtin("size"),
                       Array(tuple(go(depth - 2, bound) for _ in range(rng.randint(0, 2)))))
        body = Lam("m", go(depth - 2, bound + ("m",)))
        arr = Array(tuple(go(depth - 2, bound) for _ in range(rng.randint(0, 2))))
        return App(Builtin("map"), Tup((body, arr)))

    return go(depth, ())


def random_value(rng: random.Random, depth: int = 3) -> Expr:
    """A value: numbers, lambdas (possibly with free variables), arrays/tuples
    of values.  Open lambdas are deliberate: they exercise capture avoidance."""
    if depth <= 0 or rng.random() < 0.4:
        return Num(rng.randint(-50, 50))
    kind = rng.choice(("num", "lam", "array", "tuple", "builtin"))
    if kind == "num":
        return Num(rng.randint(-50, 50))
    if kind == "builtin":
        return Builtin(rng.choice(("map", "iota", "size", "add")))
    if kind == "lam":
        x = rng.choice(VAR_POOL)
        return Lam(x, random_expr(rng, depth - 1, (x,)))
    if kind == "array":
        return Array(tuple(random_value(rng, depth - 1) for _ in range(rng.randint(0, 3))))
    return Tup(tuple(random_value(rng, depth - 1) for _ in range(rng.randint(0, 3))))


# ------------------------------------------------------------- processes

from butfpi.epi.syntax import (  # noqa: E402
    Act,
    Bcast,
    Bullet,
    Chan,
    Match,
    NameT,
    New,
    Nil,
    NumT,
    OpT,
    Par,
    Process,
    Recv,
    Repl,
    Send,
    Term,
    VarT,
)

NAME_POOL = ("a", "b", "c", "d_sig", "o", "h", "k")
SUFFIXES = (None, None, None, 0, 1, "all", "tup", "len")


def random_term(rng: random.Random, bound_vars: tuple[str, ...], depth: int = 2) -> Term:
    if depth <= 0 or rng.random() < 0.5:
        kind = rng.choice(("num", "name", "var"))
        if kind == "num":
            return NumT(rng.randint(-9, 9))
        if kind == "var" and bound_vars:
            return VarT(rng.choice(bound_vars))
        return NameT(rng.choice(NAME_POOL))
    op = rng.choice(("add", "sub", "mul"))
    return OpT(op, random_term(rng, bound_vars, depth - 1),
               random_term(rng, bound_vars, depth - 1))


def random_chan(rng: random.Random, bound_vars: tuple[str, ...]) -> Chan:
    if bound_vars and rng.random() < 0.2:
        base: Term = VarT(rng.choice(bound_vars))
    else:
        base = NameT(rng.choice(NAME_POOL))
    return Chan(base, rng.choice(SUFFIXES))


def random_process(rng: random.Random, depth: int = 3,
                   bound_vars: tuple[str, ...] = (),
                   param_pool: tuple[str, ...] | None = None) -> Process:
    """A process whose variables are all receive-bound (free identifiers are
    names), replications and bullets guard sequential processes.  With
    ``param_pool`` receive parameters are spelled from it (distinct within
    one receive), so that they may spell names too."""
    if depth <= 0:
        return rng.choice((Nil(), _random_action(rng, 0, bound_vars, param_pool)))
    kind = rng.choice(("nil", "act", "act", "par", "new", "match", "repl", "bullet"))
    if kind == "nil":
        return Nil()
    if kind == "act":
        return _random_action(rng, depth, bound_vars, param_pool)
    if kind == "par":
        return Par(random_process(rng, depth - 1, bound_vars, param_pool),
                   random_process(rng, depth - 1, bound_vars, param_pool))
    if kind == "new":
        return New(rng.choice(NAME_POOL),
                   random_process(rng, depth - 1, bound_vars, param_pool))
    if kind == "match":
        return Match(random_term(rng, bound_vars, 1),
                     rng.choice(("<", ">", "<=", ">=", "=", "!=")),
                     random_term(rng, bound_vars, 1),
                     random_process(rng, depth - 1, bound_vars, param_pool),
                     random_process(rng, depth - 1, bound_vars, param_pool))
    guarded = _random_action(rng, depth - 1, bound_vars, param_pool)
    return Repl(guarded) if kind == "repl" else Bullet(guarded)


def _random_action(rng: random.Random, depth: int, bound_vars: tuple[str, ...],
                   param_pool: tuple[str, ...] | None = None) -> Process:
    chan = random_chan(rng, bound_vars)
    kind = rng.choice(("send", "send", "recv", "bcast"))
    arity = rng.randint(0, 3)
    if kind == "recv":
        params: list[str | None] = []
        inner_vars = bound_vars
        for i in range(arity):
            if rng.random() < 0.2:
                params.append(None)
            else:
                if param_pool is None:
                    x = f"p{len(inner_vars)}_{i}"
                else:
                    x = rng.choice([y for y in param_pool if y not in params])
                params.append(x)
                inner_vars = inner_vars + (x,)
        cont = (random_process(rng, depth - 1, inner_vars, param_pool) if depth > 0
                else Nil())
        return Act(Recv(chan, tuple(params)), cont)
    args = tuple(random_term(rng, bound_vars) for _ in range(arity))
    cont = random_process(rng, depth - 1, bound_vars, param_pool) if depth > 0 else Nil()
    action = Send(chan, args) if kind == "send" else Bcast(chan, args)
    return Act(action, cont)


def random_redex_config(rng: random.Random, depth: int = 2,
                        allow_repl: bool = True) -> Process:
    """A parallel soup guaranteed to contain communicating pairs.

    Builds matching send/receive pairs (same channel and arity, sometimes
    restricted, at most one side bulleted), plus broadcast clusters and
    decided matches, alongside a little unconstrained noise.
    """
    parts: list[Process] = []
    for i in range(rng.randint(1, 3)):
        chan = Chan(NameT(f"ch{i}"), rng.choice((None, None, 0, "len")))
        arity = rng.randint(0, 2)
        args = tuple(NumT(rng.randint(0, 9)) for _ in range(arity))
        params = tuple(f"q{i}_{j}" for j in range(arity))
        send: Process = Act(Send(chan, args),
                            random_process(rng, depth - 1))
        recv: Process = Act(Recv(chan, params),
                            random_process(rng, depth - 1, params))
        bullet_side = rng.randrange(3)
        if bullet_side == 0:
            send = Bullet(send)
        elif bullet_side == 1:
            recv = Bullet(recv)
        if allow_repl and rng.random() < 0.3:
            recv = Repl(recv)
        pair: Process = Par(send, recv)
        if rng.random() < 0.5:
            pair = New(f"ch{i}", pair)
        parts.append(pair)
    if rng.random() < 0.5:
        bchan = Chan(NameT("bc"), None)
        cluster: list[Process] = [Act(Bcast(bchan, (NumT(1),)), Nil())]
        for j in range(rng.randint(0, 3)):
            cluster.append(Act(Recv(bchan, (f"w{j}",)), random_process(rng, depth - 1, (f"w{j}",))))
        parts.append(New("bc", _pars(cluster)) if rng.random() < 0.5 else _pars(cluster))
    if rng.random() < 0.4:
        parts.append(Match(NumT(rng.randint(-2, 2)), rng.choice((">=", "!=", "<")),
                           NumT(0), random_process(rng, depth - 1),
                           random_process(rng, depth - 1)))
    return _pars(parts)


def _pars(items: list[Process]) -> Process:
    out = items[-1]
    for p in reversed(items[:-1]):
        out = Par(p, out)
    return out
