"""Compositional translation from BUTF expressions into pi-calculus processes.

Every expression ``e`` becomes a process emitting the representation of its
value on an output channel: numbers travel directly, while functions,
arrays, and tuples are represented by a restricted *handle* name served by
replicated processes (a function server ``!f(x, r)``, per-element array
cells, a ``h.len`` length server, a polyadic ``h.tup`` payload server).

Bullets mark the one step of each translated construct that corresponds to
a source reduction: the function call of an application, the branch of a
conditional, the guard of an indexing, the done-signal of a map.  With
``strict_bullets`` (the default), the committing read of ``size`` and
``iota`` also carries a bullet so that every source reduction costs
exactly one important step; without it those two fire for free, matching
the printed forms of the calculus.

Builtins reached through a variable rather than applied directly translate
to replicated servers.  Their bodies carry no bullets of their own: the
application that invokes them contributes the single important step.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    free_vars,
)
from butfpi.epi.syntax import (
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
    Process,
    Recv,
    Repl,
    Send,
    Term,
    VarT,
    par,
    seq_news,
)

# channel roles and the printable prefix each fresh name carries
OUTPUT = "output"
HANDLE = "handle"
SIGNAL = "signal"
COLLECTION = "collection"
FUNCTION = "function"
REPLY = "reply"
COUNTER = "counter"

ROLE_PREFIX = {
    OUTPUT: "o",
    HANDLE: "h",
    SIGNAL: "d",
    COLLECTION: "vals",
    FUNCTION: "f",
    REPLY: "r",
    COUNTER: "c",
}


@dataclass(frozen=True)
class TranslationOptions:
    strict_bullets: bool = True
    paper_literal_repeat: bool = False

    def header(self) -> str:
        return (f"strict_bullets={'on' if self.strict_bullets else 'off'} "
                f"paper_literal_repeat={'on' if self.paper_literal_repeat else 'off'}")


def _send(base: Term, args: list[Term], cont: Process = Nil(), suffix=None) -> Process:
    return Act(Send(Chan(base, suffix), tuple(args)), cont)


def _recv(base: Term, params: list[str | None], cont: Process = Nil(), suffix=None) -> Process:
    return Act(Recv(Chan(base, suffix), tuple(params)), cont)


def _bcast(base: Term, args: list[Term], cont: Process = Nil(), suffix=None) -> Process:
    return Act(Bcast(Chan(base, suffix), tuple(args)), cont)


def cell(handle: Term, index: int | Term, value: Term, probe_var: str = "r") -> Process:
    """One array element: answers ``handle.all`` broadcasts and ``handle.index`` reads."""
    idx_term: Term = NumT(index) if isinstance(index, int) else index
    return par(
        Repl(_recv(handle, [probe_var], _send(VarT(probe_var), [idx_term, value]),
                   suffix="all")),
        Repl(_send(handle, [idx_term, value], suffix=index)),
    )


def repeat(count: Term, coll: Term, done: Term, paper_literal: bool = False,
           counter: str = "c", item: str = "n") -> Process:
    """Emit index pairs ``(count-1, count-1) .. (0, 0)`` on ``coll``, then signal ``done``.

    The default recursion guard admits receipts >= 1, so exactly the pairs
    down to ``(0, 0)`` appear, and each recursion step waits for its pair to
    be received before continuing.  That delivery sequencing is what makes
    the done signal mean "every consumer fired": an array's cells are
    spawned in the same step that consumes a pair, so a handle guarded by
    ``done`` never escapes with uninitialized cells -- otherwise a later
    broadcast over the array could fire before the cells listen and lose
    elements.

    ``paper_literal`` reproduces the printed form instead: a ``>= 0`` guard
    (which also emits ``(-1, -1)``) and unsequenced emission, so the done
    signal can outrun initialization.
    """
    n = VarT(item)
    minus1 = OpT("sub", n, NumT(1))
    if paper_literal:
        again = par(_send(coll, [minus1, minus1]), _send(NameT(counter), [minus1]))
    else:
        again = _send(coll, [minus1, minus1], _send(NameT(counter), [minus1]))
    body = Match(
        n, ">=", NumT(0 if paper_literal else 1),
        again,
        _send(done, []),
    )
    return New(counter, par(
        Repl(_recv(NameT(counter), [item], body)),
        _send(NameT(counter), [count]),
    ))


class Translator:
    """A single translation run: deterministic fresh names, fixed traversal."""

    def __init__(self, opts: TranslationOptions | None = None, avoid: frozenset[str] = frozenset()):
        self.opts = opts or TranslationOptions()
        self.counters: dict[str, int] = {}
        self.avoid = avoid  # free identifiers of the program plus the root channel

    def fresh(self, role: str) -> str:
        return self._fresh_text(ROLE_PREFIX[role])

    def fresh_var(self, prefix: str) -> str:
        return self._fresh_text(prefix)

    def _fresh_text(self, prefix: str) -> str:
        while True:
            self.counters[prefix] = self.counters.get(prefix, 0) + 1
            candidate = f"{prefix}{self.counters[prefix]}"
            if candidate not in self.avoid:
                return candidate

    # -- binder hygiene -------------------------------------------------

    def rename_binders(self, e: Expr) -> Expr:
        """Give every lambda binder a fresh ``x<k>`` name.

        Pattern variables invented by the translation use other prefixes,
        so a renamed program cannot capture them.
        """
        return self._rename(e, {})

    def _rename(self, e: Expr, env: dict[str, str]) -> Expr:
        # a method, not a recursive closure: the closure would be a
        # reference cycle through this translator
        match e:
            case Num() | Builtin():
                return e
            case Var(name):
                return Var(env.get(name, name))
            case Lam(param, body):
                fresh = self.fresh_var("x")
                return Lam(fresh, self._rename(body, {**env, param: fresh}))
            case Array(items):
                return Array(tuple(self._rename(x, env) for x in items))
            case Tup(items):
                return Tup(tuple(self._rename(x, env) for x in items))
            case Index(target, index):
                return Index(self._rename(target, env), self._rename(index, env))
            case App(fun, arg):
                return App(self._rename(fun, env), self._rename(arg, env))
            case If(cond, then, orelse):
                return If(self._rename(cond, env), self._rename(then, env),
                          self._rename(orelse, env))
        raise TypeError(f"not an expression: {e!r}")

    # -- expression cases ----------------------------------------------

    def expr(self, e: Expr, out: Term) -> Process:
        match e:
            case Num(v):
                return _send(out, [NumT(v)])
            case Var(name):
                return _send(out, [VarT(name)])
            case Lam(param, body):
                f = self.fresh(FUNCTION)
                r = self.fresh_var("r")
                server = Repl(_recv(NameT(f), [param, r], self.expr(body, VarT(r))))
                return New(f, par(_send(out, [NameT(f)]), server))
            case App(Builtin("map"), arg):
                return self.map_app(arg, out)
            case App(Builtin("iota"), arg):
                return self.iota_app(arg, out)
            case App(Builtin("size"), arg):
                return self.size_app(arg, out)
            case App(fun, arg):
                return self.generic_app(fun, arg, out)
            case If(cond, then, orelse):
                o1 = self.fresh(OUTPUT)
                v = self.fresh_var("v")
                guard = Bullet(Match(VarT(v), "!=", NumT(0),
                                     self.expr(then, out), self.expr(orelse, out)))
                return New(o1, par(
                    self.expr(cond, NameT(o1)),
                    _recv(NameT(o1), [v], guard),
                ))
            case Tup(items):
                return self.tuple_expr(items, out)
            case Array(items):
                return self.array_expr(items, out)
            case Index(target, index):
                return self.index_expr(target, index, out)
            case Builtin("map"):
                return self.map_server(out)
            case Builtin("iota"):
                return self.iota_server(out)
            case Builtin("size"):
                return self.size_server(out)
            case Builtin(op) if op in ARITH_OPS:
                return self.arith_server(op, out)
        raise TypeError(f"not an expression: {e!r}")

    def generic_app(self, fun: Expr, arg: Expr, out: Term) -> Process:
        o1, o2 = self.fresh(OUTPUT), self.fresh(OUTPUT)
        f, v = self.fresh_var("f"), self.fresh_var("v")
        return seq_news([o1, o2], par(
            self.expr(fun, NameT(o1)),
            self.expr(arg, NameT(o2)),
            _recv(NameT(o1), [f],
                  _recv(NameT(o2), [v],
                        Bullet(_send(VarT(f), [VarT(v), out])))),
        ))

    def tuple_expr(self, items: tuple[Expr, ...], out: Term) -> Process:
        h = self.fresh(HANDLE)
        if not items:
            return New(h, par(Repl(_send(NameT(h), [], suffix="tup")),
                              _send(out, [NameT(h)])))
        outs = [self.fresh(OUTPUT) for _ in items]
        vs = [self.fresh_var("v") for _ in items]
        core: Process = New(h, par(
            Repl(_send(NameT(h), [VarT(x) for x in vs], suffix="tup")),
            _send(out, [NameT(h)]),
        ))
        gather = core
        for o_i, v_i in zip(reversed(outs), reversed(vs)):
            gather = _recv(NameT(o_i), [v_i], gather)
        return seq_news(outs, par(
            *[self.expr(item, NameT(o_i)) for item, o_i in zip(items, outs)],
            gather,
        ))

    def array_expr(self, items: tuple[Expr, ...], out: Term) -> Process:
        h = self.fresh(HANDLE)
        n = len(items)
        if n == 0:
            return New(h, par(Repl(_send(NameT(h), [NumT(0)], suffix="len")),
                              _send(out, [NameT(h)])))
        outs = [self.fresh(OUTPUT) for _ in items]
        vs = [self.fresh_var("v") for _ in items]
        cells = [cell(NameT(h), i, VarT(v), probe_var=self.fresh_var("r"))
                 for i, v in enumerate(vs)]
        core = par(
            *cells,
            Repl(_send(NameT(h), [NumT(n)], suffix="len")),
            _send(out, [NameT(h)]),
        )
        gather = core
        for o_i, v_i in zip(reversed(outs), reversed(vs)):
            gather = _recv(NameT(o_i), [v_i], gather)
        return seq_news(outs + [h], par(
            *[self.expr(item, NameT(o_i)) for item, o_i in zip(items, outs)],
            gather,
        ))

    def index_expr(self, target: Expr, index: Expr, out: Term) -> Process:
        o1, o2 = self.fresh(OUTPUT), self.fresh(OUTPUT)
        h, i = self.fresh_var("h"), self.fresh_var("i")
        i2, v = self.fresh_var("i"), self.fresh_var("v")
        probe = Act(Recv(Chan(VarT(h), VarT(i)), (i2, v)), _send(out, [VarT(v)]))
        guard = Bullet(Match(VarT(i), ">=", NumT(0), probe, Nil()))
        return seq_news([o1, o2], par(
            self.expr(target, NameT(o1)),
            self.expr(index, NameT(o2)),
            _recv(NameT(o1), [h], _recv(NameT(o2), [i], guard)),
        ))

    # -- array operators -------------------------------------------------

    def _maybe_bullet(self, p: Process) -> Process:
        return Bullet(p) if self.opts.strict_bullets else p

    def size_app(self, arg: Expr, out: Term) -> Process:
        o1 = self.fresh(OUTPUT)
        h, n = self.fresh_var("h"), self.fresh_var("n")
        read = _recv(VarT(h), [n], _send(out, [VarT(n)]), suffix="len")
        return New(o1, par(
            self.expr(arg, NameT(o1)),
            _recv(NameT(o1), [h], self._maybe_bullet(read)),
        ))

    def iota_app(self, arg: Expr, out: Term) -> Process:
        o1 = self.fresh(OUTPUT)
        n = self.fresh_var("n")
        coll, h, d = self.fresh(COLLECTION), self.fresh(HANDLE), self.fresh(SIGNAL)
        i, v = self.fresh_var("i"), self.fresh_var("v")
        done_read = _recv(NameT(d), [],
                          par(Repl(_send(NameT(h), [VarT(n)], suffix="len")),
                              _send(out, [NameT(h)])))
        if self.opts.strict_bullets:
            done_read = Bullet(done_read)
        rep = repeat(VarT(n), NameT(coll), NameT(d),
                     paper_literal=self.opts.paper_literal_repeat,
                     counter=self.fresh(COUNTER), item=self.fresh_var("n"))
        return seq_news([o1, coll, h, d], par(
            self.expr(arg, NameT(o1)),
            _recv(NameT(o1), [n], par(rep, done_read)),
            Repl(_recv(NameT(coll), [i, v],
                       cell(NameT(h), VarT(i), VarT(v), probe_var=self.fresh_var("r")))),
        ))

    def iota_server(self, out: Term) -> Process:
        f = self.fresh(FUNCTION)
        n, r = self.fresh_var("n"), self.fresh_var("r")
        coll, h, d = self.fresh(COLLECTION), self.fresh(HANDLE), self.fresh(SIGNAL)
        i, v = self.fresh_var("i"), self.fresh_var("v")
        done_read = _recv(NameT(d), [],
                          par(Repl(_send(NameT(h), [VarT(n)], suffix="len")),
                              _send(VarT(r), [NameT(h)])))
        rep = repeat(VarT(n), NameT(coll), NameT(d),
                     paper_literal=self.opts.paper_literal_repeat,
                     counter=self.fresh(COUNTER), item=self.fresh_var("n"))
        body = seq_news([coll, h, d], par(
            rep,
            done_read,
            Repl(_recv(NameT(coll), [i, v],
                       cell(NameT(h), VarT(i), VarT(v), probe_var=self.fresh_var("r")))),
        ))
        return New(f, par(_send(out, [NameT(f)]),
                          Repl(_recv(NameT(f), [n, r], body))))

    def size_server(self, out: Term) -> Process:
        f = self.fresh(FUNCTION)
        h, r, n = self.fresh_var("h"), self.fresh_var("r"), self.fresh_var("n")
        body = _recv(VarT(h), [n], _send(VarT(r), [VarT(n)]), suffix="len")
        return New(f, par(_send(out, [NameT(f)]),
                          Repl(_recv(NameT(f), [h, r], body))))

    def arith_server(self, op: str, out: Term) -> Process:
        f = self.fresh(FUNCTION)
        p, r = self.fresh_var("args"), self.fresh_var("r")
        v1, v2 = self.fresh_var("v"), self.fresh_var("v")
        body = _recv(VarT(p), [v1, v2],
                     _send(VarT(r), [OpT(op, VarT(v1), VarT(v2))]),
                     suffix="tup")
        return New(f, par(_send(out, [NameT(f)]),
                          Repl(_recv(NameT(f), [p, r], body))))

    def map_app(self, arg: Expr, out: Term) -> Process:
        o1 = self.fresh(OUTPUT)
        args = self.fresh_var("args")
        pipeline = self._map_pipeline(VarT(args), out, bullet_done=True)
        return New(o1, par(
            self.expr(arg, NameT(o1)),
            _recv(NameT(o1), [args], pipeline),
        ))

    def map_server(self, out: Term) -> Process:
        f = self.fresh(FUNCTION)
        args, r = self.fresh_var("args"), self.fresh_var("r")
        pipeline = self._map_pipeline(VarT(args), VarT(r), bullet_done=False)
        return New(f, par(_send(out, [NameT(f)]),
                          Repl(_recv(NameT(f), [args, r], pipeline))))

    def _map_pipeline(self, args: Term, out: Term, bullet_done: bool) -> Process:
        """From a delivered (function, array) tuple handle to the new array on ``out``."""
        h_out = self.fresh(HANDLE)
        func, h_in, n = self.fresh_var("func"), self.fresh_var("h"), self.fresh_var("n")
        vals = self.fresh(COLLECTION)
        count, done = self.fresh(COLLECTION), self.fresh(SIGNAL)
        index, value, v = self.fresh_var("index"), self.fresh_var("value"), self.fresh_var("v")
        r, o_dummy = self.fresh(REPLY), self.fresh(OUTPUT)

        worker = Repl(_recv(NameT(vals), [index, value], New(r, _send(
            VarT(func), [VarT(value), NameT(r)],
            _recv(NameT(r), [v],
                  _recv(NameT(count), [None, None],
                        cell(NameT(h_out), VarT(index), VarT(v),
                             probe_var=self.fresh_var("r"))))))))
        done_read = _recv(NameT(done), [], _send(out, [NameT(h_out)]))
        if bullet_done:
            done_read = Bullet(done_read)
        dummy = New(o_dummy, _send(VarT(func), [NumT(0), NameT(o_dummy)], done_read))
        rep = repeat(VarT(n), NameT(count), NameT(done),
                     paper_literal=self.opts.paper_literal_repeat,
                     counter=self.fresh(COUNTER), item=self.fresh_var("n"))
        inner = New(vals, _bcast(
            VarT(h_in), [NameT(vals)],
            seq_news([count, done], par(
                rep,
                worker,
                dummy,
                Repl(_send(NameT(h_out), [VarT(n)], suffix="len")),
            )),
            suffix="all"))
        chain = _recv(args, [func, h_in],
                      _recv(VarT(h_in), [n], inner, suffix="len"),
                      suffix="tup")
        return New(h_out, chain)


def translate(e: Expr, out: str = "o", opts: TranslationOptions | None = None) -> Process:
    """Translate a renamed copy of ``e`` into a process delivering on ``out``.

    Free variables of ``e`` appear as free process variables, so a numeral
    can be substituted for them at the process level; closed programs
    produce closed processes.
    """
    tr = Translator(opts, avoid=frozenset(free_vars(e)) | {out})
    return tr.expr(tr.rename_binders(e), NameT(out))
