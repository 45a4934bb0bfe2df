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

Each clause is stated once: a construct's operands are translated and
gathered by ``Translator.gathered`` (a fresh output per operand, then one
receive per output, in order), followed by the construct's own protocol;
only ``If`` and an applied ``iota`` receive their operand inline.  Every
served function value has the one shape ``_served`` builds, and a builtin's
applied and served forms share its protocol's builder.  A channel role is
its fresh names' printable prefix.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
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

# channel roles: each is the printable prefix its fresh names carry
OUTPUT = "o"
HANDLE = "h"
SIGNAL = "d"
COLLECTION = "vals"
FUNCTION = "f"
REPLY = "r"
COUNTER = "c"


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


def _bulleted(p: Process, bullet: bool) -> Process:
    return Bullet(p) if bullet else p


def _served(f: str, params: list[str], body: Process, out: Term) -> Process:
    """A function value: ``new f.( out<f> | !f(params). body )``."""
    return New(f, par(_send(out, [NameT(f)]), Repl(_recv(NameT(f), params, body))))


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

    def fresh(self, prefix: str) -> str:
        # counted per prefix: only the order of allocations sharing one matters
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
                fresh = self.fresh("x")
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

    def gathered(self, exprs: Sequence[Expr], outs: list[str], xs: list[str], body: Process,
                 names: Sequence[str] = ()) -> Process:
        """Each of ``exprs`` translated onto its output in ``outs``, and
        ``body`` behind the receives ``o_i(x_i)`` in order, with ``outs``
        and then ``names`` restricted over the whole."""
        parts = []
        for e, o in zip(exprs, outs):  # a comprehension would cost a frame per level
            parts.append(self.expr(e, NameT(o)))
        for o, x in zip(reversed(outs), reversed(xs)):
            body = _recv(NameT(o), [x], body)
        return seq_news([*outs, *names], par(*parts, body))

    def expr(self, e: Expr, out: Term) -> Process:
        match e:
            case Num(v):
                return _send(out, [NumT(v)])
            case Var(name):
                return _send(out, [VarT(name)])
            case Lam(param, body):
                f, r = self.fresh(FUNCTION), self.fresh("r")
                return _served(f, [param, r], self.expr(body, VarT(r)), out)
            case App(Builtin("map"), arg):
                o1, args = self.fresh(OUTPUT), self.fresh("args")
                pipeline = self._map_pipeline(VarT(args), out, bullet_done=True)
                return self.gathered([arg], [o1], [args], pipeline)
            case App(Builtin("iota"), arg):
                # the argument's fresh names come after the iota's parts and
                # before the collector's probe variable
                o1, n = self.fresh(OUTPUT), self.fresh("n")
                names, rep, done_read, collector = self._iota(n, out, self.opts.strict_bullets)
                return seq_news([o1, *names], par(
                    self.expr(arg, NameT(o1)), _recv(NameT(o1), [n], par(rep, done_read)),
                    collector()))
            case App(Builtin("size"), arg):
                o1 = self.fresh(OUTPUT)
                h, read = self._size_read(out)
                return self.gathered([arg], [o1], [h], _bulleted(read, self.opts.strict_bullets))
            case App(fun, arg):
                outs = [self.fresh(OUTPUT), self.fresh(OUTPUT)]
                f, v = self.fresh("f"), self.fresh("v")
                return self.gathered([fun, arg], outs, [f, v],
                                     Bullet(_send(VarT(f), [VarT(v), out])))
            case If(cond, then, orelse):
                # the condition is translated here, not gathered: a frame
                # fewer per nested condition
                o1, v = self.fresh(OUTPUT), self.fresh("v")
                guard = Bullet(Match(VarT(v), "!=", NumT(0),
                                     self.expr(then, out), self.expr(orelse, out)))
                return New(o1, par(self.expr(cond, NameT(o1)), _recv(NameT(o1), [v], guard)))
            case Tup(items):
                h = self.fresh(HANDLE)
                outs = [self.fresh(OUTPUT) for _ in items]
                vs = [self.fresh("v") for _ in items]
                core = New(h, par(Repl(_send(NameT(h), [VarT(x) for x in vs], suffix="tup")),
                                  _send(out, [NameT(h)])))
                return self.gathered(items, outs, vs, core)
            case Array(items):
                h = self.fresh(HANDLE)
                outs = [self.fresh(OUTPUT) for _ in items]
                vs = [self.fresh("v") for _ in items]
                cells = [cell(NameT(h), i, VarT(v), probe_var=self.fresh("r"))
                         for i, v in enumerate(vs)]
                core = par(*cells, Repl(_send(NameT(h), [NumT(len(items))], suffix="len")),
                           _send(out, [NameT(h)]))
                return self.gathered(items, outs, vs, core, names=[h])
            case Index(target, index):
                outs = [self.fresh(OUTPUT), self.fresh(OUTPUT)]
                h, i = self.fresh("h"), self.fresh("i")
                i2, v = self.fresh("i"), self.fresh("v")
                probe = Act(Recv(Chan(VarT(h), VarT(i)), (i2, v)), _send(out, [VarT(v)]))
                guard = Bullet(Match(VarT(i), ">=", NumT(0), probe, Nil()))
                return self.gathered([target, index], outs, [h, i], guard)
            case Builtin("map"):
                f, args, r = self.fresh(FUNCTION), self.fresh("args"), self.fresh("r")
                pipeline = self._map_pipeline(VarT(args), VarT(r), bullet_done=False)
                return _served(f, [args, r], pipeline, out)
            case Builtin("iota"):
                f, n, r = self.fresh(FUNCTION), self.fresh("n"), self.fresh("r")
                names, rep, done_read, collector = self._iota(n, VarT(r), bullet=False)
                return _served(f, [n, r], seq_news(names, par(rep, done_read, collector())), out)
            case Builtin("size"):
                f, r = self.fresh(FUNCTION), self.fresh("r")
                h, read = self._size_read(VarT(r))
                return _served(f, [h, r], read, out)
            case Builtin(op) if op in ARITH_OPS:
                f, args, r = self.fresh(FUNCTION), self.fresh("args"), self.fresh("r")
                v1, v2 = self.fresh("v"), self.fresh("v")
                body = _recv(VarT(args), [v1, v2],
                             _send(VarT(r), [OpT(op, VarT(v1), VarT(v2))]), suffix="tup")
                return _served(f, [args, r], body, out)
        raise TypeError(f"not an expression: {e!r}")

    # -- array operators -------------------------------------------------

    def _size_read(self, out: Term) -> tuple[str, Process]:
        """A handle variable and the read of its length onto ``out``."""
        h, n = self.fresh("h"), self.fresh("n")
        return h, _recv(VarT(h), [n], _send(out, [VarT(n)]), suffix="len")

    def _iota(self, n: str, out: Term, bullet: bool
              ) -> tuple[tuple[str, ...], Process, Process, Callable[[], Process]]:
        """The parts of ``iota n`` delivered on ``out``: the collection,
        handle and signal names, ``repeat``, the done read, and a maker of
        the collector, which spawns a cell per index pair."""
        names = coll, h, d = self.fresh(COLLECTION), self.fresh(HANDLE), self.fresh(SIGNAL)
        i, v = self.fresh("i"), self.fresh("v")
        done_read = _recv(NameT(d), [],
                          par(Repl(_send(NameT(h), [VarT(n)], suffix="len")),
                              _send(out, [NameT(h)])))
        rep = repeat(VarT(n), NameT(coll), NameT(d),
                     paper_literal=self.opts.paper_literal_repeat,
                     counter=self.fresh(COUNTER), item=self.fresh("n"))

        def collector() -> Process:
            return Repl(_recv(NameT(coll), [i, v],
                              cell(NameT(h), VarT(i), VarT(v), probe_var=self.fresh("r"))))
        return names, rep, _bulleted(done_read, bullet), collector

    def _map_pipeline(self, args: Term, out: Term, bullet_done: bool) -> Process:
        """From a delivered (function, array) tuple handle to the new array on ``out``."""
        h_out = self.fresh(HANDLE)
        func, h_in, n = self.fresh("func"), self.fresh("h"), self.fresh("n")
        vals = self.fresh(COLLECTION)
        count, done = self.fresh(COLLECTION), self.fresh(SIGNAL)
        index, value, v = self.fresh("index"), self.fresh("value"), self.fresh("v")
        r, o_dummy = self.fresh(REPLY), self.fresh(OUTPUT)

        worker = Repl(_recv(NameT(vals), [index, value], New(r, _send(
            VarT(func), [VarT(value), NameT(r)],
            _recv(NameT(r), [v],
                  _recv(NameT(count), [None, None],
                        cell(NameT(h_out), VarT(index), VarT(v),
                             probe_var=self.fresh("r"))))))))
        done_read = _bulleted(_recv(NameT(done), [], _send(out, [NameT(h_out)])), bullet_done)
        dummy = New(o_dummy, _send(VarT(func), [NumT(0), NameT(o_dummy)], done_read))
        rep = repeat(VarT(n), NameT(count), NameT(done),
                     paper_literal=self.opts.paper_literal_repeat,
                     counter=self.fresh(COUNTER), item=self.fresh("n"))
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
