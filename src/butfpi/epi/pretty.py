"""Printing pi-calculus processes back to parseable text.

``parse_process(pretty_process(p))`` is structurally identical to ``p``,
up to the spelling of a binder that would capture an identifier of the
other kind in its scope: a receive parameter that spells a name free
there, or a restriction that spells a variable free there.  The text
would read that identifier as the bound one, so the binder prints with a
spelling its scope does not use (after a step has substituted the name
``z`` under ``b(z)``, ``b(z). c<z>`` prints as ``b(z_2). c<z>``).
Restrictions over several names print merged (``new a, b. P``), parallel
composition prints right-nested without parentheses, and a match always
prints both branches (``, 0`` for an absent else).
"""

from __future__ import annotations

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
    Par,
    Process,
    Recv,
    Repl,
    Term,
    VarT,
    _identifiers,
    rewrite,
    symbols,
)
from butfpi.lexer import OP_NAMES, _fresh_variant

_OP_SYMBOL = {name: symbol for symbol, name in OP_NAMES.items()}
_ADD, _MUL, _ATOM = 1, 2, 3


def _term_level(t: Term) -> int:
    match t:
        case OpT(op, _, _):
            return _ADD if op in ("add", "sub") else _MUL
        case _:
            return _ATOM


def render_term(t: Term, level: int = 1) -> str:
    match t:
        case NumT(v):
            text = str(v)
        case NameT(name) | VarT(name):
            text = name
        case OpT(op, left, right):
            lvl = _term_level(t)
            text = f"{render_term(left, lvl)} {_OP_SYMBOL[op]} {render_term(right, lvl + 1)}"
        case _:
            raise TypeError(f"not a term: {t!r}")
    return f"({text})" if _term_level(t) < level else text


def render_chan(c: Chan) -> str:
    base = render_term(c.base, _ATOM)
    if c.suffix is None:
        return base
    if isinstance(c.suffix, (VarT, NameT)):
        return f"{base}.{c.suffix.name}"
    return f"{base}.{c.suffix}"


def pretty_process(p: Process) -> str:
    return _Printer().text(p)


class _Captured(Exception):
    """Raised with a spelling where the text would read an identifier as
    bound by the innermost binder of that spelling, one of the other kind."""


class _Printer:
    """Prints one process.  ``scope`` maps each spelling bound above the
    node being printed to True if its innermost binder is a receive
    parameter and False if it is a restriction, as the parser resolves it,
    or to None once no binder of it is in scope."""

    def __init__(self) -> None:
        self.scope: dict[str, bool | None] = {}

    def text(self, p: Process) -> str:
        match p:
            case Nil():
                return "0"
            case Par(left, right):
                return f"{self.seq(left)} | {self.text(right)}"
            case New():
                names = []
                while isinstance(p, New):
                    names.append(p.name)
                    p = p.body
                names, body = self.cont_text(p, names, False)
                return f"new {', '.join(names)}.{body}"
            case Repl(body):
                return f"!{self.guarded(body)}"
            case Bullet(body):
                return f"*{self.guarded(body)}"
            case Act(action, cont):
                chan = action.chan
                if isinstance(action, Recv):
                    self.check((chan.base,), chan.suffix)
                    params, body = self.cont_text(cont, action.params, True)
                    inner = ", ".join(x if x is not None else "_" for x in params)
                    text = f"{render_chan(chan)}({inner})"
                else:
                    self.check((chan.base, *action.args), chan.suffix)
                    body = self.cont_text(cont)[1]
                    args = ", ".join(render_term(t) for t in action.args)
                    mark = ":" if isinstance(action, Bcast) else ""
                    text = f"{render_chan(chan)}{mark}<{args}>"
                return text if isinstance(cont, Nil) else f"{text}.{body}"
            case Match(left, op, right, then, orelse):
                self.check((left, right))
                return (f"[{render_term(left)} {op} {render_term(right)}] "
                        f"{self.guarded(then)}, {self.seq(orelse)}")
        raise TypeError(f"not a process: {p!r}")

    def check(self, terms, suffix=None) -> None:
        """Raise ``_Captured`` for a name of ``terms`` or ``suffix`` that a
        receive parameter would capture, or a variable a restriction would."""
        names, variables = _identifiers(terms, suffix)
        for spellings, capturing in ((names, True), (variables, False)):
            for x in spellings:
                if self.scope.get(x) is capturing:
                    raise _Captured(x)

    def cont_text(self, body: Process, spellings=(), is_var: bool = False,
                  ) -> tuple[list, str]:
        """The text of ``body`` after a prefix or a restriction, under
        binders of ``spellings`` (None for a wildcard) that are receive
        parameters if ``is_var``, and those spellings.  A binder that would
        capture an identifier of the other kind in ``body`` is respelled to
        a spelling ``body`` does not use, and ``body`` renamed to match."""
        scope = self.scope
        spellings = list(spellings)
        while True:
            saved = {x: scope.get(x) for x in spellings if x is not None}
            scope.update(dict.fromkeys(saved, is_var))
            try:
                text = self.text(body)
                return spellings, f"( {text} )" if isinstance(body, Par) else f" {text}"
            except _Captured as captured:
                (x,) = captured.args
                if x not in saved:
                    raise
                fresh = _fresh_variant(x, set(symbols(body)).union(saved))
                spellings = [fresh if y == x else y for y in spellings]
                body = (rewrite(body, {x: VarT(fresh)}) if is_var
                        else rewrite(body, name_map={x: fresh}))
            finally:
                scope.update(saved)

    def seq(self, p: Process) -> str:
        """Render p where the grammar expects a single sequential process."""
        return f"({self.text(p)})" if isinstance(p, Par) else self.text(p)

    def guarded(self, p: Process) -> str:
        """Render p as the body of ! or * or a match then-branch."""
        if isinstance(p, (Par, Match)):
            return f"({self.text(p)})"
        return self.text(p)
