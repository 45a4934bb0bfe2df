"""Printing pi-calculus processes back to parseable text.

``parse_process(pretty_process(p))`` is structurally identical to ``p``.
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
)

_OP_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
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


def _action_text(a) -> str:
    chan = render_chan(a.chan)
    if isinstance(a, Recv):
        inner = ", ".join(x if x is not None else "_" for x in a.params)
        return f"{chan}({inner})"
    args = ", ".join(render_term(t) for t in a.args)
    return f"{chan}:<{args}>" if isinstance(a, Bcast) else f"{chan}<{args}>"


def _seq(p: Process) -> str:
    """Render p where the grammar expects a single sequential process."""
    return f"({pretty_process(p)})" if isinstance(p, Par) else pretty_process(p)


def _guarded(p: Process) -> str:
    """Render p as the body of ! or * or a match then-branch."""
    if isinstance(p, (Par, Match)):
        return f"({pretty_process(p)})"
    return pretty_process(p)


def pretty_process(p: Process) -> str:
    match p:
        case Nil():
            return "0"
        case Par(left, right):
            left_text = _seq(left)
            return f"{left_text} | {pretty_process(right)}"
        case New(name, body):
            names = [name]
            while isinstance(body, New):
                names.append(body.name)
                body = body.body
            return f"new {', '.join(names)}.{_cont_text(body)}"
        case Repl(body):
            return f"!{_guarded(body)}"
        case Bullet(body):
            return f"*{_guarded(body)}"
        case Act(action, cont):
            text = _action_text(action)
            if isinstance(cont, Nil):
                return text
            return f"{text}.{_cont_text(cont)}"
        case Match(left, op, right, then, orelse):
            return (f"[{render_term(left)} {op} {render_term(right)}] "
                    f"{_guarded(then)}, {_seq(orelse)}")
    raise TypeError(f"not a process: {p!r}")


def _cont_text(p: Process) -> str:
    if isinstance(p, Par):
        return f"( {pretty_process(p)} )"
    return f" {pretty_process(p)}"
