"""Well-behavedness: the shape discipline of translated processes.

Translated processes use channels in four classes, read off a fresh name's
printable prefix: outputs (``o``/``r``), handles (``h``/``f``), signals
(``d``), and collections (``vals``), plus the internal recursion counters
(``c``).  Values are numbers or handles; sending an output channel as a
value is the canonical violation.

The grammar is two tables, ``_RECV`` and ``_SEND``, keyed by a channel's
(class, suffix kind).  An entry gives the payload classes a prefix on that
channel carries -- an output delivers one value once, a handle serves
binary function calls or the ``len``/``tup``/``all``/index sub-protocols,
a signal is an empty one-shot, a collection carries index/value pairs --
and whether a replicated server may serve the channel.

``well_behaved`` checks a process against this grammar up to structural
flattening, treating bullets as transparent.  ``_check`` walks the process
in pre-order, left before right and then-branch before else-branch, and
reports the first node outside the grammar.  The check is closed under
reduction for translated programs: every configuration reachable from a
translation stays inside the grammar, which the test suite exercises
along full runs.
"""

from __future__ import annotations

from butfpi.epi.pretty import render_chan
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
    Send,
    Term,
    VarT,
    _identifiers,
)
from butfpi.translate import COLLECTION, COUNTER, FUNCTION, HANDLE, OUTPUT, REPLY, SIGNAL

OUT, HAN, SIG, COL, CTR, VAL = "output", "handle", "signal", "collection", "counter", "value"

# the class of each channel role's fresh names: a role is their prefix
_PREFIX_CLASS = {OUTPUT: OUT, REPLY: OUT, HANDLE: HAN, FUNCTION: HAN, SIGNAL: SIG,
                 COLLECTION: COL, COUNTER: CTR}

# (class, suffix kind) -> (payload classes, None for any number of values;
# whether a replicated server may serve it).  Replication is reserved for
# servers: function bodies, cell faces, collection readers, counters, and
# the replicated data senders.
_RECV = {
    (OUT, "none"): ((VAL,), False),
    (HAN, "none"): ((VAL, OUT), True),
    (HAN, "idx"): ((VAL, VAL), False),
    (HAN, "len"): ((VAL,), False),
    (HAN, "tup"): (None, False),
    (HAN, "all"): ((COL,), True),
    (COL, "none"): ((VAL, VAL), True),
    (SIG, "none"): ((), False),
    (CTR, "none"): ((VAL,), True),
}

# as ``_RECV``, plus whether the send may carry a continuation and its
# fault: one text, or a function call's (arity, argument, reply slot)
# texts.  Function calls sequence further protocol, and the index
# generator sequences its next counter token behind the delivery of the
# current collection pair.  ``handle.all`` is the broadcast's production.
_SEND = {
    (OUT, "none"): ((VAL,), False, False, "output must deliver exactly one value"),
    (HAN, "none"): ((VAL, OUT), False, True, ("function call must carry (value, output)",
                                               "function argument is not a value",
                                               "function reply slot is not an output channel")),
    (HAN, "idx"): ((VAL, VAL), True, False, "cell must carry (index, value)"),
    (HAN, "len"): ((VAL,), True, False, "length server must carry one value"),
    (HAN, "tup"): (None, True, False, "tuple payload must be values"),
    (HAN, "all"): ((COL,), False, True, "broadcast must carry one collection channel"),
    (COL, "none"): ((VAL, VAL), False, True, "collection send must carry (index, value)"),
    (SIG, "none"): ((), False, False, "signals are empty"),
    (CTR, "none"): ((VAL,), False, False, "counter must carry one value"),
}
_BROADCAST = (HAN, "all")


def name_class(name: str) -> str | None:
    i = 0
    while i < len(name) and name[i].isalpha():
        i += 1
    return _PREFIX_CLASS.get(name[:i])


class _Ill(Exception):
    def __init__(self, path: str, why: str):
        super().__init__(f"{path}: {why}")


def _class(t: Term, env: dict[str, str]) -> str | None:
    """A term's class: values are numbers, handle names, value variables,
    and arithmetic on numbers and value variables; None for a term of no
    class, such as arithmetic on a name."""
    match t:
        case NumT():
            return VAL
        case NameT(name):
            cls = name_class(name)
            return VAL if cls == HAN else cls
        case VarT(name):
            return env.get(name, VAL)
        case OpT():
            names, variables = _identifiers((t,))
            if not names and all(env.get(x, VAL) == VAL for x in variables):
                return VAL
    return None


def _chan_shape(c: Chan, env: dict[str, str], path: str) -> tuple[str, str]:
    """Classify a channel as (class, suffix kind in none|idx|len|tup|all)."""
    base = c.base
    if not isinstance(base, (NameT, VarT)):
        raise _Ill(path, "channel base is not a name or variable")
    cls = _class(base, env)
    if cls is None:
        raise _Ill(path, f"name {base.name!r} has no channel role prefix")
    if cls == VAL:
        cls = HAN  # a value used as a channel is a handle
    sfx = c.suffix
    if sfx is None:
        return cls, "none"
    if isinstance(sfx, int):
        return cls, "idx"
    if isinstance(sfx, str):
        return cls, sfx
    if isinstance(sfx, VarT):
        if _class(sfx, env) != VAL:
            raise _Ill(path, f"suffix variable {sfx.name!r} is not a value")
        return cls, "idx"
    raise _Ill(path, "suffix is a raw name")


def _check_recv(action: Recv, cont: Process, shape, env, path, replicated) -> dict[str, str]:
    if shape not in _RECV:
        raise _Ill(path, f"no receive production for {shape}")
    classes, replicable = _RECV[shape]
    if replicated and not replicable:
        raise _Ill(path, f"receive on {shape} cannot be replicated")
    if classes is None:
        classes = (VAL,) * len(action.params)
    elif len(action.params) != len(classes):
        raise _Ill(path, f"receive on {shape} has arity {len(action.params)}, "
                         f"wants {len(classes)}")
    inner = dict(env)
    for x, cls in zip(action.params, classes):
        if x is not None:
            inner[x] = cls
    return inner


def _check_send(action: Send | Bcast, cont: Process, shape, env, path,
                replicated) -> dict[str, str]:
    bcast = isinstance(action, Bcast)
    # a broadcast takes the handle.all production, and no send takes it
    entry = _SEND.get(shape) if bcast == (shape == _BROADCAST) else None
    classes, replicable, sequenced, fault = entry or (None, False, False, None)
    if replicated and not replicable:
        raise _Ill(path, "replicated broadcast" if bcast
                   else f"send on {shape} cannot be replicated")
    if bcast and entry is None:
        raise _Ill(path, f"broadcast only addresses handle.all, not {shape}")
    if not isinstance(cont, Nil) and not sequenced:
        raise _Ill(path, f"send on {shape} carries a continuation")
    if entry is None:
        raise _Ill(path, f"no send production for {shape}")
    args = action.args
    arity_fault, *slot_faults = (fault if isinstance(fault, tuple)
                                 else (fault,) * (len(args) + 1))
    if classes is None:
        classes = (VAL,) * len(args)
    elif len(args) != len(classes):
        raise _Ill(path, arity_fault)
    for t, cls, why in zip(args, classes, slot_faults):
        if _class(t, env) != cls:
            raise _Ill(path, why)
    return env


def _check(p: Process, env: dict[str, str], path: str, replicated: bool) -> None:
    """Raise ``_Ill`` at the first node of ``p``, in pre-order, outside the
    grammar.  The walk keeps its own stack, so any depth checks."""
    stack = [(p, env, path, replicated)]
    while stack:
        p, env, path, replicated = stack.pop()
        match p:
            case Nil():
                pass
            case Par(left, right):
                if replicated:
                    raise _Ill(path, "replication must guard a single prefix")
                stack.append((right, env, path + ".r", False))
                stack.append((left, env, path + ".l", False))
            case Bullet(body):
                stack.append((body, env, path + ".bullet", replicated))
            case New(name, body):
                if name_class(name) is None:
                    raise _Ill(path, f"restricted name {name!r} has no role prefix")
                stack.append((body, env, path + f".new({name})", replicated))
            case Repl(body):
                stack.append((body, env, path + ".repl", True))
            case Match(left, op, right, then, orelse):
                if replicated:
                    raise _Ill(path, "replicated match")
                if op not in (">=", "!="):
                    raise _Ill(path, f"comparator {op!r} outside the translation grammar")
                if _class(left, env) != VAL:
                    raise _Ill(path, "match operand is not a value")
                if not isinstance(right, NumT):
                    raise _Ill(path, "match compares against a non-literal")
                stack.append((orelse, env, path + ".else", False))
                stack.append((then, env, path + ".then", False))
            case Act(action, cont):
                shape = _chan_shape(action.chan, env, path)
                check = _check_recv if isinstance(action, Recv) else _check_send
                inner = check(action, cont, shape, env, path, replicated)
                stack.append((cont, inner, f"{path}.{render_chan(action.chan)}", False))
            case _:
                raise _Ill(path, f"unexpected process {type(p).__name__}")


def diagnose(p: Process) -> str | None:
    """None when ``p`` is in the translation grammar, else a path and reason."""
    known = p._memo_diagnose
    if known is None:
        # memoized as "" when in the grammar: a reason is never empty
        try:
            _check(p, {}, "", False)
            known = ""
        except _Ill as ill:
            known = str(ill)
        object.__setattr__(p, "_memo_diagnose", known)
    return known or None


def well_behaved(p: Process) -> bool:
    return diagnose(p) is None


def config_well_behaved(config) -> str | None:
    """Check every thread of a soup; restriction hoisting is grammar-neutral."""
    for t in config.threads:
        problem = diagnose(t.proc)
        if problem is not None:
            return f"thread {t.tid}{problem}"
    return None
