"""Well-behavedness: the shape discipline of translated processes.

Translated processes use channels in four classes, read off a fresh name's
printable prefix: outputs (``o``/``r``), handles (``h``/``f``), signals
(``d``), and collections (``vals``), plus the internal recursion counters
(``c``).  Each class admits a fixed set of prefix shapes -- an output
delivers one value once, a handle serves binary function calls or the
``len``/``tup``/``all``/index sub-protocols, a signal is an empty one-shot,
a collection carries index/value pairs.  Values are numbers or handles;
sending an output channel as a value is the canonical violation.

``well_behaved`` checks a process against this grammar up to structural
flattening, treating bullets as transparent.  The check is closed under
reduction for translated programs: every configuration reachable from a
translation stays inside the grammar, which the test suite exercises
along full runs.
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
    Send,
    Term,
    VarT,
)
from butfpi.translate import (COLLECTION, COUNTER, FUNCTION, HANDLE, OUTPUT, REPLY,
                              ROLE_PREFIX, SIGNAL)

OUT, HAN, SIG, COL, CTR, VAL = "output", "handle", "signal", "collection", "counter", "value"

# the class of each channel role's fresh names, read off their prefix
_ROLE_CLASS = {OUTPUT: OUT, REPLY: OUT, HANDLE: HAN, FUNCTION: HAN, SIGNAL: SIG,
               COLLECTION: COL, COUNTER: CTR}
_PREFIX_CLASS = {ROLE_PREFIX[role]: cls for role, cls in _ROLE_CLASS.items()}


def name_class(name: str) -> str | None:
    i = 0
    while i < len(name) and name[i].isalpha():
        i += 1
    return _PREFIX_CLASS.get(name[:i])


class _Ill(Exception):
    def __init__(self, path: str, why: str):
        super().__init__(f"{path}: {why}")
        self.path = path
        self.why = why


def _is_value_term(t: Term, env: dict[str, str]) -> bool:
    """Values are numbers, handle names, value variables, and arithmetic on those."""
    match t:
        case NumT():
            return True
        case NameT(name):
            return name_class(name) == HAN
        case VarT(name):
            return env.get(name, VAL) == VAL
        case OpT(_, left, right):
            return (_is_value_term(left, env) and _is_value_term(right, env)
                    and not isinstance(left, NameT) and not isinstance(right, NameT))
    return False


def _chan_shape(c: Chan, env: dict[str, str], path: str) -> tuple[str, str]:
    """Classify a channel as (class, suffix kind in none|idx|len|tup|all)."""
    match c.base:
        case NameT(name):
            cls = name_class(name)
            if cls is None:
                raise _Ill(path, f"name {name!r} has no channel role prefix")
            if cls == VAL:
                cls = HAN
        case VarT(name):
            cls = env.get(name, VAL)
            if cls == VAL:
                cls = HAN  # a received value used as a channel is a handle
        case _:
            raise _Ill(path, "channel base is not a name or variable")
    sfx = c.suffix
    if sfx is None:
        return cls, "none"
    if isinstance(sfx, int):
        return cls, "idx"
    if isinstance(sfx, str):
        return cls, sfx
    if isinstance(sfx, VarT):
        if env.get(sfx.name, VAL) != VAL:
            raise _Ill(path, f"suffix variable {sfx.name!r} is not a value")
        return cls, "idx"
    raise _Ill(path, "suffix is a raw name")


_RECV_SHAPES = {
    (OUT, "none"): (1, (VAL,)),
    (HAN, "none"): (2, (VAL, OUT)),
    (HAN, "idx"): (2, (VAL, VAL)),
    (HAN, "len"): (1, (VAL,)),
    (HAN, "all"): (1, (COL,)),
    (COL, "none"): (2, (VAL, VAL)),
    (SIG, "none"): (0, ()),
    (CTR, "none"): (1, (VAL,)),
}

# (arity or None for any, the fault when the payload misses it)
_SEND_SHAPES = {
    (OUT, "none"): (1, "output must deliver exactly one value"),
    (HAN, "idx"): (2, "cell must carry (index, value)"),
    (HAN, "len"): (1, "length server must carry one value"),
    (HAN, "tup"): (None, "tuple payload must be values"),
    (COL, "none"): (2, "collection send must carry (index, value)"),
    (SIG, "none"): (0, "signals are empty"),
    (CTR, "none"): (1, "counter must carry one value"),
}

# replication is reserved for servers: function bodies, cell faces,
# collection readers, counters, and the replicated data senders
_REPLICABLE_RECV = {(HAN, "none"), (HAN, "all"), (COL, "none"), (CTR, "none")}
_REPLICABLE_SEND = {(HAN, "idx"), (HAN, "len"), (HAN, "tup")}


def _check(p: Process, env: dict[str, str], path: str, replicated: bool) -> None:
    match p:
        case Nil():
            return
        case Par(left, right):
            if replicated:
                raise _Ill(path, "replication must guard a single prefix")
            _check(left, env, path + ".l", False)
            _check(right, env, path + ".r", False)
        case Bullet(body):
            _check(body, env, path + ".bullet", replicated)
        case New(name, body):
            if name_class(name) is None:
                raise _Ill(path, f"restricted name {name!r} has no role prefix")
            _check(body, env, path + f".new({name})", replicated)
        case Repl(body):
            _check(body, env, path + ".repl", True)
        case Match(left, op, right, then, orelse):
            if replicated:
                raise _Ill(path, "replicated match")
            if op not in (">=", "!="):
                raise _Ill(path, f"comparator {op!r} outside the translation grammar")
            if not _is_value_term(left, env):
                raise _Ill(path, "match operand is not a value")
            if not isinstance(right, NumT):
                raise _Ill(path, "match compares against a non-literal")
            _check(then, env, path + ".then", False)
            _check(orelse, env, path + ".else", False)
        case Act(action, cont):
            shape = _chan_shape(action.chan, env, path)
            if isinstance(action, Recv):
                _check_recv(action, cont, shape, env, path, replicated)
            elif isinstance(action, Send):
                _check_send(action, cont, shape, env, path, replicated)
            else:
                _check_bcast(action, cont, shape, env, path, replicated)
        case _:
            raise _Ill(path, f"unexpected process {type(p).__name__}")


def _check_recv(action: Recv, cont: Process, shape, env, path, replicated) -> None:
    if shape not in _RECV_SHAPES and shape != (HAN, "tup"):
        raise _Ill(path, f"no receive production for {shape}")
    if replicated and shape not in _REPLICABLE_RECV:
        raise _Ill(path, f"receive on {shape} cannot be replicated")
    if shape == (HAN, "tup"):
        classes: tuple[str, ...] = tuple(VAL for _ in action.params)
    else:
        arity, classes = _RECV_SHAPES[shape]
        if len(action.params) != arity:
            raise _Ill(path, f"receive on {shape} has arity {len(action.params)}, wants {arity}")
    inner = dict(env)
    for x, cls in zip(action.params, classes):
        if x is not None:
            inner[x] = cls
    _check(cont, inner, path + f".{_label(action)}", False)


def _check_send(action: Send, cont: Process, shape, env, path, replicated) -> None:
    if replicated and shape not in _REPLICABLE_SEND:
        raise _Ill(path, f"send on {shape} cannot be replicated")
    label = path + f".{_label(action)}"
    cls, sfx = shape
    if shape == (HAN, "none"):
        if len(action.args) != 2:
            raise _Ill(path, "function call must carry (value, output)")
        value, out = action.args
        if not _is_value_term(value, env):
            raise _Ill(path, "function argument is not a value")
        if not _is_out_slot(out, env):
            raise _Ill(path, "function reply slot is not an output channel")
        _check(cont, env, label, False)  # calls may sequence further protocol
        return
    # the index generator sequences its next counter token behind the
    # delivery of the current collection pair
    if not isinstance(cont, Nil) and shape != (COL, "none"):
        raise _Ill(path, f"send on {shape} carries a continuation")
    if shape not in _SEND_SHAPES:
        raise _Ill(path, f"no send production for {shape}")
    arity, fault = _SEND_SHAPES[shape]
    if ((arity is not None and len(action.args) != arity)
            or not all(_is_value_term(t, env) for t in action.args)):
        raise _Ill(path, fault)
    _check(cont, env, label, False)


def _check_bcast(action: Bcast, cont: Process, shape, env, path, replicated) -> None:
    if replicated:
        raise _Ill(path, "replicated broadcast")
    if shape != (HAN, "all"):
        raise _Ill(path, f"broadcast only addresses handle.all, not {shape}")
    if len(action.args) != 1 or not _is_col_slot(action.args[0], env):
        raise _Ill(path, "broadcast must carry one collection channel")
    _check(cont, env, path + f".{_label(action)}", False)


def _is_out_slot(t: Term, env: dict[str, str]) -> bool:
    match t:
        case NameT(name):
            return name_class(name) == OUT
        case VarT(name):
            return env.get(name, VAL) == OUT
    return False


def _is_col_slot(t: Term, env: dict[str, str]) -> bool:
    match t:
        case NameT(name):
            return name_class(name) == COL
        case VarT(name):
            return env.get(name, VAL) == COL
    return False


def _label(action) -> str:
    base = action.chan.base
    text = base.name if isinstance(base, (NameT, VarT)) else "?"
    if action.chan.suffix is not None:
        text += f".{action.chan.suffix}"
    return text


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
