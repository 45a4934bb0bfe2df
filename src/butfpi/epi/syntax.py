"""Process syntax for the extended pi-calculus.

Terms carry numbers, channel names, variables, and arithmetic over numbers
(names are opaque: applying an operator to one is a runtime fault).
Channels are either plain names or composite ``base.suffix`` names, where
the suffix is a numeric index, one of the labels ``all``/``tup``/``len``,
or a variable that must be resolved before the channel is usable.

Processes: inaction, parallel composition, replication, name restriction,
action prefixes (send, receive, broadcast), a one-shot importance marker
(``Bullet``), and a two-branch comparison ``[M op N] P, Q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Union

from butfpi.butf.eval import apply_arith
from butfpi.lexer import _fresh_variant

LABELS = ("all", "tup", "len")
COMPARATORS = ("<", ">", "<=", ">=", "=", "!=")


class TermError(Exception):
    """Raised when a term cannot be evaluated to a number or name."""


# ---------------------------------------------------------------- terms

@dataclass(frozen=True)
class NumT:
    value: int


@dataclass(frozen=True)
class NameT:
    name: str


@dataclass(frozen=True)
class VarT:
    name: str


@dataclass(frozen=True)
class OpT:
    op: str  # add | sub | mul | div
    left: "Term"
    right: "Term"


Term = Union[NumT, NameT, VarT, OpT]


def eval_term(t: Term) -> NumT | NameT:
    """Fold arithmetic over numbers; names are opaque fixed points."""
    return _value(t, _NO_VARS, _NO_NAMES)


def _value(t: Term, vm: dict[str, Term], nm: dict[str, str]) -> NumT | NameT:
    """``eval_term`` of ``t`` with each variable read from ``vm`` and each
    name renamed by ``nm``, without building the substituted term.

    The values ``vm`` binds must be evaluated, a ``NumT`` or a ``NameT``.
    Faults are raised as ``eval_term`` raises them on the substituted term,
    left operand first: an unbound variable, arithmetic on a channel name,
    division by zero.
    """
    cls = type(t)
    if cls is NumT:
        return t
    if cls is VarT:
        value = vm.get(t.name)
        if value is None:
            raise TermError(f"unbound variable {t.name!r}")
        return value
    if cls is NameT:
        name = t.name
        return NameT(nm[name]) if name in nm else t
    if cls is OpT:
        lv, rv = _value(t.left, vm, nm), _value(t.right, vm, nm)
        if type(lv) is NameT or type(rv) is NameT:
            raise TermError("arithmetic on a channel name")
        try:
            return NumT(apply_arith(t.op, lv.value, rv.value))
        except ZeroDivisionError:
            raise TermError("division by zero") from None
    raise TypeError(f"not a term: {t!r}")


# an empty environment half, the bindings or the renames of a closed term;
# nothing mutates an environment's dicts
_NO_VARS: dict[str, Term] = {}
_NO_NAMES: dict[str, str] = {}


def compare(op: str, lv: NumT | NameT, rv: NumT | NameT) -> bool:
    """Decide ``lv op rv`` on evaluated terms.

    Equality and inequality are defined for any mix of numbers and names;
    order comparisons require two numbers.
    """
    if op in ("=", "=="):
        return lv == rv
    if op == "!=":
        return lv != rv
    if isinstance(lv, NameT) or isinstance(rv, NameT):
        raise TermError("order comparison on a channel name")
    if op == "<":
        return lv.value < rv.value
    if op == ">":
        return lv.value > rv.value
    if op == "<=":
        return lv.value <= rv.value
    if op == ">=":
        return lv.value >= rv.value
    raise ValueError(f"unknown comparator {op!r}")


# ------------------------------------------------------------- channels

@dataclass(frozen=True)
class Chan:
    """A channel: a base name or variable, with at most one suffix level."""

    base: Term  # NameT or VarT
    suffix: Union[int, str, VarT, NameT, None] = None


# -------------------------------------------------------------- actions

@dataclass(frozen=True)
class Send:
    chan: Chan
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Recv:
    chan: Chan
    params: tuple[Union[str, None], ...]  # None is a wildcard pattern


@dataclass(frozen=True)
class Bcast:
    chan: Chan
    args: tuple[Term, ...]


Action = Union[Send, Recv, Bcast]


# ------------------------------------------------------------ processes

@dataclass(frozen=True)
class Nil:
    pass


@dataclass(frozen=True)
class Par:
    left: "Process"
    right: "Process"


@dataclass(frozen=True)
class Repl:
    body: "Process"


@dataclass(frozen=True)
class New:
    name: str
    body: "Process"


@dataclass(frozen=True)
class Act:
    action: Action
    cont: "Process"


@dataclass(frozen=True)
class Bullet:
    body: "Process"


@dataclass(frozen=True)
class Match:
    left: Term
    op: str
    right: Term
    then: "Process"
    orelse: "Process"


Process = Union[Nil, Par, Repl, New, Act, Bullet, Match]


_PROCESSES = (Nil, Par, Repl, New, Act, Bullet, Match)


def _cached_hash(self):
    # engine sets and caches hash syntax trees heavily; the generated
    # dataclass hash walks the whole tree every call, so memoize per node
    value = self._hash_memo
    if value is None:
        fields = tuple(getattr(self, name) for name in self.__dataclass_fields__)
        value = hash((self.__class__.__name__, fields))
        object.__setattr__(self, "_hash_memo", value)
    return value


for _cls in (NumT, NameT, VarT, OpT, Chan, Send, Recv, Bcast, *_PROCESSES):
    _cls.__hash__ = _cached_hash
    _cls._hash_memo = None

# ``rewrite`` reads the symbols memo on every node it visits, and the engine
# its memos on every thread; a class default keeps that a plain attribute
# load, where a miss would raise or a ``__dict__`` lookup would make every
# visited node allocate its instance dict
for _cls in _PROCESSES:
    _cls._memo_facts = None
    _cls._memo_symbols = None
    _cls._memo_entry = None  # ``canonical_key``'s per-search thread entry
    _cls._memo_head = None  # the engine's ``head_of``
    _cls._memo_template = None  # the engine's ``_thread_template``
    _cls._memo_diagnose = None  # ``ugrammar.diagnose``


def par(*procs: Process) -> Process:
    """Right-nested parallel composition, dropping nothing."""
    items = [p for p in procs if not isinstance(p, Nil)]
    if not items:
        return Nil()
    out = items[-1]
    for p in reversed(items[:-1]):
        out = Par(p, out)
    return out


def seq_news(names: list[str] | tuple[str, ...], body: Process) -> Process:
    for name in reversed(names):
        body = New(name, body)
    return body


# ----------------------------------------------------- name/var queries

def term_names(t: Term) -> frozenset[str]:
    match t:
        case NameT(name):
            return frozenset((name,))
        case OpT(_, left, right):
            return term_names(left) | term_names(right)
        case _:
            return frozenset()


def term_vars(t: Term) -> frozenset[str]:
    match t:
        case VarT(name):
            return frozenset((name,))
        case OpT(_, left, right):
            return term_vars(left) | term_vars(right)
        case _:
            return frozenset()


def _identifiers(terms, suffix=None) -> tuple[list[str], list[str]]:
    """The names and the variables occurring in ``terms`` and in a channel
    ``suffix``, which holds one only when it is a name or a variable."""
    names: list[str] = []
    variables: list[str] = []
    if type(suffix) is NameT:
        names.append(suffix.name)
    elif type(suffix) is VarT:
        variables.append(suffix.name)
    stack = list(terms)
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is NameT:
            names.append(t.name)
        elif cls is VarT:
            variables.append(t.name)
        elif cls is OpT:
            stack += (t.left, t.right)
    return names, variables


def _joined(base: frozenset[str], extra) -> frozenset[str]:
    # reuse ``base`` when it already holds ``extra``: most nodes add nothing
    # their continuation lacks, so chains share one set
    return base if base.issuperset(extra) else base.union(extra)


_NOTHING: frozenset[str] = frozenset()
_NO_FACTS = (_NOTHING, _NOTHING, _NOTHING, _NOTHING)


def _facts(p: Process) -> tuple[frozenset[str], frozenset[str],
                                frozenset[str], frozenset[str]]:
    """``p``'s facts record: its free names, all its names, its free
    variables and its binders.

    One post-order pass over an explicit stack records the facts of ``p``
    and of every node under it that lacks them, so no depth of nesting
    exhausts the interpreter's stack; a subtree that has its record is not
    entered.  The pass also sets the memo of ``symbols`` where that is
    unset, so every node with a record has one; ``symbols`` relies on it.
    """
    stack = [p]
    while stack:
        node = stack[-1]
        if node._memo_facts is not None:
            stack.pop()
            continue
        cls = type(node)
        if cls is Par or cls is Match:
            kids = (node.left, node.right) if cls is Par else (node.then, node.orelse)
            waiting = [k for k in kids if k._memo_facts is None]
            if waiting:
                stack += waiting
                continue
        elif cls is not Nil:
            kid = node.cont if cls is Act else node.body
            if kid._memo_facts is None:
                stack.append(kid)
                continue
        stack.pop()
        facts, syms = _FACT_RULES[cls](node)
        object.__setattr__(node, "_memo_facts", facts)
        if node._memo_symbols is None:
            object.__setattr__(node, "_memo_symbols", syms)
    return p._memo_facts


# each rule builds a node's facts record and symbols from its children's

def _act_facts(p: Act):
    cont = p.cont
    free, names, fvars, bound = cont._memo_facts
    action = p.action
    chan = action.chan
    if type(action) is Recv:
        own_names, own_vars = _identifiers((chan.base,), chan.suffix)
        params = [x for x in action.params if x is not None]
        if not fvars.isdisjoint(params):
            fvars = fvars.difference(params)
        syms = _joined(cont._memo_symbols, own_names + own_vars + params)
    else:
        own_names, own_vars = _identifiers((chan.base, *action.args), chan.suffix)
        syms = _joined(cont._memo_symbols, own_names + own_vars)
    return ((_joined(free, own_names), _joined(names, own_names),
             _joined(fvars, own_vars), bound), syms)


def _par_facts(p: Par):
    left, right = p.left, p.right
    return (tuple(map(_joined, right._memo_facts, left._memo_facts)),
            _joined(right._memo_symbols, left._memo_symbols))


def _new_facts(p: New):
    body = p.body
    free, names, fvars, bound = body._memo_facts
    name = (p.name,)
    if p.name in free:
        free = free.difference(name)
    return ((free, _joined(names, name), fvars, _joined(bound, name)),
            _joined(body._memo_symbols, name))


def _body_facts(p: Repl | Bullet):
    body = p.body
    return body._memo_facts, body._memo_symbols


def _match_facts(p: Match):
    then, orelse = p.then, p.orelse
    own_names, own_vars = _identifiers((p.left, p.right))
    free, names, fvars, bound = map(_joined, orelse._memo_facts, then._memo_facts)
    return ((_joined(free, own_names), _joined(names, own_names),
             _joined(fvars, own_vars), bound),
            _joined(_joined(orelse._memo_symbols, then._memo_symbols),
                    own_names + own_vars))


def _nil_facts(p: Nil):
    return _NO_FACTS, _NOTHING


_FACT_RULES = {Act: _act_facts, Par: _par_facts, New: _new_facts,
               Repl: _body_facts, Bullet: _body_facts, Match: _match_facts,
               Nil: _nil_facts}


def free_names(p: Process) -> frozenset[str]:
    """Names not bound by any enclosing restriction."""
    return (p._memo_facts or _facts(p))[0]


def all_names(p: Process) -> frozenset[str]:
    """Every name occurring anywhere, including binders."""
    return (p._memo_facts or _facts(p))[1]


def free_process_vars(p: Process) -> frozenset[str]:
    """Variables no enclosing receive pattern binds."""
    return (p._memo_facts or _facts(p))[2]


def binders(p: Process) -> frozenset[str]:
    """The names the restrictions anywhere in ``p`` bind.

    ``rewrite`` renames such a binder when a map brings its name in; the
    engine tests this set to know when a substitution or rename it defers
    would not.
    """
    return (p._memo_facts or _facts(p))[3]


def symbols(p: Process) -> frozenset[str]:
    """Every name and variable occurring in ``p``, binders and patterns included.

    ``rewrite`` leaves a subtree whose symbols miss every mapped and
    incoming identifier untouched.  A node ``rewrite`` rebuilt from one whose
    symbols were known gets that set plus what the rewrite brought in,
    without a walk; it may then hold identifiers substituted away, and the
    readers of this set need only a superset.
    """
    known = p._memo_symbols
    if known is None:
        _facts(p)
        known = p._memo_symbols
    return known


# ---------------------------------------------------------- rewriting

def rewrite(p: Process, var_map: dict[str, Term] | None = None,
            name_map: dict[str, str] | None = None) -> Process:
    """Substitute terms for free variables and rename free names, capture-avoidingly.

    ``var_map`` maps receive-pattern variables to terms (usually evaluated
    numbers or names).  ``name_map`` renames free names.  Restriction
    binders that would capture a name introduced by either map, and
    receive parameters that would capture an introduced variable, are
    renamed to a fresh variant first.

    The result shares structure with ``p``.  A subtree comes back as the
    same object (``p`` itself included) when it has no free occurrence of
    a mapped variable or name, none of its restriction binders is a name
    the maps bring in, and none of its receive parameters is a variable
    they bring in.  Only the paths down to changed nodes are copied, and
    ``symbols`` lets branches that cannot change be skipped unvisited.

    Every step of a run spawns continuations through here, so the walk is
    one ``_Rewrite`` object and plain methods: it builds no closures, and
    so leaves no reference cycle for the cyclic collector to find.
    """
    if not var_map and not name_map:
        return p
    var_map = var_map or {}
    name_map = name_map or {}
    incoming = set(name_map.values())
    incoming_vars: set[str] = set()
    for t in var_map.values():
        cls = type(t)
        if cls is NameT:
            incoming.add(t.name)
        elif cls is VarT:
            incoming_vars.add(t.name)
        elif cls is not NumT:
            incoming |= term_names(t)
            incoming_vars |= term_vars(t)
    return _Rewrite(incoming, incoming_vars, var_map, name_map).go(p, var_map, name_map)


def _sub_term(t: Term, vm: dict[str, Term], nm: dict[str, str]) -> Term:
    cls = type(t)
    if cls is NumT:
        return t
    if cls is VarT:
        return vm.get(t.name, t)
    if cls is NameT:
        return NameT(nm[t.name]) if t.name in nm else t
    if cls is OpT:
        left, right = t.left, t.right
        new_left, new_right = _sub_term(left, vm, nm), _sub_term(right, vm, nm)
        if new_left is left and new_right is right:
            return t
        return OpT(t.op, new_left, new_right)
    raise TypeError(f"not a term: {t!r}")


def _sub_chan(c: Chan, vm: dict[str, Term], nm: dict[str, str]) -> Chan:
    base = _sub_term(c.base, vm, nm)
    suffix = sfx = c.suffix
    cls = type(sfx)
    if cls is VarT:
        if sfx.name in vm:
            suffix = vm[sfx.name]
            if type(suffix) is NumT:
                suffix = suffix.value
            # a name here can never address a cell; it is kept inert
    elif cls is NameT:
        if sfx.name in nm:
            suffix = NameT(nm[sfx.name])
    return c if base is c.base and suffix is sfx else Chan(base, suffix)


class _Rewrite:
    """The state of one ``rewrite`` walk.

    ``incoming`` and ``incoming_vars`` are the names and variables the maps
    bring in; ``trigger`` adds the mapped keys, and a subtree none of whose
    symbols is in it rewrites to itself under every map the walk narrows
    them to.  ``brought`` is what a rebuilt node may hold beyond its old
    symbols: the incoming identifiers and the fresh binders chosen so far.
    """

    __slots__ = ("incoming", "incoming_vars", "trigger", "brought")

    def __init__(self, incoming: set[str], incoming_vars: set[str],
                 var_map: dict[str, Term], name_map: dict[str, str]):
        self.incoming = incoming
        self.incoming_vars = incoming_vars
        self.trigger = incoming.union(incoming_vars, var_map, name_map)
        self.brought = frozenset(incoming | incoming_vars)

    def go(self, p: Process, vm: dict[str, Term], nm: dict[str, str]) -> Process:
        if not vm and not nm:
            return p
        known = p._memo_symbols
        if known is not None and known.isdisjoint(self.trigger):
            return p
        rebuild = _REBUILD.get(type(p))
        if rebuild is None:
            raise TypeError(f"not a process: {p!r}")
        q = rebuild(self, p, vm, nm)
        if known is not None and q is not p:
            # q holds at most what p held and what the walk brought in; a
            # superset serves every reader of symbols and spares a walk
            brought = self.brought
            object.__setattr__(q, "_memo_symbols",
                               known if brought <= known else known | brought)
        return q

    def branch(self, p: Process, vm: dict[str, Term], nm: dict[str, str]) -> Process:
        # where siblings part, testing first lets the untouched ones be shared
        return p if symbols(p).isdisjoint(self.trigger) else self.go(p, vm, nm)

    def act(self, p: Act, vm: dict[str, Term], nm: dict[str, str]) -> Process:
        action, cont = p.action, p.cont
        chan = _sub_chan(action.chan, vm, nm)
        kind = type(action)
        if kind is not Recv:
            old_args = action.args
            args = tuple([_sub_term(t, vm, nm) for t in old_args])
            new_cont = self.go(cont, vm, nm)
            if (chan is action.chan and new_cont is cont
                    and all(map(is_, args, old_args))):
                return p
            return Act(kind(chan, args), new_cont)
        params = action.params
        inner_vm = vm
        for x in params:
            if x in vm:  # a parameter shadows a mapped variable
                inner_vm = {k: v for k, v in vm.items() if k not in params}
                break
        if not self.incoming_vars.isdisjoint(params):
            incoming_vars = self.incoming_vars
            renamed = list(params)
            for i, x in enumerate(renamed):
                if x is not None and x in incoming_vars:
                    fresh = _fresh_variant(x, incoming_vars | free_process_vars(cont) | set(inner_vm))
                    self.brought |= {fresh}
                    cont = self.go(cont, {x: VarT(fresh)}, {})
                    renamed[i] = fresh
            params = tuple(renamed)
        new_cont = self.go(cont, inner_vm, nm)
        if chan is action.chan and params == action.params and new_cont is p.cont:
            return p
        return Act(Recv(chan, params), new_cont)

    def par(self, p: Par, vm: dict[str, Term], nm: dict[str, str]) -> Process:
        left, right = p.left, p.right
        new_left, new_right = self.branch(left, vm, nm), self.branch(right, vm, nm)
        if new_left is left and new_right is right:
            return p
        return Par(new_left, new_right)

    def new(self, p: New, vm: dict[str, Term], nm: dict[str, str]) -> Process:
        name, body = p.name, p.body
        if name in self.incoming:
            fresh = _fresh_variant(name, self.incoming | all_names(body) | set(nm) | set(vm))
            self.brought |= {fresh}
            body = self.branch(body, {}, {name: fresh})
            name = fresh
        inner_nm = {k: v for k, v in nm.items() if k != name} if name in nm else nm
        new_body = self.branch(body, vm, inner_nm)
        if name == p.name and new_body is p.body:
            return p
        return New(name, new_body)

    def match(self, p: Match, vm: dict[str, Term], nm: dict[str, str]) -> Process:
        left, right, then, orelse = p.left, p.right, p.then, p.orelse
        new_left, new_right = _sub_term(left, vm, nm), _sub_term(right, vm, nm)
        new_then, new_orelse = self.branch(then, vm, nm), self.branch(orelse, vm, nm)
        if (new_left is left and new_right is right
                and new_then is then and new_orelse is orelse):
            return p
        return Match(new_left, p.op, new_right, new_then, new_orelse)

    def repl(self, p: Repl, vm: dict[str, Term], nm: dict[str, str]) -> Process:
        body = self.go(p.body, vm, nm)
        return p if body is p.body else Repl(body)

    def bullet(self, p: Bullet, vm: dict[str, Term], nm: dict[str, str]) -> Process:
        body = self.go(p.body, vm, nm)
        return p if body is p.body else Bullet(body)

    def nil(self, p: Nil, vm: dict[str, Term], nm: dict[str, str]) -> Process:
        return p


_REBUILD = {Act: _Rewrite.act, Par: _Rewrite.par, New: _Rewrite.new,
            Match: _Rewrite.match, Repl: _Rewrite.repl, Bullet: _Rewrite.bullet,
            Nil: _Rewrite.nil}
