"""Full-walk references for the path-copying rewriter, restriction hoisting
and the state search.

``reference_rewrite`` is the rewriter that rebuilds every node it visits,
and ``SequentialBuilder`` hoists restrictions by renaming the whole body
once per clashing binder, probing fresh names from ``root_2`` up every
time (``_fresh_variant`` without floors).  ``rewrite`` and ``_Builder``
must give equal results; ``sequential`` runs any engine call with the
references swapped in.  ``reference_enabled_redexes`` lists a soup's
redexes and arity diagnostics by scanning the whole ``Config``, with no
``LiveSoup``, and ``reference_garbage_collect`` collects unreachable
servers by rescanning every other thread's names for each candidate.
``reference_explore`` is the search that fires every redex through
``SequentialBuilder``, computes every key from scratch and shares nothing
between states, and ``checking_entries`` checks the key entries
``explore`` caches and the successors it skips without a key.
``reference_channel`` and ``reference_out_barbs`` render a step's channel
and a soup's output barbs with ``render_chan`` on built channels, and
``reference_mentioned`` builds a thread's closed name set in full.
``reference_free_names``, ``reference_all_names``,
``reference_free_process_vars``, ``reference_binders`` and
``reference_symbols`` are the per-node name analyses as plain recursive
walks that memoize nothing: the facts record of ``butfpi.epi.syntax``
must give the same sets (``symbols`` at least these on nodes ``rewrite``
built).  ``reference_eval_term`` folds a closed term by pattern matching,
and ``reference_value`` and ``reference_match_redex`` read a term and a
comparison under an environment by substituting it first
(``_sub_term``), then deciding and evaluating the closed terms: ``_value``
and ``_match_redex`` must give the same value, redex or ``TermError`` text.
``ClosedProber`` reads a handle back by running a closed probe receiver
on a copy of the soup, firing only administrative redexes in priority
order, and ``reference_read_output`` decodes with it: read-back off the
soup's send queues (``LiveSoup.ask``) must give the same value.

The helpers at the end serve tests alone: ``alpha_equal`` and
``alpha_equal_process`` compare terms and processes up to renaming of
bound names, ``count_bullets`` counts a process's bullets and
``expected_bullets`` the bullets ``translate`` should give a program,
``config_to_process`` folds a ``Config`` back into one process, and
``garbage_collect`` runs ``LiveSoup.collect`` on a ``Config``.
"""

import pytest

from butfpi.butf.eval import apply_arith
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
from butfpi.correspondence import _decode
from butfpi.epi import engine
from butfpi.epi.engine import (
    CommitFault,
    Config,
    EngineError,
    Head,
    LiveSoup,
    Redex,
    _administrative,
    _broad_redex,
    _Builder,
    _chan_key,
    _closed,
    _drop_threads,
    apply_redex,
    barbs,
    canonical_key,
    head_of,
    insert_process,
    normalize_depths,
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
    Par,
    Process,
    Recv,
    Repl,
    Send,
    Term,
    TermError,
    VarT,
    _sub_term,
    all_names,
    binders,
    compare,
    term_names,
    term_vars,
)
from butfpi.epi.pretty import render_chan
from butfpi.lexer import _fresh_variant


def _chan_names(c: Chan) -> frozenset[str]:
    out = term_names(c.base)
    if isinstance(c.suffix, NameT):
        out |= frozenset((c.suffix.name,))
    return out


def _chan_vars(c: Chan) -> frozenset[str]:
    out = term_vars(c.base)
    if isinstance(c.suffix, VarT):
        out |= frozenset((c.suffix.name,))
    return out


def _action_names(a) -> frozenset[str]:
    out = _chan_names(a.chan)
    if isinstance(a, (Send, Bcast)):
        for t in a.args:
            out |= term_names(t)
    return out


def reference_free_names(p: Process) -> frozenset[str]:
    """Names not bound by any enclosing restriction."""
    match p:
        case Nil():
            return frozenset()
        case Par(left, right):
            return reference_free_names(left) | reference_free_names(right)
        case Repl(body) | Bullet(body):
            return reference_free_names(body)
        case New(name, body):
            return reference_free_names(body) - {name}
        case Act(action, cont):
            return _action_names(action) | reference_free_names(cont)
        case Match(left, _, right, then, orelse):
            return (term_names(left) | term_names(right)
                    | reference_free_names(then) | reference_free_names(orelse))
    raise TypeError(f"not a process: {p!r}")


def reference_all_names(p: Process) -> frozenset[str]:
    """Every name occurring anywhere, including binders."""
    match p:
        case Nil():
            return frozenset()
        case Par(left, right):
            return reference_all_names(left) | reference_all_names(right)
        case Repl(body) | Bullet(body):
            return reference_all_names(body)
        case New(name, body):
            return reference_all_names(body) | {name}
        case Act(action, cont):
            return _action_names(action) | reference_all_names(cont)
        case Match(left, _, right, then, orelse):
            return (term_names(left) | term_names(right)
                    | reference_all_names(then) | reference_all_names(orelse))
    raise TypeError(f"not a process: {p!r}")


def reference_free_process_vars(p: Process) -> frozenset[str]:
    """Variables no enclosing receive pattern binds."""
    match p:
        case Nil():
            return frozenset()
        case Par(left, right):
            return reference_free_process_vars(left) | reference_free_process_vars(right)
        case Repl(body) | Bullet(body) | New(_, body):
            return reference_free_process_vars(body)
        case Act(action, cont):
            out = _chan_vars(action.chan)
            if isinstance(action, (Send, Bcast)):
                for t in action.args:
                    out |= term_vars(t)
                return out | reference_free_process_vars(cont)
            bound = {x for x in action.params if x is not None}
            return out | (reference_free_process_vars(cont) - bound)
        case Match(left, _, right, then, orelse):
            return (term_vars(left) | term_vars(right)
                    | reference_free_process_vars(then)
                    | reference_free_process_vars(orelse))
    raise TypeError(f"not a process: {p!r}")


def reference_binders(p: Process) -> frozenset[str]:
    """The names the restrictions anywhere in ``p`` bind."""
    match p:
        case Nil():
            return frozenset()
        case Par(left, right):
            return reference_binders(left) | reference_binders(right)
        case Repl(body) | Bullet(body):
            return reference_binders(body)
        case New(name, body):
            return reference_binders(body) | {name}
        case Act(_, cont):
            return reference_binders(cont)
        case Match(then=then, orelse=orelse):
            return reference_binders(then) | reference_binders(orelse)
    raise TypeError(f"not a process: {p!r}")


def reference_symbols(p: Process) -> frozenset[str]:
    """Every name and variable occurring in ``p``, binders and patterns included."""
    match p:
        case Nil():
            return frozenset()
        case Par(left, right):
            return reference_symbols(left) | reference_symbols(right)
        case Repl(body) | Bullet(body):
            return reference_symbols(body)
        case New(name, body):
            return reference_symbols(body) | {name}
        case Act(action, cont):
            out = _action_names(action) | _chan_vars(action.chan)
            if isinstance(action, Recv):
                out |= {x for x in action.params if x is not None}
            else:
                for t in action.args:
                    out |= term_vars(t)
            return out | reference_symbols(cont)
        case Match(left, _, right, then, orelse):
            return (term_names(left) | term_vars(left) | term_names(right)
                    | term_vars(right) | reference_symbols(then)
                    | reference_symbols(orelse))
    raise TypeError(f"not a process: {p!r}")


def reference_eval_term(t: Term) -> NumT | NameT:
    """``eval_term`` by pattern matching on a closed term."""
    match t:
        case NumT() | NameT():
            return t
        case VarT(name):
            raise TermError(f"unbound variable {name!r}")
        case OpT(op, left, right):
            lv, rv = reference_eval_term(left), reference_eval_term(right)
            if isinstance(lv, NameT) or isinstance(rv, NameT):
                raise TermError("arithmetic on a channel name")
            try:
                return NumT(apply_arith(op, lv.value, rv.value))
            except ZeroDivisionError:
                raise TermError("division by zero") from None
    raise TypeError(f"not a term: {t!r}")


def reference_value(t: Term, vm: dict[str, Term], nm: dict[str, str]) -> NumT | NameT:
    """``_value`` as substitution followed by evaluation."""
    return reference_eval_term(_sub_term(t, vm, nm))


def reference_match_redex(tid: int, h: Head, env=None) -> Redex | None:
    """``_match_redex`` as substitute, then decide, then evaluate: None
    while an operand keeps a variable, before any evaluation fault."""
    m = h.core
    left, right = m.left, m.right
    if env is not None:
        vm, nm = env
        left, right = _sub_term(left, vm, nm), _sub_term(right, vm, nm)
    if term_vars(left) or term_vars(right):
        return None
    try:
        taken = compare(m.op, reference_eval_term(left), reference_eval_term(right))
    except TermError as exc:
        return Redex("FAULT", (tid,), reason=str(exc))
    return Redex("THEN" if taken else "ELSE", (tid,), branch_then=taken,
                 bullets=h.bullets)


def reference_rewrite(p: Process, var_map: dict[str, Term] | None = None,
                      name_map: dict[str, str] | None = None) -> Process:
    """``rewrite`` as a walk that rebuilds every node it reaches."""
    var_map = var_map or {}
    name_map = name_map or {}
    if not var_map and not name_map:
        return p

    incoming = set(name_map.values())
    for t in var_map.values():
        incoming |= term_names(t)
    incoming_vars: set[str] = set()
    for t in var_map.values():
        incoming_vars |= term_vars(t)

    def sub_term(t: Term, vm: dict[str, Term], nm: dict[str, str]) -> Term:
        match t:
            case NumT():
                return t
            case NameT(name):
                return NameT(nm[name]) if name in nm else t
            case VarT(name):
                return vm.get(name, t)
            case OpT(op, left, right):
                return OpT(op, sub_term(left, vm, nm), sub_term(right, vm, nm))
        raise TypeError(f"not a term: {t!r}")

    def sub_suffix(sfx, vm, nm):
        if isinstance(sfx, VarT):
            if sfx.name in vm:
                value = vm[sfx.name]
                if isinstance(value, NumT):
                    return value.value
                return value  # a name here can never address a cell; kept inert
            return sfx
        if isinstance(sfx, NameT):
            return NameT(nm[sfx.name]) if sfx.name in nm else sfx
        return sfx

    def sub_chan(c: Chan, vm, nm) -> Chan:
        return Chan(sub_term(c.base, vm, nm), sub_suffix(c.suffix, vm, nm))

    def go(p: Process, vm: dict[str, Term], nm: dict[str, str]) -> Process:
        if not vm and not nm:
            return p
        match p:
            case Nil():
                return p
            case Par(left, right):
                return Par(go(left, vm, nm), go(right, vm, nm))
            case Repl(body):
                return Repl(go(body, vm, nm))
            case Bullet(body):
                return Bullet(go(body, vm, nm))
            case New(name, body):
                if name in incoming:
                    fresh = _fresh_variant(name, incoming | reference_all_names(body) | set(nm) | set(vm))
                    body = go(body, {}, {name: fresh})
                    name = fresh
                inner_nm = {k: v for k, v in nm.items() if k != name}
                return New(name, go(body, vm, inner_nm))
            case Act(action, cont):
                chan = sub_chan(action.chan, vm, nm)
                if isinstance(action, (Send, Bcast)):
                    args = tuple(sub_term(t, vm, nm) for t in action.args)
                    kind = Send if isinstance(action, Send) else Bcast
                    return Act(kind(chan, args), go(cont, vm, nm))
                params = list(action.params)
                inner_vm = {k: v for k, v in vm.items()
                            if k not in action.params}
                for i, x in enumerate(params):
                    if x is not None and x in incoming_vars:
                        fresh = _fresh_variant(x, incoming_vars | reference_free_process_vars(cont) | set(inner_vm))
                        cont = go(cont, {x: VarT(fresh)}, {})
                        params[i] = fresh
                return Act(Recv(chan, tuple(params)), go(cont, inner_vm, nm))
            case Match(left, op, right, then, orelse):
                return Match(sub_term(left, vm, nm), op, sub_term(right, vm, nm),
                             go(then, vm, nm), go(orelse, vm, nm))
        raise TypeError(f"not a process: {p!r}")

    return go(p, dict(var_map), dict(name_map))


class SequentialBuilder(_Builder):
    """``_Builder`` with one full-body rename per clashing restriction, and
    no environments: a process handed over with receive bindings or a
    renames dict is closed by ``reference_rewrite`` first, so every thread
    it spawns is closed, and substitution is eager.  Every continuation,
    a lone prefix too, goes through ``add``."""

    def spawn(self, proc: Process, depth: int, env) -> None:
        self.add(proc, depth, *(env or ()))

    def receive(self, rh: Head, values, env, depth: int) -> None:
        params = rh.core.params
        vm, nm = env or ({}, {})
        bound = {x: v for x, v in zip(params, values) if x is not None}
        if not binders(rh.cont).isdisjoint([v.name for v in values if type(v) is NameT]):
            # as ``_Builder.receive``: close under the old bindings, which
            # the parameters shadow, then substitute the received values
            outer = {x: v for x, v in vm.items() if x not in params}
            proc = reference_rewrite(reference_rewrite(rh.cont, outer, nm), var_map=bound)
            self.add(proc, depth)
            return
        self.add(rh.cont, depth, {**vm, **bound}, nm)

    def add(self, proc: Process, depth: int, vm=None, nm=None) -> None:
        if vm or nm:
            proc = reference_rewrite(proc, vm, nm)
        match proc:
            case Nil():
                return
            case Par(left, right):
                self.add(left, depth)
                self.add(right, depth)
            case New(name, body):
                chosen = _fresh_variant(name, self.used)
                self.used.add(chosen)
                self.restricted.add(chosen)
                if chosen != name:
                    body = reference_rewrite(body, name_map={name: chosen})
                self.add(body, depth)
            case Bullet():
                self._add_bulleted(proc, depth)
            case Repl(body):
                head_of(proc)
                self._thread(proc, depth, {}, {})
            case Act() | Match():
                self._thread(proc, depth, {}, {})
            case _:
                raise TypeError(f"not a process: {proc!r}")

    def _add_bulleted(self, proc: Process, depth: int) -> None:
        bullets = 0
        p = proc
        while isinstance(p, Bullet):
            bullets += 1
            p = p.body
        match p:
            case New(name, body):
                inner: Process = body
                for _ in range(bullets):
                    inner = Bullet(inner)
                self.add(New(name, inner), depth)
            case Par():
                raise EngineError("a bullet must guard a sequential process")
            case Nil():
                self._thread(proc, depth, {}, {})
            case Repl() | Act() | Match():
                head_of(proc)
                self._thread(proc, depth, {}, {})
            case _:
                raise TypeError(f"not a process: {p!r}")


class ClosedProber:
    """Reads each handle back by running a probe: the closed receive
    ``rcv handle.suffix(x0..xk). reply<x0..xk>``, inserted into a copy of
    the soup, which then fires its least administrative redex, as the
    priority policy orders them, until the reply shows or none is left,
    so that decoding never consumes a bullet.  A commit fault drops its
    thread.  ``LiveSoup.ask`` must give what the probe receives."""

    def __init__(self, soup, budget: int = 200_000):
        self.config = soup.config()
        self.budget = budget

    def ask(self, handle: str, suffix, arity: int):
        reply = _fresh_variant("probe", self.config.used)
        params = tuple(f"x{i}" for i in range(arity))
        probe = Act(Recv(Chan(NameT(handle), suffix), params),
                    Act(Send(Chan(NameT(reply)), tuple(map(VarT, params))), Nil()))
        soup = LiveSoup(insert_process(self.config, probe))
        steps = 0
        while (reply, None) not in soup.sends and steps < self.budget:
            redex = next((r for r in soup.redexes if _administrative(r)), None)
            if redex is None:
                break
            try:
                soup.fire(redex, steps + 1)
            except CommitFault as fault:
                soup.drop(fault.tids)
                continue
            steps += 1
        self.config = soup.config()
        return soup.sent((reply, None))


def reference_read_output(soup, shape, budget: int = 200_000):
    """``read_output`` decoding through ``ClosedProber``; ``soup`` is left
    as it was."""
    sent = soup.sent(("o", None))
    if sent is None:
        return None
    return _decode(ClosedProber(soup, budget), sent[0], shape)


def sequential(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the engine hoisting and substituting by reference."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_Builder", SequentialBuilder)
        mp.setattr(engine, "rewrite", reference_rewrite)
        return fn(*args, **kwargs)


def _comm_redex(key: tuple, tid: int, h: Head, rtid: int, rh: Head) -> Redex | str:
    """COMM of a send and a receive on ``key``, or its arity-mismatch diagnostic."""
    arity, rarity = len(h.core.args), len(rh.core.params)
    if rarity != arity:
        return f"arity mismatch on {key[0]}: send of {arity} vs receive of {rarity}"
    return Redex("COMM", (tid, rtid), channel=key, bullets=h.bullets + rh.bullets)


def reference_enabled_redexes(config: Config) -> tuple[list[Redex], list[str]]:
    """``enabled_redexes`` as one scan over the whole soup.

    Redexes are sorted by participants.  Diagnostics come in soup order:
    COMM mismatches by sender, each sender's receivers in turn, then BROAD
    mismatches by broadcaster.
    """
    sends: list[tuple[int, tuple, Head]] = []
    recvs: dict[tuple, list[tuple[int, Head]]] = {}  # key -> [(tid, head)]
    bcasts: list[tuple[int, tuple, Head]] = []
    redexes: list[Redex] = []
    diagnostics: list[str] = []

    for t in config.threads:
        h = head_of(t.proc)
        if h.core is None:
            continue
        if isinstance(h.core, Match):
            redex = reference_match_redex(t.tid, h)
            if redex is not None:
                redexes.append(redex)
            continue
        key = _chan_key(h.core.chan)
        if key is None:
            continue
        if isinstance(h.core, Send):
            sends.append((t.tid, key, h))
        elif isinstance(h.core, Bcast):
            bcasts.append((t.tid, key, h))
        else:
            recvs.setdefault(key, []).append((t.tid, h))

    for tid, key, h in sends:
        for rtid, rh in recvs.get(key, ()):
            redex = _comm_redex(key, tid, h, rtid, rh)
            if isinstance(redex, str):
                diagnostics.append(redex)
            else:
                redexes.append(redex)

    for tid, key, h in bcasts:
        redex, mismatches = _broad_redex(key, tid, h, recvs.get(key, ()))
        diagnostics.extend(mismatches)
        redexes.append(redex)

    redexes.sort(key=lambda r: r.participants)
    return redexes, diagnostics


def reference_channel(step) -> str | None:
    """A step's channel text: ``render_chan`` of the channel its key names,
    after the mark."""
    if step.key is None:
        return None
    name, suffix = step.key
    return step.mark + render_chan(Chan(NameT(name), suffix))


def reference_out_barbs(soup) -> set[str]:
    """The output barbs of a live soup: ``render_chan`` of the channel of
    each pending send or broadcast, closed, that is not restricted."""
    out = set()
    for t in soup.threads.values():
        h = head_of(_closed(t).proc)
        if h.core is None or isinstance(h.core, (Match, Recv)):
            continue
        key = _chan_key(h.core.chan)
        if key is not None and key[0] not in soup.restricted:
            out.add(render_chan(h.core.chan))
    return out


def reference_mentioned(t) -> set[str]:
    """The names of thread ``t`` closed, built as one fresh set from its
    binders, its free names renamed and the names of its bound values."""
    if t.env is None:
        return set(reference_all_names(t.proc))
    vm, nm = t.env
    p = t.proc
    names = set(reference_binders(p))
    names.update(nm.get(n, n) for n in reference_free_names(p))
    for x in reference_free_process_vars(p):
        if x in vm:
            names |= term_names(vm[x])
    return names


def reference_garbage_collect(config: Config) -> Config:
    """``garbage_collect`` as the loop that removes the first unreachable
    server in soup order, rescanning the others, until none is left.  A
    server is a replicated send or receive: a replicated broadcast fires
    with no receiver, so it is never unreachable."""
    threads = list(config.threads)
    while True:
        for i, t in enumerate(threads):
            h = head_of(t.proc)
            if not h.repl or isinstance(h.core, Bcast):
                continue
            key = h.key
            if key is None or key[0] not in config.restricted:
                continue
            others = threads[:i] + threads[i + 1:]
            if any(key[0] in all_names(o.proc) for o in others):
                continue
            threads = others
            break
        else:
            break
    occurring = set()
    for t in threads:
        occurring |= all_names(t.proc)
    return Config(config.restricted & occurring, tuple(threads), config.used,
                  config.next_tid)


def reference_explore(config, state_bound: int = 100_000, depth_bound: int = 100_000,
                      admin_only: bool = False, stop_barb: str | None = None):
    """``explore`` as the loop that lists redexes by the full scan, fires
    each by eager substitution (``sequential``), keys every successor and
    every terminal from scratch, with no memo of closed threads or key
    entries, and searches on after a ``stop_barb`` state."""
    start = normalize_depths(config)
    table: dict = {}
    seen = {canonical_key(start, table)}
    frontier = [start]
    terminals = []
    terminal_keys: set = set()
    bound_hit = False
    depth = 0
    while frontier:
        if depth >= depth_bound:
            bound_hit = True
            break
        next_frontier = []
        for c in frontier:
            if stop_barb is not None and (stop_barb, "out") in barbs(c):
                redexes = []
            else:
                redexes, _diagnostics = reference_enabled_redexes(c)
                if admin_only:
                    redexes = [r for r in redexes if _administrative(r)]
            fired = False
            for redex in redexes:
                if redex.rule == "FAULT":
                    succ = _drop_threads(c, redex.participants)
                else:
                    try:
                        succ, _step = sequential(apply_redex, c, redex)
                    except CommitFault as fault:
                        succ = _drop_threads(c, fault.tids)
                fired = True
                key = canonical_key(succ, table)
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > state_bound:
                    bound_hit = True
                    return terminals, bound_hit, len(seen)
                next_frontier.append(succ)
            if not fired:
                key = canonical_key(c, table)
                if key not in terminal_keys:
                    terminal_keys.add(key)
                    terminals.append(c)
        frontier = next_frontier
        depth += 1
    if frontier:
        bound_hit = True
    return terminals, bound_hit, len(seen)


def checking_entries(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with every key a search computes or skips checked.

    Each key computed with a search's cache must equal the key computed
    from scratch, and each thread's cached entry the entry computed afresh
    in the state at hand, numbered as ``table`` numbers it.  A successor
    that ``explore`` pre-checks (``_entry_multiset``) and then does not key
    was skipped as a duplicate: its key, computed afresh, must be among the
    keys the search computed before it, which are the search's ``seen``.
    Returns the result, the number of entries checked and the number of
    skipped successors checked.
    """
    real_key, real_multiset = engine.canonical_key, engine._entry_multiset
    checked = skipped = 0
    keys: dict[object, set] = {}  # search token -> the keys it computed
    pending: list[tuple] = []  # the successor pre-checked last, not yet keyed

    def settle(keyed=None):
        # explore keys a successor right after its pre-check or not at all,
        # so a successor still pending at the next call was skipped
        nonlocal skipped
        if pending:
            config, table, cache = pending.pop()
            if config is not keyed:
                assert real_key(config, table) in keys[cache]
                skipped += 1

    def key(config, table, cache=None):
        nonlocal checked
        settle(keyed=config)
        got = real_key(config, table, cache)
        if cache is not None:
            for t in config.threads:
                tag, entry, number = t.proc._memo_entry
                assert tag is cache
                assert entry == engine._key_entry(t.proc, config.restricted, table)
                assert table[entry] == number
                checked += 1
            assert got == real_key(config, table)
            keys.setdefault(cache, set()).add(got)
        return got

    def multiset(config, table, cache):
        settle()
        pending.append((config, table, cache))
        return real_multiset(config, table, cache)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "canonical_key", key)
        mp.setattr(engine, "_entry_multiset", multiset)
        result = fn(*args, **kwargs)
        settle()
        return result, checked, skipped


# ------------------------------------------------ test-only helpers

def alpha_equal(a: Expr, b: Expr) -> bool:
    """Structural equality up to renaming of bound variables."""

    def go(a: Expr, b: Expr, env_a: dict[str, int], env_b: dict[str, int], depth: int) -> bool:
        match a, b:
            case Num(x), Num(y):
                return x == y
            case Builtin(x), Builtin(y):
                return x == y
            case Var(x), Var(y):
                ia, ib = env_a.get(x), env_b.get(y)
                return (x == y) if ia is None and ib is None else ia == ib
            case (Array(xs), Array(ys)) | (Tup(xs), Tup(ys)):
                return len(xs) == len(ys) and all(
                    go(p, q, env_a, env_b, depth) for p, q in zip(xs, ys)
                )
            case Index(t1, i1), Index(t2, i2):
                return go(t1, t2, env_a, env_b, depth) and go(i1, i2, env_a, env_b, depth)
            case App(f1, a1), App(f2, a2):
                return go(f1, f2, env_a, env_b, depth) and go(a1, a2, env_a, env_b, depth)
            case If(c1, t1, e1), If(c2, t2, e2):
                return (
                    go(c1, c2, env_a, env_b, depth)
                    and go(t1, t2, env_a, env_b, depth)
                    and go(e1, e2, env_a, env_b, depth)
                )
            case Lam(p1, b1), Lam(p2, b2):
                return go(b1, b2, {**env_a, p1: depth}, {**env_b, p2: depth}, depth + 1)
            case _:
                return False

    return go(a, b, {}, {}, 0)


def alpha_equal_process(p: Process, q: Process) -> bool:
    """Equality up to renaming of restriction-bound names and pattern variables."""

    def terms_eq(a: Term, b: Term, na, nb, va, vb) -> bool:
        match a, b:
            case NumT(x), NumT(y):
                return x == y
            case NameT(x), NameT(y):
                ia, ib = na.get(x), nb.get(y)
                return (x == y) if ia is None and ib is None else ia == ib
            case VarT(x), VarT(y):
                ia, ib = va.get(x), vb.get(y)
                return (x == y) if ia is None and ib is None else ia == ib
            case OpT(o1, l1, r1), OpT(o2, l2, r2):
                return o1 == o2 and terms_eq(l1, l2, na, nb, va, vb) and terms_eq(r1, r2, na, nb, va, vb)
            case _:
                return False

    def suffix_eq(a, b, na, nb, va, vb) -> bool:
        if isinstance(a, (VarT, NameT)) or isinstance(b, (VarT, NameT)):
            return (type(a) is type(b)
                    and terms_eq(a, b, na, nb, va, vb))
        return a == b

    def chans_eq(a: Chan, b: Chan, na, nb, va, vb) -> bool:
        return (terms_eq(a.base, b.base, na, nb, va, vb)
                and suffix_eq(a.suffix, b.suffix, na, nb, va, vb))

    def go(p, q, na, nb, va, vb, depth) -> bool:
        match p, q:
            case Nil(), Nil():
                return True
            case Par(l1, r1), Par(l2, r2):
                return go(l1, l2, na, nb, va, vb, depth) and go(r1, r2, na, nb, va, vb, depth)
            case Repl(b1), Repl(b2):
                return go(b1, b2, na, nb, va, vb, depth)
            case Bullet(b1), Bullet(b2):
                return go(b1, b2, na, nb, va, vb, depth)
            case New(n1, b1), New(n2, b2):
                return go(b1, b2, {**na, n1: depth}, {**nb, n2: depth}, va, vb, depth + 1)
            case Act(a1, c1), Act(a2, c2):
                if type(a1) is not type(a2):
                    return False
                if not chans_eq(a1.chan, a2.chan, na, nb, va, vb):
                    return False
                if isinstance(a1, (Send, Bcast)):
                    if len(a1.args) != len(a2.args):
                        return False
                    if not all(terms_eq(x, y, na, nb, va, vb) for x, y in zip(a1.args, a2.args)):
                        return False
                    return go(c1, c2, na, nb, va, vb, depth)
                if len(a1.params) != len(a2.params):
                    return False
                va2, vb2, d = dict(va), dict(vb), depth
                for x, y in zip(a1.params, a2.params):
                    if (x is None) != (y is None):
                        return False
                    if x is not None:
                        va2[x] = d
                        vb2[y] = d
                        d += 1
                return go(c1, c2, na, nb, va2, vb2, d)
            case Match(l1, o1, r1, t1, e1), Match(l2, o2, r2, t2, e2):
                return (o1 == o2
                        and terms_eq(l1, l2, na, nb, va, vb)
                        and terms_eq(r1, r2, na, nb, va, vb)
                        and go(t1, t2, na, nb, va, vb, depth)
                        and go(e1, e2, na, nb, va, vb, depth))
            case _:
                return False

    return go(p, q, {}, {}, {}, {}, 0)


def count_bullets(p: Process) -> int:
    match p:
        case Bullet(body):
            return 1 + count_bullets(body)
        case Par(left, right):
            return count_bullets(left) + count_bullets(right)
        case New(_, body) | Repl(body):
            return count_bullets(body)
        case Act(_, cont):
            return count_bullets(cont)
        case Match(_, _, _, then, orelse):
            return count_bullets(then) + count_bullets(orelse)
        case _:
            return 0


def expected_bullets(e: Expr, strict_bullets: bool = True) -> int:
    """The bullet census of ``translate(e)``: one per application, conditional,
    and indexing site, one per direct map site, and one per direct size/iota
    site in strict mode.  Builtins referenced as bare values add none."""
    def go(e: Expr) -> int:
        match e:
            case Num() | Var() | Builtin():
                return 0
            case Lam(_, body):
                return go(body)
            case Array(items) | Tup(items):
                return sum(go(x) for x in items)
            case Index(target, index):
                return 1 + go(target) + go(index)
            case If(cond, then, orelse):
                return 1 + go(cond) + go(then) + go(orelse)
            case App(Builtin("map"), arg):
                return 1 + go(arg)
            case App(Builtin(op), arg) if op in ("iota", "size"):
                return (1 if strict_bullets else 0) + go(arg)
            case App(fun, arg):
                return 1 + go(fun) + go(arg)
        raise TypeError(f"not an expression: {e!r}")

    return go(e)


def config_to_process(config: Config) -> Process:
    """Fold a config back into a single process (restrictions out front)."""
    body: Process = Nil()
    for t in reversed(config.threads):
        body = t.proc if isinstance(body, Nil) else Par(t.proc, body)
    for name in sorted(config.restricted):
        body = New(name, body)
    return body


def garbage_collect(config: Config) -> Config:
    """Drop replicated servers on restricted channels that no client can reach.

    A folded replicated send or receive whose subject channel is restricted
    and whose base name occurs in no other thread can never synchronize
    again; removing it preserves behavior.  A replicated broadcast is kept:
    it fires with no receiver, so removing it would change the run.
    Restricted names that then occur nowhere are dropped too.  The work is
    ``LiveSoup.collect``'s.
    """
    soup = LiveSoup(config)
    soup.collect()
    return soup.config()
