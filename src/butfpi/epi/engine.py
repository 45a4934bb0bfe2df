"""Reduction engine for the extended pi-calculus.

A process is normalized into a ``Config``: a set of restricted names (kept
globally unique) plus a flat multiset of threads, each a sequential process
headed by an action, a match, a folded replication, or a bullet-wrapped
one.  The redexes of the soup are:

* COMM -- a send and a receive on the same evaluated channel with equal
  arity; replicated threads participate through one implicit unfold and
  stay folded.
* BROAD -- a broadcast together with *all* threads currently receiving on
  that exact channel, consumed atomically in a single step; a replicated
  receiver contributes one unfolded copy and persists; zero receivers is
  still a step (the payload is lost).
* THEN / ELSE -- a comparison thread whose operands evaluate now.

There are two reduction drivers: ``run`` follows one schedule (values,
step counts, work and span), ``explore`` all of them (confluence, and,
firing only administrative redexes up to a ``stop_barb``, the value/barb
lemma).  Both read a soup's redexes, arity diagnostics and output barbs
from one index, ``LiveSoup``: per-channel queues of pending sends,
receives and broadcasts (the channel queues of Pict's abstract machine),
the sorted redex list and the arity-mismatch count; the output barbs are
the queues' unrestricted channels.  ``run`` steps one soup in place; a
step updates the index only for the threads it consumes, folds or
spawns, listing and unlisting the COMM pairs each forms on its channel,
so its cost grows with the soup only through the pairs a channel's
queues form.  Nor does it copy syntax: a thread the
soup spawns is the continuation's subtree of the process text itself, a
template shared by every thread spawned from it, plus an environment of
the values its receives bound and the fresh names its restrictions were
hoisted as (the explicit substitutions of Abadi, Cardelli, Curien and
Lévy, as Pict's machine runs processes).  The index reads channels, sent
values and match operands through the environment, and a thread is
closed, by one ``rewrite``, only where a ``Config`` is built from the
soup.  A spawn whose received value or fresh name equals a binder inside
the template, where substituting would first rename that binder, is
closed at once, so every name chosen is the one eager substitution
chooses (see ``Thread`` and ``_Builder``).  ``explore`` builds a soup for
each state it expands and fires each redex with ``apply_redex`` on the
state's ``Config``, which spawns through the same builder and then
closes the new threads; both drivers fire through the same ``_fire``, and
every spawn, in every driver, is a template plus an environment.
``normalize`` closes the threads it spawns likewise.  A ``run``'s trace
holds the soup it stepped, which ``LiveSoup.config`` closes into a
``Config`` where one is wanted.  Read-back reads that soup off its send
queues (``LiveSoup.ask``), taking from each handle what an
administrative probe receiver would receive, without building or running
one.

``explore`` identifies states by ``canonical_key``, and sibling states
share most of their threads, fire the same receives and hoist the same
restrictions.  One search therefore shares that work, through memos that
live no longer than it: one dict of the threads it has closed, each
closed process kept under its template and environment (see
``apply_redex``), so that siblings spawning the same template under the
same environment share one closed node, and the key entry of each thread,
kept on the process node under a token of the search together with the
entry's number.  A successor whose multiset of entry numbers was already
keyed in the level being built is a duplicate without a key, as its key
is a function of that multiset; only the others are keyed in full.  With
``stop_barb`` the search returns at the first state it expands that shows
the barb.

Syntax trees are immutable and acyclic, and the engine keeps them so: no
memo on a node refers back to that node (see ``head_of``), and no walk
builds a recursive closure.  The trees a step drops are then freed by
reference counting alone, and the cyclic collector never has to find them.

A step is important when it consumes a bullet guarding a participating
prefix, administrative otherwise.  Every thread carries a causal depth:
continuations inherit the maximum participant depth, plus one on important
steps, which makes the maximum depth over a run the span of its
important-step dependency graph.

Terms travelling over a channel are evaluated at commit time.  Evaluation
faults (arithmetic on a name, division by zero) abort the run in strict
mode and remove the offending thread in permissive mode.  Sends and
receives whose channel never resolves to a name simply stay blocked, which
is how translated programs deadlock on errors such as out-of-bounds
indexing.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Collection, Iterable
from dataclasses import dataclass, field, replace

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
    TermError,
    VarT,
    _NO_NAMES,
    _NO_VARS,
    _facts,
    _sub_term,
    _value,
    all_names,
    binders,
    compare,
    free_names,
    rewrite,
    symbols,
    term_names,
    term_vars,
)
from butfpi.lexer import _fresh_variant


class EngineError(Exception):
    """A process shape the engine does not execute (unguarded replication, ...)."""


# Thread, Head, Redex and Step are records that nothing mutates once built.
# Slotted and unfrozen, they build in a third or less of a frozen
# dataclass's time (``explore`` builds them for every successor);
# ``unsafe_hash`` keeps them hashable by value.

@dataclass(slots=True, unsafe_hash=True)
class Thread:
    """A thread of a soup: its process, a causal depth, and an environment.

    ``env`` is None for a closed thread, the only kind a ``Config`` holds.
    A thread that ``_Builder`` spawns, and so a ``LiveSoup`` thread, may
    instead stand for ``proc`` under a deferred substitution: ``env`` is
    then the pair (receive bindings, hoisting renames), a dict from
    variables to the values received for them and one from names to the
    fresh names they were hoisted as, and the thread is ``rewrite(proc,
    *env)``.  ``proc`` is a template shared with every other thread
    spawned from the same subtree.  The engine keeps an environment only
    where that rewrite renames no binder of ``proc`` (see ``_Builder``),
    so that closing a thread in one rewrite gives what substituting and
    renaming at each step would have given.  The renames dict is one
    object shared by every thread spawned under the same restrictions, and
    the bindings dict is shared likewise; nothing mutates either once a
    thread holds it.  Every value bound is evaluated, a ``NumT`` or a
    ``NameT``, as ``_Builder.receive`` binds what ``_values`` gives;
    ``_value`` reads terms under an environment on that ground, without
    building the substituted term.
    """

    tid: int
    proc: Process
    depth: int
    env: tuple[dict[str, NumT | NameT], dict[str, str]] | None = field(default=None,
                                                                      hash=False)


def _closed(t: Thread) -> Thread:
    """``t`` as a closed thread: its process rewritten under its environment."""
    if t.env is None:
        return t
    return Thread(t.tid, rewrite(t.proc, *t.env), t.depth)


def _mentioned(t: Thread) -> Collection[str]:
    """``all_names`` of ``t`` closed, read from its template and environment.

    Closing renames no binder, so the binders stay; a free name is renamed
    if the renames map it, and a free variable gives the names of the value
    bound to it.
    """
    p = t.proc
    free, names, fvars, bound = p._memo_facts or _facts(p)
    if t.env is None:
        return names
    vm, nm = t.env
    closed = set(bound)
    closed.update([nm.get(n, n) for n in free])
    for x in fvars:
        value = vm.get(x)
        if value is not None:
            closed.update(term_names(value))
    return closed


def _key_of(h: Head, env) -> tuple[str, object] | None:
    """``_chan_key`` of ``h``'s channel under a thread's environment,
    without building the channel."""
    key = h.key
    if env is None:
        return key
    vm, nm = env
    if key is not None:  # a name and a fixed suffix: only a rename changes it
        name = key[0]
        return (nm[name], key[1]) if name in nm else key
    chan = h.core.chan
    base, suffix = chan.base, chan.suffix
    if type(base) is VarT:
        base = vm.get(base.name, base)
    if type(base) is not NameT:
        return None
    name = nm.get(base.name, base.name) if chan.base is base else base.name
    if type(suffix) is VarT:
        value = vm.get(suffix.name)
        if type(value) is not NumT:  # unbound, or a name that addresses no cell
            return None
        suffix = value.value
    elif type(suffix) is NameT:
        return None
    return (name, suffix)


def _values(h: Head, env) -> tuple[NumT | NameT, ...]:
    """The values ``h``'s send or broadcast carries under a thread's
    environment, evaluated; raises ``TermError`` if one does not evaluate."""
    args = h.core.args
    vm, nm = (_NO_VARS, _NO_NAMES) if env is None else env
    return tuple([a if type(a) is NumT else _value(a, vm, nm) for a in args])


@dataclass(frozen=True)
class Config:
    restricted: frozenset[str]
    threads: tuple[Thread, ...]
    used: frozenset[str]
    next_tid: int


@dataclass(slots=True, unsafe_hash=True)
class Head:
    """The consumable prefix of a thread."""

    core: Send | Recv | Bcast | Match | None  # None: inert (e.g. a bulleted 0)
    cont: Process | None  # continuation once the prefix fires (branch for Match)
    bullets: int  # bullets consumed by a fire
    repl: bool  # folded replication: the thread survives a fire
    # what a replicated thread becomes after a fire, when its outer bullets
    # change it; None when it stays as it is, so that a head memoized on a
    # process never refers back to that process, and for a thread a fire
    # consumes
    residual: Process | None
    # ``_chan_key`` of an action's channel; None for a match or an inert thread
    key: tuple[str, object] | None
    arity: int = 0  # of an action: the values it sends or the parameters it binds


def head_of(proc: Process) -> Head:
    """The head of a thread, memoized on its process node.

    An unbulleted comparison is the core of its own head, so its head is
    not kept: the memo would be a reference cycle through the node, left
    for the cyclic collector.  Building that head again is cheap.
    """
    head = proc._memo_head
    if head is None:
        head = _head(proc)
        if head.core is not proc:
            object.__setattr__(proc, "_memo_head", head)
    return head


def _head(proc: Process) -> Head:
    bullets = 0
    p = proc
    while isinstance(p, Bullet):
        bullets += 1
        p = p.body
    if isinstance(p, Repl):
        inner = p.body
        copy_bullets = 0
        while isinstance(inner, Bullet):
            copy_bullets += 1
            inner = inner.body
        residual = p if bullets else None  # the first fire spends outer bullets
        if isinstance(inner, Act):
            return _act_head(inner, bullets + copy_bullets, True, residual)
        if isinstance(inner, Match):
            return Head(inner, None, bullets + copy_bullets, True, residual, None)
        raise EngineError("replication must guard an action or a match")
    if isinstance(p, Act):
        return _act_head(p, bullets, False, None)
    if isinstance(p, Match):
        return Head(p, None, bullets, False, None, None)
    if isinstance(p, Nil):
        return Head(None, None, bullets, False, None, None)
    raise AssertionError(f"non-normalized thread process: {p!r}")


def _act_head(p: Act, bullets: int, repl: bool, residual: Process | None) -> Head:
    action = p.action
    arity = len(action.params) if type(action) is Recv else len(action.args)
    return Head(action, p.cont, bullets, repl, residual, _chan_key(action.chan), arity)


# ------------------------------------------------------------ normalize


class _Builder:
    """Accumulates threads while hoisting restrictions and flattening parallels.

    A restriction whose name is taken is renamed to a fresh variant.  The
    renames of the restrictions above a subtree travel down with it as one
    dict from names to fresh names, together with the receive bindings the
    subtree was spawned under, and each thread it spawns keeps them as its
    environment, unapplied (see ``Thread``).  That chooses the same names
    as renaming each body in turn would, because a rename whose fresh name
    is a binder inside the body (where renaming the body would rename that
    binder first) is applied to the body there and then, closing it.  The
    renames dict is shared by every thread spawned under it and never
    mutated: a restriction that renames or shadows a name copies it.

    A soup keeps one builder, and takes its new threads and hoisted names
    after each fire.  ``normalize``, ``insert_process`` and ``apply_redex``
    make one per call and close the threads it spawns, as a ``Config``
    holds only closed threads.
    """

    def __init__(self, used: set[str], restricted: set[str], next_tid: int):
        self.used = used
        self.restricted = restricted
        self.next_tid = next_tid
        self.floors: dict[str, int] = {}  # see _fresh_variant
        self.new_threads: list[Thread] = []

    def spawn(self, proc: Process, depth: int, env) -> None:
        """Add ``proc`` as it stands under a thread's environment.

        A lone prefix or comparison is the thread ``add`` would make of it,
        built without the walk: a thread's environment is None or has a
        binding or a rename.
        """
        cls = type(proc)
        if cls is Act or cls is Match:
            self.new_threads.append(Thread(self.next_tid, proc, depth, env))
            self.next_tid += 1
        elif cls is not Nil:
            if env is None:
                self.add(proc, depth)
            else:
                self.add(proc, depth, *env)

    def receive(self, rh: Head, values: tuple[Term, ...], env, depth: int) -> None:
        """Add the continuation of receiver ``rh`` with ``values`` received,
        under the receiving thread's environment."""
        params = rh.core.params
        vm, nm = (_NO_VARS, _NO_NAMES) if env is None else env
        bound = dict(zip(params, values))
        bound.pop(None, None)  # a wildcard parameter binds nothing
        cont = rh.cont
        inner = binders(cont)
        if inner and not inner.isdisjoint([v.name for v in values if type(v) is NameT]):
            # substituting would rename the binder the name meets: close
            # the continuation, whose parameters shadow their old bindings,
            # and substitute now
            outer = {x: v for x, v in vm.items() if x not in params}
            self.add(rewrite(rewrite(cont, outer, nm), var_map=bound), depth)
            return
        # a parameter's new binding replaces the one it shadows
        if vm:
            bound = {**vm, **bound}
        cls = type(cont)
        if cls is Act or cls is Match:  # the thread ``add`` would make
            self.new_threads.append(
                Thread(self.next_tid, cont, depth, (bound, nm) if bound or nm else None))
            self.next_tid += 1
        elif cls is not Nil:
            self.add(cont, depth, bound, nm)

    def add(self, proc: Process, depth: int, vm: dict[str, Term] = _NO_VARS,
            nm: dict[str, str] = _NO_NAMES) -> None:
        while True:  # down the right of parallels and into restrictions
            cls = type(proc)
            if cls is Act or cls is Match:
                self._thread(proc, depth, vm, nm)
                return
            if cls is Par:
                self.add(proc.left, depth, vm, nm)
                proc = proc.right
            elif cls is New:
                name, proc = proc.name, proc.body
                chosen = _fresh_variant(name, self.used, self.floors)
                self.used.add(chosen)
                self.restricted.add(chosen)
                if name in nm:  # shadowed: the rename moves last, as it is newest
                    nm = {old: new for old, new in nm.items() if old != name}
                if chosen != name:
                    # ``symbols`` holds the binders and is kept on the nodes
                    # ``rewrite`` builds: the common miss costs no walk
                    if chosen in symbols(proc) and chosen in binders(proc):
                        # renaming the body renames that inner binder first
                        proc = rewrite(rewrite(proc, vm, nm), name_map={name: chosen})
                        vm, nm = _NO_VARS, _NO_NAMES
                    else:
                        nm = {**nm, name: chosen}
            elif cls is Nil:
                return
            elif cls is Bullet:
                self._add_bulleted(proc, depth, vm, nm)
                return
            elif cls is Repl:
                head_of(proc)  # raises on unguarded bodies
                self._thread(proc, depth, vm, nm)
                return
            else:
                raise TypeError(f"not a process: {proc!r}")

    def _add_bulleted(self, proc: Process, depth: int, vm: dict[str, Term],
                      nm: dict[str, str]) -> None:
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
                self.add(New(name, inner), depth, vm, nm)
            case Par():
                raise EngineError("a bullet must guard a sequential process")
            case Nil():
                self._thread(proc, depth, _NO_VARS, _NO_NAMES)  # inert, kept for bullet accounting
            case Repl() | Act() | Match():
                head_of(proc)
                self._thread(proc, depth, vm, nm)
            case _:
                raise TypeError(f"not a process: {p!r}")

    def _thread(self, proc: Process, depth: int, vm: dict[str, Term],
                nm: dict[str, str]) -> None:
        env = (vm, nm) if vm or nm else None
        self.new_threads.append(Thread(self.next_tid, proc, depth, env))
        self.next_tid += 1


def _make_config(threads: tuple[Thread, ...], restricted: set[str],
                 used: set[str], next_tid: int, prune: bool = False) -> Config:
    if prune:
        # drop restricted names that occur nowhere; cosmetic, and cheap
        # enough only at normalization time, so steps skip it
        occurring: set[str] = set()
        for t in threads:
            occurring |= all_names(t.proc)
        restricted = restricted & occurring
    return Config(
        restricted=frozenset(restricted),
        threads=threads,
        used=frozenset(used),
        next_tid=next_tid,
    )


def normalize(p: Process) -> Config:
    """Flatten a process into a config, renaming binders to keep names unique."""
    used = set(free_names(p))
    builder = _Builder(used, set(), 0)
    builder.add(p, 0)
    return _make_config(tuple([_closed(t) for t in builder.new_threads]),
                        builder.restricted, used, builder.next_tid, prune=True)


def insert_process(config: Config, p: Process, depth: int = 0) -> Config:
    """Drop an extra process into a copy of a soup."""
    used = set(config.used) | free_names(p)
    restricted = set(config.restricted)
    builder = _Builder(used, restricted, config.next_tid)
    builder.add(p, depth)
    threads = config.threads + tuple([_closed(t) for t in builder.new_threads])
    return _make_config(threads, restricted, used, builder.next_tid)


# -------------------------------------------------------------- redexes

@dataclass(slots=True, unsafe_hash=True)
class Redex:
    rule: str  # COMM | BROAD | THEN | ELSE | FAULT
    participants: tuple[int, ...]  # sender first, then receivers in tid order
    channel: tuple[str, object] | None = None
    branch_then: bool | None = None
    bullets: int = 0
    reason: str | None = None


def _chan_key(c: Chan) -> tuple[str, object] | None:
    if not isinstance(c.base, NameT):
        return None  # unresolved variable or a number: never a usable channel
    if isinstance(c.suffix, (VarT, NameT)):
        return None
    return (c.base.name, c.suffix)


def _key_text(key: tuple[str, object]) -> str:
    """``render_chan`` of the channel with key ``key``: its name, then
    ``.`` and its suffix if it has one."""
    name, suffix = key
    return name if suffix is None else f"{name}.{suffix}"


def _text_key(text: str) -> tuple[str, object] | None:
    """The channel key whose ``_key_text`` is ``text``; None if none is.

    A name has no ``.``, and a suffix is a number or a label.
    """
    name, dot, suffix = text.partition(".")
    if not dot:
        return (name, None)
    try:
        key = (name, int(suffix))
    except ValueError:
        key = (name, suffix)
    return key if _key_text(key) == text else None


def _match_redex(tid: int, h: Head, env=None) -> Redex | None:
    """THEN, ELSE or FAULT for a comparison thread, whose operands are read
    under its environment; None while undecidable, that is while an operand
    has a variable the environment does not bind, even if the other faults."""
    m = h.core
    vm, nm = (_NO_VARS, _NO_NAMES) if env is None else env
    try:
        taken = compare(m.op, _value(m.left, vm, nm), _value(m.right, vm, nm))
    except TermError as exc:
        if not term_vars(m.left).union(term_vars(m.right)).issubset(vm):
            return None
        return Redex("FAULT", (tid,), reason=str(exc))
    return Redex("THEN" if taken else "ELSE", (tid,), branch_then=taken,
                 bullets=h.bullets)


def _broad_redex(key: tuple, tid: int, h: Head,
                 receivers: Iterable[tuple[int, Head]]) -> tuple[Redex, list[str]]:
    """BROAD of a broadcast with every receiver of its arity on ``key``, plus
    a diagnostic per receiver of another arity."""
    arity = h.arity
    rtids: list[int] = []
    bullets = h.bullets
    diagnostics: list[str] = []
    for rtid, rh in receivers:
        rarity = rh.arity
        if rarity != arity:
            diagnostics.append(f"arity mismatch on broadcast {key[0]}: {arity} vs {rarity}")
            continue
        rtids.append(rtid)
        bullets += rh.bullets
    return Redex("BROAD", (tid, *sorted(rtids)), channel=key, bullets=bullets), diagnostics


def enabled_redexes(config: Config) -> tuple[list[Redex], list[str]]:
    """All redexes of the soup, in deterministic order, plus diagnostics.

    Diagnostics report arity mismatches between a send and a receive on the
    same channel; strict-mode runs treat them as faults, permissive runs
    ignore them.  Both come from the ``LiveSoup`` index of the soup.
    """
    soup = LiveSoup(config)
    return list(soup.redexes), soup.diagnostics()


# ---------------------------------------------------------------- steps

@dataclass(slots=True, unsafe_hash=True)
class Step:
    """One fired redex.

    ``key`` is the fired redex's channel key (None for a match) and
    ``mark`` is ":" for a broadcast on a free channel; ``channel`` gives
    the text from them when read, as only ``simulate`` prints it.
    """

    index: int
    kind: str  # "important" | "administrative"
    rule: str  # COMM | BROAD | THEN | ELSE
    key: tuple[str, object] | None
    mark: str
    participants: tuple[int, ...]
    depth_after: int
    bullets: int

    @property
    def channel(self) -> str | None:
        """The channel's text; ":c" marks a broadcast on a free channel."""
        key = self.key
        return None if key is None else self.mark + _key_text(key)


class CommitFault(Exception):
    def __init__(self, message: str, tids: tuple[int, ...]):
        super().__init__(message)
        self.tids = tids


def _fire(redex: Redex, thread: Callable[[int], Thread], restricted: set[str],
          builder: _Builder, index: int) -> tuple[list[tuple[Thread, Process | None]], tuple]:
    """Fire one redex: spawn its continuations into ``builder``.

    Returns the participants whose thread changes, in participant order,
    each with what it becomes: None for one the step consumes, the folded
    residual for a replicated one whose outer bullets the step spends.  A
    replicated participant without outer bullets stays as it is and is not
    listed.  Then the step, as the row of ``Step``'s fields: ``(index,
    kind, rule, key, mark, participants, depth_after, bullets)``.  Raises
    ``CommitFault``, before spawning anything, if commit-time evaluation
    fails.  Sent values, channels and match operands are read under each
    participant's environment, and the continuations spawn under it (see
    ``_Builder.spawn`` and ``_Builder.receive``).
    """
    changed: list[tuple[Thread, Process | None]] = []
    important = redex.bullets > 0
    inc = 1 if important else 0
    mark = ""
    rule = redex.rule

    if rule == "COMM":
        stid, rtid = redex.participants
        s, r = thread(stid), thread(rtid)
        sh = s.proc._memo_head or head_of(s.proc)
        rh = r.proc._memo_head or head_of(r.proc)
        try:
            values = _values(sh, s.env)
        except TermError as exc:
            raise CommitFault(str(exc), (stid,))
        depth_after = (s.depth if s.depth > r.depth else r.depth) + inc
        if sh.residual is not None or not sh.repl:
            changed.append((s, sh.residual))
        if rh.residual is not None or not rh.repl:
            changed.append((r, rh.residual))
        builder.spawn(sh.cont, depth_after, s.env)
        builder.receive(rh, values, r.env, depth_after)
    elif rule == "THEN" or rule == "ELSE":
        t = thread(redex.participants[0])
        h = head_of(t.proc)
        m = h.core
        branch = m.then if redex.branch_then else m.orelse
        depth_after = t.depth + inc
        if h.residual is not None or not h.repl:
            changed.append((t, h.residual))
        builder.spawn(branch, depth_after, t.env)
    elif rule == "BROAD":
        s = thread(redex.participants[0])
        sh = head_of(s.proc)
        try:
            values = _values(sh, s.env)
        except TermError as exc:
            raise CommitFault(str(exc), (s.tid,))
        # a broadcast on a free channel is labelled observable
        if redex.channel[0] not in restricted:
            mark = ":"
        depths = [s.depth]
        if sh.residual is not None or not sh.repl:
            changed.append((s, sh.residual))
        receivers: list[tuple[Thread, Head]] = []
        for rtid in redex.participants[1:]:
            r = thread(rtid)
            rh = head_of(r.proc)
            depths.append(r.depth)
            receivers.append((r, rh))
            if rh.residual is not None or not rh.repl:
                changed.append((r, rh.residual))
        depth_after = max(depths) + inc
        builder.spawn(sh.cont, depth_after, s.env)
        for r, rh in receivers:
            builder.receive(rh, values, r.env, depth_after)
    else:
        raise ValueError(f"cannot apply redex {rule}")

    return changed, (index, "important" if important else "administrative", rule,
                     redex.channel, mark, redex.participants, depth_after, redex.bullets)


def apply_redex(config: Config, redex: Redex,
                memo: dict | None = None) -> tuple[Config, Step]:
    """Fire one redex.  Raises ``CommitFault`` if commit-time evaluation fails.

    The continuations spawn through ``_Builder`` as ``run``'s do, each a
    template under an environment, and each thread spawned with an
    environment is then closed by one ``rewrite``, as a ``Config`` holds
    only closed threads.  ``memo`` keeps each closed process under its
    template and environment, which determine it; a search passes one dict
    for all its steps, so sibling states that fire the same receive or
    hoist the same restrictions the same way share one closed node, and
    with it its ``_thread_template`` and key entry.  A participant the
    step leaves as it is stays the parent's ``Thread``, and the successor
    shares the parent's name sets when the step hoisted no restriction.
    """
    used = set(config.used)
    restricted = set(config.restricted)
    builder = _Builder(used, restricted, config.next_tid)
    # built as a list, so that the successor's tuple has its final size: a
    # tuple built from a generator is allocated larger and shrunk, and each
    # such tuple that dies strands a block in the interpreter's per-size
    # tuple free lists, which only a full collection empties (about 1.5 MB
    # after ten explores of ``map ((\x. (x, x)), [a, b])``)
    threads = list(config.threads)
    tids = [t.tid for t in threads]
    changed, row = _fire(redex, lambda tid: threads[tids.index(tid)], restricted, builder, 0)
    if changed:
        for t, residual in changed:
            i = tids.index(t.tid)
            if residual is None:
                del threads[i], tids[i]
            else:
                threads[i] = Thread(t.tid, residual, t.depth)
    if memo is None:
        memo = {}
    for t in builder.new_threads:
        if t.env is not None:
            vm, nm = t.env
            key = (t.proc, tuple(vm.items()), tuple(nm.items()))
            proc = memo.get(key)
            if proc is None:
                proc = memo[key] = rewrite(t.proc, vm, nm)
            t = Thread(t.tid, proc, t.depth)
        threads.append(t)
    step = Step(*row)
    if len(used) == len(config.used):
        # no name hoisted (the builder adds every name it restricts to
        # both sets): share the parent's sets, most of what a state would
        # hold on its own
        return Config(config.restricted, tuple(threads), config.used,
                      builder.next_tid), step
    return _make_config(tuple(threads), restricted, used, builder.next_tid), step


def _drop_threads(config: Config, tids: tuple[int, ...]) -> Config:
    threads = tuple(t for t in config.threads if t.tid not in tids)
    return Config(config.restricted, threads, config.used, config.next_tid)


# ----------------------------------------------------------------- barbs

def barbs(config: Config) -> frozenset[tuple[str, str]]:
    """Unrestricted channels with a pending send (``out``) or receive (``in``)."""
    out: set[tuple[str, str]] = set()
    for t in config.threads:
        h = head_of(t.proc)
        key = h.key
        if key is None or key[0] in config.restricted:
            continue
        out.add((render_chan(h.core.chan), "in" if isinstance(h.core, Recv) else "out"))
    return frozenset(out)


# ------------------------------------------------------------------- run

@dataclass(slots=True)
class Trace:
    """What a ``run`` did: its steps, how it stopped, its faults, and the
    soup it stepped, which the caller may go on stepping or read back.

    ``rows`` holds each step as ``LiveSoup.fire`` returns it, the row of
    ``Step``'s fields; ``work``, ``span``, ``admin_steps`` and ``to_dict``
    read the rows, and ``steps`` builds the ``Step``s where one is wanted.
    """

    rows: list[tuple] = field(default_factory=list)
    status: str = "terminated"
    faults: list[str] = field(default_factory=list)
    soup: LiveSoup | None = None

    @property
    def steps(self) -> tuple[Step, ...]:
        """The steps, built from the rows; a tuple, as appending to it
        would change no trace."""
        return tuple([Step(*row) for row in self.rows])

    @property
    def work(self) -> int:
        return sum(1 for row in self.rows if row[1] == "important")

    @property
    def admin_steps(self) -> int:
        return sum(1 for row in self.rows if row[1] == "administrative")

    @property
    def span(self) -> int:
        return max((row[6] for row in self.rows), default=0)

    def to_dict(self) -> dict:
        return {
            "steps": [
                {"idx": index, "kind": kind, "rule": rule,
                 "channel": None if key is None else mark + _key_text(key), "depth": depth}
                for index, kind, rule, key, mark, _participants, depth, _bullets in self.rows
            ],
            "work": self.work,
            "span": self.span,
            "admin_steps": self.admin_steps,
            "barbs": sorted(f"{name}:{pol}" for name, pol in self.soup.barbs()),
            "status": self.status,
            "faults": list(self.faults),
        }


class LiveSoup:
    """The mutable, channel-indexed soup: the one index of a soup's redexes.

    Holds the threads by tid (in soup order) and four things derived from
    them: the pending sends, receives and broadcasts of each evaluated
    channel, the enabled redexes sorted by participants (``redexes``, with
    their participants in ``keys``), the BROAD each broadcast forms
    (``broads``), and the number of arity mismatches, whose texts
    ``diagnostics`` gives.  The observable barbs are the unrestricted keys
    of the queues (``barbs``, ``shows``).  ``run`` steps a soup in place
    and ``explore`` builds one per state it expands.  A step updates the
    index only for the threads it consumes, folds or spawns, so its cost
    follows the participants and their channels rather than the whole
    soup.

    ``fire`` walks the participants ``_fire`` lists as changed, unindexing
    each and then dropping it or indexing its residual, takes the
    builder's new threads and indexes each in one loop, and returns the
    step's row; the soup's one builder hoists names straight into its
    ``used`` and ``restricted``.  A step allocates only what the soup
    keeps: the threads it spawns or folds, the redexes it lists, and the
    row the trace keeps.
    Indexing a send or a receive enqueues it on its channel and walks the
    other side's queue there in one loop, with no call per partner: a
    partner of another arity adds a mismatch, any other forms a COMM pair,
    ``bisect``-inserted into ``keys`` and ``redexes``.  Unindexing it
    walks the same queue and takes back the same pairs and mismatches.
    Broadcasts and matches go through their helpers (``_broad``,
    ``_list``/``_unlist``).

    The threads a soup spawns itself (``fire``) keep their
    environments (see ``Thread``): a continuation is spawned as the shared
    template it is in the process text, with the received values and the
    hoisting renames recorded beside it, so a step copies no syntax.  The
    index reads each thread's channel, barbs, sent values and match
    operands under its environment.  A thread is closed, one ``rewrite``
    each, only where a closed process is asked for: ``config``, which
    builds every ``Config`` taken from a soup.  Nothing calls it at the end
    of a ``run``: the ``Trace`` holds the soup, and read-back reads its
    send queues (``ask``).

    The index keeps nothing for ``collect``, which counts every thread's
    names afresh each time it is called; ``run`` calls it only when the
    soup has doubled since the last call, so the threads spawned in
    between pay for the count.
    """

    def __init__(self, config: Config):
        self.restricted = set(config.restricted)
        self.used = set(config.used)
        self.next_tid = config.next_tid
        self.threads: dict[int, Thread] = {}
        self.sends: dict[tuple, dict[int, Head]] = {}
        self.recvs: dict[tuple, dict[int, Head]] = {}
        self.bcasts: dict[tuple, dict[int, Head]] = {}
        self.broads: dict[int, tuple[tuple[int, ...], int]] = {}  # tid -> (key, mismatches)
        self.keys: list[tuple[int, ...]] = []  # participants of ``redexes``, sorted
        self.redexes: list[Redex] = []
        self.mismatches = 0
        # it hoists names straight into the soup's sets
        self.builder = _Builder(self.used, self.restricted, self.next_tid)
        threads, index = self.threads, self._index
        for t in config.threads:
            threads[t.tid] = t
            index(t)

    def config(self) -> Config:
        """The soup as a ``Config``, every thread closed."""
        return Config(frozenset(self.restricted),
                      tuple([_closed(t) for t in self.threads.values()]),
                      frozenset(self.used), self.next_tid)

    def barbs(self) -> frozenset[tuple[str, str]]:
        """``barbs`` of the soup, one per channel queue."""
        restricted = self.restricted
        return frozenset([(_key_text(key), polarity)
                          for queues, polarity in ((self.sends, "out"), (self.recvs, "in"),
                                                   (self.bcasts, "out"))
                          for key in queues if key[0] not in restricted])

    def shows(self, key: tuple) -> bool:
        """Whether the soup shows an output barb on the channel ``key``."""
        return (key in self.sends or key in self.bcasts) and key[0] not in self.restricted

    def sent(self, key: tuple) -> tuple[Term, ...] | None:
        """The terms the first pending send on ``key`` carries, if any."""
        queue = self.sends.get(key)
        if not queue:
            return None
        tid, h = next(iter(queue.items()))
        env = self.threads[tid].env
        args = h.core.args
        return args if env is None else tuple([_sub_term(a, *env) for a in args])

    def ask(self, handle: str, suffix, arity: int) -> tuple[NumT | NameT, ...] | None:
        """The values an administrative receive of ``arity`` on
        ``handle.suffix`` takes from the quiesced soup; None if none arrive.

        That receive would fire with the lowest-tid pending send on the
        channel whose head carries no bullets, whose arity is ``arity`` and
        whose payload evaluates: the first administrative pair the
        priority policy would pick.  In a quiesced soup nothing else is
        enabled, and no broadcast is pending, as a BROAD fires even with no
        receiver.  A send that is not replicated is consumed, so asking
        again reads the next one; its continuation is not spawned, as a
        read runs nothing.
        """
        queue = self.sends.get((handle, suffix))
        if not queue:
            return None
        for tid, h in sorted(queue.items()):
            if h.bullets or h.arity != arity:
                continue
            try:
                values = _values(h, self.threads[tid].env)
            except TermError:
                continue
            if not h.repl:
                self.drop((tid,))
            return values
        return None

    def diagnostics(self) -> list[str]:
        """The texts of the ``mismatches`` arity mismatches, in soup order:
        COMM mismatches by sender, each sender's receivers in turn, then
        BROAD mismatches by broadcaster."""
        if not self.mismatches:
            return []
        # queues group threads by channel, and a fire re-appends a
        # replicated receiver whose head it changed: sort by soup position
        order = {tid: i for i, tid in enumerate(self.threads)}

        def pending(queues: dict[tuple, dict[int, Head]]) -> list[tuple]:
            return sorted(((tid, key, h) for key, queue in queues.items()
                           for tid, h in queue.items()), key=lambda e: order[e[0]])

        def receivers(key: tuple) -> list[tuple[int, Head]]:
            return sorted(self.recvs.get(key, {}).items(), key=lambda e: order[e[0]])

        texts: list[str] = []
        for _tid, key, h in pending(self.sends):
            for _rtid, rh in receivers(key):
                if rh.arity != h.arity:
                    texts.append(f"arity mismatch on {key[0]}: send of {h.arity} "
                                 f"vs receive of {rh.arity}")
        for tid, key, h in pending(self.bcasts):
            texts.extend(_broad_redex(key, tid, h, receivers(key))[1])
        return texts

    # ---------------------------------------------------------- changes

    def fire(self, redex: Redex, index: int) -> tuple:
        """Fire ``redex`` as step ``index``; returns the step's row (see
        ``_fire``)."""
        threads = self.threads
        builder = self.builder
        changed, row = _fire(redex, threads.__getitem__, self.restricted, builder, index)
        # sender first: a broadcast leaves before its receivers, so their
        # removal does not recompute it
        unindex, index = self._unindex, self._index
        for t, residual in changed:
            unindex(t)
            if residual is None:
                del threads[t.tid]
            else:  # outer bullets spent: the head changed
                new = threads[t.tid] = Thread(t.tid, residual, t.depth, t.env)
                index(new)
        self.next_tid = builder.next_tid
        spawned, builder.new_threads = builder.new_threads, []
        for t in spawned:
            threads[t.tid] = t
            index(t)
        return row

    def drop(self, tids: tuple[int, ...]) -> None:
        for tid in tids:
            self._unindex(self.threads.pop(tid))

    def collect(self) -> None:
        """Drop the replicated sends and receives on restricted channels
        that no other thread mentions, until none is left, then the
        restricted names no thread mentions.

        One pass counts the threads that mention each name and gathers the
        servers by subject.  A server is unreachable exactly when its
        subject is restricted and mentioned once, by the server itself:
        nothing can then send or receive on that channel, so the server
        forms no redex, no arity mismatch and no barb, and dropping it
        changes no report.  Those subjects are the worklist; dropping a
        server lowers the counts of its names, and a subject whose count
        falls to one joins it.  Dropping only lowers counts, so every
        unreachable server stays so and the result is the one fixpoint
        that removing unreachable servers one at a time reaches.  A
        replicated broadcast is kept, as it fires with no receiver at all.
        """
        restricted = self.restricted
        mentions: Counter[str] = Counter()
        serving: dict[str, list[Thread]] = {}
        for t in self.threads.values():
            mentions.update(_mentioned(t))
            h = t.proc._memo_head or head_of(t.proc)
            if h.repl and (type(h.core) is Send or type(h.core) is Recv):
                key = _key_of(h, t.env)
                if key is not None and key[0] in restricted:
                    serving.setdefault(key[0], []).append(t)
        lone = [name for name in serving if mentions[name] == 1]
        while lone:
            (server,) = serving.pop(lone.pop())
            self.drop((server.tid,))
            for name in _mentioned(server):
                mentions[name] -= 1
                if mentions[name] == 1 and name in serving:
                    lone.append(name)
        restricted.intersection_update([name for name, n in mentions.items() if n])

    # ------------------------------------------------------------ index

    def _index(self, t: Thread) -> None:
        tid, proc, env = t.tid, t.proc, t.env
        h = proc._memo_head or head_of(proc)
        core = h.core
        if core is None:
            return
        cls = type(core)
        if cls is Match:
            self._list(_match_redex(tid, h, env))
            return
        key = h.key if env is None else _key_of(h, env)
        if key is None:
            return
        if cls is Bcast:
            _enqueue(self.bcasts, key, tid, h)
            self._broad(key, tid)
            return
        send = cls is Send
        _enqueue(self.sends if send else self.recvs, key, tid, h)
        partners = (self.recvs if send else self.sends).get(key)
        if partners:
            arity, bullets = h.arity, h.bullets
            keys, redexes = self.keys, self.redexes
            for ptid, ph in partners.items():
                if ph.arity != arity:
                    self.mismatches += 1
                    continue
                pair = (tid, ptid) if send else (ptid, tid)
                i = bisect_left(keys, pair)
                keys.insert(i, pair)
                redexes.insert(i, Redex("COMM", pair, key, None, bullets + ph.bullets))
        if not send:
            for btid in self.bcasts.get(key, _NO_QUEUE):
                self._broad(key, btid)

    def _unindex(self, t: Thread) -> None:
        tid, proc, env = t.tid, t.proc, t.env
        h = proc._memo_head or head_of(proc)
        core = h.core
        if core is None:
            return
        cls = type(core)
        if cls is Match:
            self._unlist((tid,))
            return
        key = h.key if env is None else _key_of(h, env)
        if key is None:
            return
        if cls is Bcast:
            _discard(self.bcasts, key, tid)
            participants, mismatches = self.broads.pop(tid)
            self._unlist(participants)
            self.mismatches -= mismatches
            return
        send = cls is Send
        _discard(self.sends if send else self.recvs, key, tid)
        # the partners queued now are those ``_index`` paired it with, or
        # were queued after it and paired with it then
        partners = (self.recvs if send else self.sends).get(key)
        if partners:
            arity = h.arity
            keys, redexes = self.keys, self.redexes
            for ptid, ph in partners.items():
                if ph.arity != arity:
                    self.mismatches -= 1
                    continue
                i = bisect_left(keys, (tid, ptid) if send else (ptid, tid))
                del keys[i]
                del redexes[i]
        if not send:
            for btid in self.bcasts.get(key, _NO_QUEUE):
                self._broad(key, btid)

    def _broad(self, key: tuple, tid: int) -> None:
        """(Re)compute the BROAD of broadcast ``tid`` after its receivers changed."""
        old = self.broads.get(tid)
        if old is not None:
            self._unlist(old[0])
            self.mismatches -= old[1]
        redex, diagnostics = _broad_redex(key, tid, self.bcasts[key][tid],
                                          self.recvs.get(key, _NO_QUEUE).items())
        self.broads[tid] = (redex.participants, len(diagnostics))
        self.mismatches += len(diagnostics)
        self._list(redex)

    def _list(self, redex: Redex | None) -> None:
        if redex is None:
            return
        i = bisect_left(self.keys, redex.participants)
        self.keys.insert(i, redex.participants)
        self.redexes.insert(i, redex)

    def _unlist(self, participants: tuple[int, ...]) -> None:
        # absent if never formed: an undecidable match
        i = bisect_left(self.keys, participants)
        if i < len(self.keys) and self.keys[i] == participants:
            del self.keys[i]
            del self.redexes[i]


def _administrative(redex: Redex) -> bool:
    """Whether an administrative-only reduction may fire ``redex``."""
    return redex.bullets == 0 and redex.rule != "FAULT"


# the queue of a channel with none pending; nothing adds to it
_NO_QUEUE: dict[int, Head] = {}


def _enqueue(queues: dict[tuple, dict[int, Head]], key: tuple, tid: int, h: Head) -> None:
    queue = queues.get(key)
    if queue is None:
        queues[key] = {tid: h}
    else:
        queue[tid] = h


def _discard(queues: dict[tuple, dict[int, Head]], key: tuple, tid: int) -> None:
    queue = queues[key]
    del queue[tid]
    if not queue:
        del queues[key]


def run(config: Config | LiveSoup, policy: str = "priority", seed: int = 0,
        budget: int = 1_000_000, stop_barb: str | None = None,
        permissive: bool = False, gc: bool = False) -> Trace:
    """Schedule redexes until quiescence, a stop barb, a fault, or the budget.

    ``policy`` is ``"priority"`` (lowest participant thread ids win) or
    ``"random"`` (uniform over enabled redexes, seeded).  ``stop_barb``
    halts as soon as the named channel is observable: a send or a
    broadcast is queued on it and its name is not restricted.  ``gc`` runs ``LiveSoup.collect`` before
    the first step, whenever the soup holds more than twice the threads
    the last collection left, and once more at the end; a collected server
    can never fire, so the trace is the same with and without ``gc``, and
    only the soup it holds is smaller.  A ``LiveSoup`` is stepped in place,
    and a ``Config`` as a ``LiveSoup`` built from it.  Either way the
    trace's ``soup`` is the soup stepped.
    """
    if policy not in ("priority", "random"):
        raise ValueError(f"unknown policy {policy!r}")
    # redexes are sorted by participants, so index 0 is the priority pick;
    # ``choice(redexes)`` draws ``redexes[randrange(len(redexes))]``
    choose = random.Random(seed).choice if policy == "random" else None
    soup = LiveSoup(config) if isinstance(config, Config) else config
    stop = None if stop_barb is None else _text_key(stop_barb)
    trace = Trace(soup=soup)
    rows = trace.rows
    fire = soup.fire
    if gc:
        soup.collect()
        collected = len(soup.threads)
    while True:
        if gc and len(soup.threads) > 2 * collected:
            soup.collect()
            collected = len(soup.threads)
        if stop is not None and soup.shows(stop):
            trace.status = "barb"
            break
        if soup.mismatches and not permissive:
            trace.status = "fault"
            trace.faults.extend(soup.diagnostics())
            break
        redexes = soup.redexes
        if not redexes:
            trace.status = "terminated"
            break
        if len(rows) >= budget:
            trace.status = "timeout"
            break
        redex = redexes[0] if choose is None else choose(redexes)
        if redex.rule == "FAULT":
            trace.faults.append(redex.reason or "fault")
            if not permissive:
                trace.status = "fault"
                break
            soup.drop(redex.participants)
            continue
        try:
            rows.append(fire(redex, len(rows) + 1))
        except CommitFault as fault:
            trace.faults.append(str(fault))
            if not permissive:
                trace.status = "fault"
                break
            soup.drop(fault.tids)
            continue
    if gc:
        soup.collect()
    return trace


# --------------------------------------------------------------- explore

def _thread_template(proc: Process) -> tuple[str, tuple[str, ...]]:
    """Encode a thread as a skeleton with free-name occurrences abstracted out.

    Local binders (guarded restrictions, receive patterns) encode
    positionally, so fresh names picked during unfolding cannot split
    states.  Every other name occurrence becomes an indexed hole; the
    returned occurrence list restores them.  Names and variables are different
    sorts, so the encoders' binder depths key a restriction by its name and
    a receive parameter by ``("var", x)``: a name that happens to be
    spelled as a parameter in scope stays a hole.  Cached on the process
    node: threads survive across many states during exploration.
    """
    template = proc._memo_template
    if template is None:
        occs: list[str] = []
        # rendered as a string, which caches its hash: a table lookup of
        # the skeleton then costs no walk of it
        template = repr(_enc_process(proc, {}, 0, occs)), tuple(occs)
        object.__setattr__(proc, "_memo_template", template)
    return template


# ``_thread_template``'s encoders are module functions, not closures: a
# recursive closure is a reference cycle, left for the cyclic collector

def _enc_name(name: str, env: dict[object, int], occs: list[str]):
    if name in env:
        return ("b", env[name])
    occs.append(name)
    return ("N", len(occs) - 1)


def _enc_term(t: Term, env: dict[object, int], occs: list[str]):
    match t:
        case NumT(v):
            return ("n", v)
        case NameT(name):
            return _enc_name(name, env, occs)
        case VarT(name):
            bound = ("var", name)
            return ("v", env[bound]) if bound in env else ("v?", name)
        case OpT(op, left, right):
            return ("op", op, _enc_term(left, env, occs), _enc_term(right, env, occs))


def _enc_chan(c: Chan, env: dict[object, int], occs: list[str]):
    sfx = c.suffix
    if isinstance(sfx, (VarT, NameT)):
        sfx = _enc_term(sfx, env, occs)
    return (_enc_term(c.base, env, occs), sfx)


_ACTION_TAGS = {Send: "snd", Recv: "rcv", Bcast: "bct"}


def _enc_process(p: Process, env: dict[object, int], depth: int, occs: list[str]):
    match p:
        case Nil():
            return ("0",)
        case Par(left, right):
            return ("|", _enc_process(left, env, depth, occs),
                    _enc_process(right, env, depth, occs))
        case Repl(body):
            return ("!", _enc_process(body, env, depth, occs))
        case Bullet(body):
            return ("*", _enc_process(body, env, depth, occs))
        case New(name, body):
            return ("new", _enc_process(body, {**env, name: depth}, depth + 1, occs))
        case Act(action, cont):
            tag = _ACTION_TAGS[type(action)]
            if isinstance(action, Recv):
                inner = dict(env)
                d = depth
                shape = []
                for x in action.params:
                    if x is None:
                        shape.append("_")
                    else:
                        inner[("var", x)] = d
                        shape.append(d)
                        d += 1
                return (tag, _enc_chan(action.chan, env, occs), tuple(shape),
                        _enc_process(cont, inner, d, occs))
            payload = tuple(_enc_term(t, env, occs) for t in action.args)
            return (tag, _enc_chan(action.chan, env, occs), payload,
                    _enc_process(cont, env, depth, occs))
        case Match(left, op, right, then, orelse):
            return ("m", op, _enc_term(left, env, occs), _enc_term(right, env, occs),
                    _enc_process(then, env, depth, occs),
                    _enc_process(orelse, env, depth, occs))


def _key_entry(proc: Process, restricted: frozenset[str], table: dict) -> tuple:
    """A thread's ``canonical_key`` entry: its skeleton's number in ``table``,
    its occurrences with restricted names blinded, and its occurrences."""
    skeleton, occs = _thread_template(proc)
    return (table.setdefault(skeleton, len(table)),
            tuple((0, 0) if n in restricted else (1, n) for n in occs), occs)


def _remember_entry(proc: Process, restricted: frozenset[str], table: dict,
                    cache: object) -> tuple:
    """Compute ``proc``'s key entry and keep it on the node as its
    ``_memo_entry``: the search token ``cache``, the entry, and the entry's
    number in ``table``."""
    entry = _key_entry(proc, restricted, table)
    memo = (cache, entry, table.setdefault(entry, len(table)))
    object.__setattr__(proc, "_memo_entry", memo)
    return memo


def _entry_multiset(config: Config, table: dict, cache: object) -> tuple[int, ...]:
    """The sorted numbers of ``config``'s thread entries in one search.

    ``canonical_key`` reads nothing of a config but the multiset of its
    thread entries, and within a search a number stands for one entry (see
    ``canonical_key``'s ``cache``), so two configs with equal multisets
    have equal keys.  Computes the entries it lacks, as the key would.
    """
    restricted = config.restricted
    numbers = []
    for t in config.threads:
        memo = t.proc._memo_entry
        if memo is None or memo[0] is not cache:
            memo = _remember_entry(t.proc, restricted, table, cache)
        numbers.append(memo[2])
    numbers.sort()
    return tuple(numbers)


def canonical_key(config: Config, table: dict, cache: object | None = None) -> tuple:
    """A hashable form identifying configs up to renaming of restricted names.

    Two configs with equal keys under one ``table`` are alpha-equivalent
    soups (depths and thread identities ignored).  The converse can miss:
    symmetric configs may canonicalize differently, which only costs
    deduplication, never soundness.  ``table`` numbers thread skeletons,
    canonical thread forms and, under a ``cache``, thread entries in the
    order the keys computed with it first see them; the skeleton numbers
    order the threads, so keys are comparable only under one table, and
    ``explore`` owns one per search.  Keys are
    multisets of thread-form numbers, so holding hundreds of thousands of
    them stays cheap.

    ``cache`` is a token owned by one search.  Each thread's entry (see
    ``_key_entry``) is kept on its process node, tagged with the token and
    numbered in ``table``, and read back from there by later keys with the
    same token, so a key computes entries only for the threads new since
    the states before it.  That is sound because within one search every
    name keeps its restricted or free status: restricted names are fresh
    when they are hoisted and never freed.  Without ``cache`` every entry
    is computed.
    """
    restricted = config.restricted
    if cache is None:
        entries = [_key_entry(t.proc, restricted, table) for t in config.threads]
    else:
        entries = []
        for t in config.threads:
            memo = t.proc._memo_entry
            if memo is None or memo[0] is not cache:
                memo = _remember_entry(t.proc, restricted, table, cache)
            entries.append(memo[1])

    # order threads by skeleton number and name-blinded occurrences, then
    # number restricted names by first appearance in that order
    blinded = sorted(entries)

    def assign(ordering) -> list[tuple]:
        numbers: dict[str, int] = {}
        keyed = []
        for skel, _masked, occs in ordering:
            parts = []
            for n in occs:
                if n in restricted:
                    k = numbers.get(n)
                    if k is None:
                        k = len(numbers)
                        numbers[n] = k
                    parts.append((0, k))
                else:
                    parts.append((1, n))
            keyed.append((skel, tuple(parts), occs))
        return keyed

    keyed = assign(blinded)
    keyed = assign(sorted(keyed))
    return tuple(sorted(table.setdefault((skel, parts), len(table))
                        for skel, parts, _ in keyed))


def explore(config: Config, state_bound: int = 100_000, depth_bound: int = 100_000,
            admin_only: bool = False, stop_barb: str | None = None,
            ) -> tuple[list[Config], bool, int]:
    """Breadth-first search of the reduction graph modulo canonical renaming.

    Returns terminal configs (no enabled redexes), whether a bound was hit,
    and the number of distinct states visited.  Arity mismatches and match
    faults are treated permissively (the offending thread blocks or drops).
    ``admin_only`` fires only administrative redexes: those of a state's
    ``LiveSoup`` that ``_administrative`` passes.  ``stop_barb`` means what
    it means to ``run``: a state where the named channel is observable is
    terminal.  The search returns as soon as it expands such a state, with
    that state as the last terminal and no bound hit; a state only
    discovered does not stop it, so the bounds cut the search where they
    would without the goal.  Each expanded state's redexes and output
    barbs come from a ``LiveSoup`` built on it, as ``run``'s do.

    Sibling states share most threads, fire the same receives and hoist
    the same restrictions, so the search shares that work through memos
    that live only as long as it does: a dict of the closed threads
    ``apply_redex`` builds, keyed by template and environment, and a token
    that tags each thread's ``canonical_key`` entry, with its number, on
    its process node.

    A successor is keyed in full only if its multiset of entry numbers
    (``_entry_multiset``) is new to the level being built: an equal
    multiset gives the key already computed for it, which is in ``seen``.
    Most duplicate successors repeat a multiset within one level, and the
    set of multisets is dropped when the frontier advances.  A terminal
    needs no second key, as no state enters the frontier twice.
    """
    start = normalize_depths(config)
    stop = None if stop_barb is None else _text_key(stop_barb)
    table: dict = {}
    cache = object()  # tags this search's key entries on the process nodes
    memo: dict = {}  # closed threads by template and environment
    seen = {canonical_key(start, table, cache)}
    keyed: set[tuple[int, ...]] = set()  # entry multisets keyed in this level
    frontier = [start]
    terminals: list[Config] = []
    bound_hit = False
    depth = 0
    while frontier:
        if depth >= depth_bound:
            bound_hit = True
            break
        next_frontier: list[Config] = []
        for c in frontier:
            soup = LiveSoup(c)
            if stop is not None and soup.shows(stop):
                terminals.append(c)
                return terminals, False, len(seen)
            redexes = soup.redexes
            if admin_only:
                redexes = [r for r in redexes if _administrative(r)]
            if not redexes:
                # frontier states have distinct keys: no terminal repeats
                terminals.append(c)
                continue
            for redex in redexes:
                if redex.rule == "FAULT":
                    succ = _drop_threads(c, redex.participants)
                else:
                    try:
                        succ, _step = apply_redex(c, redex, memo)
                    except CommitFault as fault:
                        succ = _drop_threads(c, fault.tids)
                multiset = _entry_multiset(succ, table, cache)
                if multiset in keyed:
                    continue
                keyed.add(multiset)
                key = canonical_key(succ, table, cache)
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > state_bound:
                    bound_hit = True
                    return terminals, bound_hit, len(seen)
                next_frontier.append(succ)
        frontier = next_frontier
        keyed.clear()
        depth += 1
    if frontier:
        bound_hit = True
    return terminals, bound_hit, len(seen)


def normalize_depths(config: Config) -> Config:
    threads = tuple(replace(t, depth=0) for t in config.threads)
    return replace(config, threads=threads)
