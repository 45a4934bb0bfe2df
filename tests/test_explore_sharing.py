"""``explore`` shares work between the states of one search, and searches
exactly as the loop that computes everything afresh.

``reference_explore`` keys every successor and every terminal from
scratch and memoizes nothing; ``checking_entries`` checks every key entry
``explore`` takes from its cache against one computed in the state at
hand, which is the invariant the cache relies on: within one search, a
name keeps its restricted or free status.  It also checks that every
successor ``explore`` skips without a key, for repeating an entry multiset
already keyed in its level, has a key the search has seen.
``_closing_search`` checks the one memo through which a search closes the
threads its steps spawn against the reference rewriter.
"""

import random
import sys
from dataclasses import fields, is_dataclass

import pytest

from butfpi.butf.parse import parse
from butfpi.correspondence import check_value_barb
from butfpi.epi import engine
from butfpi.epi.engine import (
    EngineError,
    LiveSoup,
    _drop_threads,
    apply_redex,
    barbs,
    canonical_key,
    explore,
    normalize,
)
from butfpi.epi.parse import parse_process
from butfpi.epi.pretty import pretty_process
from butfpi.epi.syntax import (
    Act,
    Bullet,
    Chan,
    Match,
    NameT,
    Nil,
    NumT,
    Par,
    Recv,
    Repl,
    Send,
    VarT,
)
from butfpi.translate import translate
from corpus import CORPUS
from generators import random_closed_program, random_redex_config
from golden import EXPLORE_SKIP
from reference import checking_entries, reference_explore, reference_rewrite


def _same_search(make_config, **kwargs) -> int:
    """Explore two fresh copies of one config, by ``explore`` (checking its
    cached entries and skipped successors) and by the reference; returns
    the states explored.

    With ``stop_barb`` the reference searches on after the first barb
    state, so ``explore`` must give its terminals up to that state.
    """
    want = reference_explore(make_config(), **kwargs)
    got, checked, _ = checking_entries(explore, make_config(), **kwargs)
    barb = kwargs.get("stop_barb")
    stops = [i for i, t in enumerate(want[0]) if (barb, "out") in barbs(t)]
    if stops:
        assert got[1] is False and got[2] <= want[2]
        want = (want[0][:stops[0] + 1],)
    else:
        assert got[1:] == want[1:]  # bound_hit, states
    assert got[0] == want[0]  # the same terminal configs, in the same order
    table: dict = {}
    assert ([canonical_key(t, table) for t in got[0]]
            == [canonical_key(t, table) for t in want[0]])
    assert checked > 0
    return got[2]


@pytest.mark.parametrize("entry", [e for e in CORPUS
                                   if f"corpus-{e.name}" not in EXPLORE_SKIP],
                         ids=lambda e: e.name)
def test_explore_matches_reference_on_corpus(entry):
    # every entry but the five large ones fits in 2 000 states; omega must
    # stop at the same state
    _same_search(lambda: normalize(translate(parse(entry.source))),
                 state_bound=2000, depth_bound=10**9)


def test_explore_matches_reference_on_generated_programs():
    rng = random.Random(61)
    finished = 0
    for _ in range(40):
        e = random_closed_program(rng, depth=3)
        try:
            normalize(translate(e))
        except (EngineError, RecursionError):
            continue
        states = _same_search(lambda: normalize(translate(e)), state_bound=300)
        finished += states <= 300
        _same_search(lambda: normalize(translate(e)), state_bound=300, admin_only=True)
    assert finished >= 20, finished


def test_explore_matches_reference_on_generated_processes():
    rng = random.Random(67)
    searched = 0
    for _ in range(150):
        p = random_redex_config(rng)
        try:
            normalize(p)
        except EngineError:
            continue
        _same_search(lambda: normalize(p), state_bound=200)
        searched += 1
    assert searched >= 100, searched


@pytest.mark.parametrize("entry", [e for e in CORPUS
                                   if f"corpus-{e.name}" not in EXPLORE_SKIP
                                   and e.outcome != "diverges"],
                         ids=lambda e: e.name)
def test_value_barb_search_matches_reference_on_corpus(entry):
    # the administrative search of check_value_barb, with its early exit
    _same_search(lambda: normalize(translate(parse(entry.source))),
                 state_bound=500, depth_bound=10**9, admin_only=True, stop_barb="o")


def test_explore_matches_reference_with_stop_barb_on_generated_programs():
    rng = random.Random(79)
    stopped = 0
    for _ in range(40):
        e = random_closed_program(rng, depth=3)
        try:
            normalize(translate(e))
        except (EngineError, RecursionError):
            continue
        for admin_only in (False, True):
            _same_search(lambda: normalize(translate(e)), state_bound=300,
                         admin_only=admin_only, stop_barb="o")
        got = explore(normalize(translate(e)), state_bound=300, stop_barb="o")
        stopped += bool(got[0]) and ("o", "out") in barbs(got[0][-1])
    assert stopped >= 10, stopped


def test_duplicates_of_a_level_are_not_keyed():
    config = normalize(translate(parse("map ((\\x. (x, x)), [3, 5])")))
    (terminals, bound_hit, states), checked, skipped = checking_entries(explore, config)
    # 1 905 successors: 845 repeat an entry multiset keyed earlier in their
    # level, and of the 1 060 keyed, 660 are new states
    assert (len(terminals), bound_hit, states, skipped) == (1, False, 661, 845)
    assert checked > 0


def test_a_lossy_pre_check_fails_the_checks(monkeypatch):
    # sorted skeleton numbers summarize an entry multiset with a loss:
    # configs that differ only in their names share them
    real = engine._entry_multiset

    def skeletons(config, table, cache):
        real(config, table, cache)  # computes the entries
        return tuple(sorted(t.proc._memo_entry[1][0] for t in config.threads))

    monkeypatch.setattr(engine, "_entry_multiset", skeletons)
    config = normalize(translate(parse("map ((\\x. (x, x)), [3, 5])")))
    with pytest.raises(AssertionError):
        checking_entries(explore, config)


def test_key_entries_do_not_outlive_their_search():
    config = normalize(translate(parse("map ((\\x. x), [7, 8])")))
    first = explore(config)
    # the second search starts from the nodes the first one keyed and must
    # recompute, not reuse, the entries the first one left on them
    again, checked, _ = checking_entries(explore, config)
    assert again[1:] == first[1:] == reference_explore(config)[1:]
    assert checked > 0


def test_a_search_holds_nothing_alive_once_it_returns(monkeypatch):
    grabbed = {}
    key, fire = engine.canonical_key, engine.apply_redex

    def grabbing_key(config, table, cache=None):
        grabbed["table"], grabbed["cache"] = table, cache
        return key(config, table, cache)

    def grabbing_fire(config, redex, memo=None):
        grabbed["memo"] = memo
        return fire(config, redex, memo)

    monkeypatch.setattr(engine, "canonical_key", grabbing_key)
    monkeypatch.setattr(engine, "apply_redex", grabbing_fire)
    terminals, _, _ = explore(normalize(translate(parse("map ((\\x. x), [7, 8])"))))
    assert grabbed["table"] and grabbed["memo"]
    # the memo keys each closed thread on its template, receive bindings
    # and hoisting renames
    for template, vm, nm in grabbed["memo"]:
        assert type(template) in (Act, Match, Repl, Bullet)
        assert all(type(v) in (NumT, NameT) for _, v in vm)
        assert all(type(new) is str for _, new in nm) and (vm or nm)
    # only ``grabbed`` refers to the table and the memo (getrefcount adds one)
    table_refs = sys.getrefcount(grabbed["table"])
    memo_refs = sys.getrefcount(grabbed["memo"])
    assert (table_refs, memo_refs) == (2, 2)
    # the nodes keep the bare token, which refers to nothing
    assert type(grabbed["cache"]) is object and terminals


def test_receives_sharing_a_continuation_substitute_their_own_parameters():
    # one continuation object under two receives that bind different names
    cont = Act(Send(Chan(NameT("o")), (VarT("x"), VarT("y"))), Nil())
    p = Par(Par(Act(Recv(Chan(NameT("c")), ("x",)), cont),
                Act(Recv(Chan(NameT("d")), ("y",)), cont)),
            Par(Act(Send(Chan(NameT("c")), (NumT(1),)), Nil()),
                Act(Send(Chan(NameT("d")), (NumT(1),)), Nil())))
    _same_search(lambda: normalize(p))


# value barbs at the parent of the early exit, on every entry that does not
# diverge; equal at both bounds
BARB_BY_ADMIN_STEPS = {
    "num", "lambda-id", "array-lit", "array-empty", "tuple-pair",
    "tuple-unary", "tuple-empty", "tuple-nested",
}
BARB_SEARCH_UNSETTLED = {"map-inc", "index-of-map"}


@pytest.mark.parametrize("bound", (2000, 4000))
def test_check_value_barb_answers_are_pinned(bound):
    for entry in CORPUS:
        if entry.outcome == "diverges":
            continue
        want = (True if entry.name in BARB_BY_ADMIN_STEPS
                else None if entry.name in BARB_SEARCH_UNSETTLED else False)
        assert check_value_barb(parse(entry.source), state_bound=bound) is want, entry.name


def test_stop_barb_search_returns_at_the_first_barb_state_it_expands():
    config = normalize(parse_process("c<2> | c(x). o<x> | d<1> | d(y). 0"))
    terminals, bound_hit, states = explore(config, admin_only=True, stop_barb="o")
    # the start's two successors are both discovered before the barb state
    # among them is expanded
    assert (bound_hit, states) == (False, 3)
    assert [("o", "out") in barbs(t) for t in terminals] == [True]
    want, want_hit, want_states = reference_explore(config, admin_only=True,
                                                    stop_barb="o")
    assert (want_hit, want_states) == (False, 4)
    assert [("o", "out") in barbs(t) for t in want] == [True, True]


# ------------------------------------------------------- closed threads

def _fresh_copy(x):
    """A structurally equal copy sharing no node, and so no memo, with ``x``."""
    if is_dataclass(x):
        return type(x)(*(_fresh_copy(getattr(x, f.name)) for f in fields(x)))
    if isinstance(x, tuple):
        return tuple(_fresh_copy(v) for v in x)
    return x


class CountingMemo(dict):
    """A search's memo of closed threads that counts its lookups (one per
    thread closed) and refuses to store a key twice."""

    def __init__(self):
        super().__init__()
        self.closings = 0

    def get(self, key, default=None):
        self.closings += 1
        return super().get(key, default)

    def __setitem__(self, key, value):
        assert key not in self, "a key closed twice"
        super().__setitem__(key, value)


def _closing_search(make_config, **kwargs) -> tuple[int, int]:
    """Explore a config with its key entries checked, through a memo that
    counts its lookups, and check each closed thread in it against the
    reference rewrite of a fresh copy of its template.

    Returns the threads the search closed and the distinct keys among them.
    """
    fire = engine.apply_redex
    memo = CountingMemo()
    passed = set()  # the memos the search passes

    def counting_fire(config, redex, search_memo=None):
        passed.add(id(search_memo))
        return fire(config, redex, memo)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "apply_redex", counting_fire)
        _, checked, _ = checking_entries(explore, make_config(), **kwargs)
    assert checked > 0 and len(passed) <= 1  # one memo for the whole search
    for (template, vm, nm), closed in memo.items():
        want = reference_rewrite(_fresh_copy(template), dict(vm), dict(nm))
        assert closed == want, pretty_process(template)
    return memo.closings, len(memo)


def test_closed_threads_match_reference_rewrites_on_corpus():
    closings = distinct = 0
    for entry in CORPUS:
        if f"corpus-{entry.name}" in EXPLORE_SKIP:
            continue
        more, keys = _closing_search(lambda: normalize(translate(parse(entry.source))),
                                     state_bound=1000, depth_bound=10**9)
        closings += more
        distinct += keys
    # sibling states close the same templates under the same environments
    # (5 142 closings of 463 keys)
    assert distinct >= 20 and closings > 8 * distinct, (closings, distinct)


def test_closed_threads_match_reference_rewrites_on_generated_programs():
    rng = random.Random(73)
    closings = distinct = 0
    for _ in range(60):
        e = random_closed_program(rng, depth=3)
        try:
            normalize(translate(e))
        except (EngineError, RecursionError):
            continue
        more, keys = _closing_search(lambda: normalize(translate(e)), state_bound=500)
        closings += more
        distinct += keys
    # 17 644 closings of 987 keys
    assert distinct > 20 and closings > 12 * distinct, (closings, distinct)


# ------------------------------------------------------- per-state name sets

def test_successors_share_the_parents_name_sets_when_nothing_is_hoisted():
    config = normalize(parse_process(
        "c<1> | c(x). d<x> | e<> | e(). new a. a<> | [h < 1] f<>, g<>"))
    shared = hoisted = 0
    for redex in LiveSoup(config).redexes:
        if redex.rule == "FAULT":
            succ = _drop_threads(config, redex.participants)
        else:
            succ, _row = apply_redex(config, redex, {})
        same = succ.used is config.used and succ.restricted is config.restricted
        assert same == (succ.used == config.used)
        assert succ.restricted - config.restricted == succ.used - config.used
        shared += same
        hoisted += not same
    assert shared == 2 and hoisted == 1
