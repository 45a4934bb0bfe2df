import gc
import random
import types
import weakref

import pytest

from butfpi.butf.parse import parse
from butfpi.cli import dispatch
from butfpi.epi.engine import (
    CommitFault,
    EngineError,
    apply_redex,
    barbs,
    canonical_key,
    enabled_redexes,
    explore,
    head_of,
    insert_process,
    normalize,
    run,
)
from butfpi.epi.parse import parse_process
from butfpi.epi.pretty import pretty_process
from butfpi.epi.syntax import Bullet, NameT, New, Par, all_names, rewrite
from butfpi.translate import translate
from generators import NAME_POOL, random_process, random_redex_config
from reference import config_to_process, count_bullets, garbage_collect, sequential


def norm(text):
    return normalize(parse_process(text))


# ------------------------------------------------------------- normalize

def test_normalize_flattening():
    c = norm("new a.( 0 | a<1> )")
    assert c.restricted == {"a"}
    assert len(c.threads) == 1
    assert pretty_process(c.threads[0].proc) == "a<1>"


def test_normalize_scope_extrusion():
    c = norm("b<1> | new a. a<2>")
    assert c.restricted == {"a"}
    assert {pretty_process(t.proc) for t in c.threads} == {"b<1>", "a<2>"}


def test_normalize_binder_order_irrelevant():
    c1 = norm("new a. new b.( a<b> | b(x). x<1> )")
    c2 = norm("new b. new a.( a<b> | b(x). x<1> )")
    table: dict = {}
    assert canonical_key(c1, table) == canonical_key(c2, table)


def test_canonical_key_keeps_names_and_variables_apart():
    # one step leaves ``b(z). c<z>`` with ``z`` a name the receive of ``z``
    # does not bind: it must not key as ``b(w). c<w>``, nor a restricted
    # name as a free one
    def stepped(text):
        return run(norm(text), budget=1).soup.config()

    for left, right in (("a<z> | a(y). b(z). c<y>", "a<w> | a(y). b(w). c<y>"),
                        ("new k.( a<k> | a(y). b(k). c<y> )", "a<f> | a(y). b(f). c<y>")):
        table: dict = {}
        assert canonical_key(stepped(left), table) != canonical_key(stepped(right), table)
        # and each still keys as itself
        assert canonical_key(stepped(left), table) == canonical_key(stepped(left), table)


def test_normalize_renames_on_collision():
    c = norm("a<1> | new a. a<2>")
    assert "a" not in c.restricted and len(c.restricted) == 1
    fresh = next(iter(c.restricted))
    assert {pretty_process(t.proc) for t in c.threads} == {"a<1>", f"{fresh}<2>"}


def test_normalize_shadowing():
    c = norm("new a.( a<1> | new a. a<2> )")
    assert len(c.restricted) == 2
    texts = {pretty_process(t.proc) for t in c.threads}
    assert "a<1>" in texts and "a<2>" not in texts


def test_normalize_idempotent():
    rng = random.Random(5)
    for _ in range(100):
        p = random_process(rng, depth=4)
        try:
            c = normalize(p)
        except EngineError:
            continue
        again = normalize(config_to_process(c))
        table: dict = {}
        assert canonical_key(again, table) == canonical_key(c, table), pretty_process(p)


def test_normalize_matches_sequential_renames():
    texts = [
        "a<> | b<> | new a, b.( a<b> | b(x). a<x> | new a. new c.( a<c> | c<b> ) )",
        # the name chosen for a is the next binder, which renaming captures
        "a<> | new a. new a_2.( a<1> | a_2<2> | !c(x). new a_2. x<a_2, a> )",
        "a<> | a_2<> | new a. new a_3. new a.( a<> | a_3<> | !c(x). new a_4. a_4<x> )",
        "a<> | *new a. new a_2. a<a_2> | new b. *new a. new b. b<a>",
        # the inner a shadows the outer one's rename, inside a capture
        "a<> | new a.( a<1> | new a. !c(x). new a_3. a<a_3> )",
        "h<> | h_2<> | " + " | ".join(f"new h. h<{i}>" for i in range(12)),
    ]
    for text in texts:
        p = parse_process(text)
        assert normalize(p) == sequential(normalize, p), text

    rng = random.Random(29)
    free = Par(parse_process("a<> | b<> | h<> | a_2<>"), parse_process("a_3<>"))
    checked = 0
    for _ in range(400):
        p = random_process(rng, depth=3)
        for _ in range(rng.randint(1, 5)):
            p = New(rng.choice(NAME_POOL + ("a_2", "a_3", "h_2")), p)
            if rng.random() < 0.3:
                p = Bullet(p)
            if rng.random() < 0.3:
                p = Par(random_process(rng, depth=2), p)
        p = Par(free, p)
        try:
            want = sequential(normalize, p)
        except EngineError:
            continue
        assert normalize(p) == want, pretty_process(p)
        checked += 1
    assert checked > 200


def test_normalize_rejects_unguarded_shapes():
    with pytest.raises(EngineError):
        normalize(parse_process("!(a<1> | b<2>)"))
    with pytest.raises(EngineError):
        normalize(parse_process("*(a<1> | b<2>)"))
    with pytest.raises(EngineError):
        normalize(parse_process("!new a. a<1>"))


def test_bullet_hoists_restriction():
    c = norm("*new a. a<1>")
    assert len(c.restricted) == 1
    assert count_bullets(c.threads[0].proc) == 1


# ---------------------------------------------------------------- redexes

def test_comm_basics():
    c = norm("c<7> | c(x). d<x>")
    redexes, diags = enabled_redexes(c)
    assert len(redexes) == 1 and redexes[0].rule == "COMM" and not diags
    c2, (_index, kind, *_rest) = apply_redex(c, redexes[0])
    assert kind == "administrative"
    assert pretty_process(c2.threads[0].proc) == "d<7>"


def test_comm_evaluates_at_commit():
    c = norm("c<2 + 3> | c(x). d<x>")
    tr = run(c)
    assert pretty_process(tr.soup.config().threads[0].proc) == "d<5>"


def test_bullet_makes_step_important():
    c = norm("*(c<7>) | c(x). 0")
    redexes, _ = enabled_redexes(c)
    c2, (_index, kind, *_rest, bullets) = apply_redex(c, redexes[0])
    assert kind == "important" and bullets == 1
    assert sum(count_bullets(t.proc) for t in c2.threads) == 0


def test_bulleted_receive_is_important():
    c = norm("d<> | *(d(). o<1>)")
    tr = run(c)
    assert tr.work == 1


def test_match_redexes():
    redexes, _ = enabled_redexes(norm("[3 >= 0] t<>, e<>"))
    assert redexes[0].rule == "THEN"
    redexes, _ = enabled_redexes(norm("[3 < 0] t<>, e<>"))
    assert redexes[0].rule == "ELSE"
    # a handle is simply not zero
    redexes, _ = enabled_redexes(norm("new h.[h != 0] t<>, e<>"))
    assert redexes[0].rule == "THEN"


def test_match_fault_on_name_order():
    c = norm("new h.[h >= 0] t<>, e<>")
    tr = run(c)
    assert tr.status == "fault"
    tr = run(c, permissive=True)
    assert tr.status == "terminated" and tr.faults


def test_arity_mismatch_strict_vs_permissive():
    c = norm("c<1, 2> | c(x). 0")
    tr = run(c)
    assert tr.status == "fault" and "arity" in tr.faults[0]
    tr = run(c, permissive=True)
    assert tr.status == "terminated" and not tr.steps


def test_replicated_input_comm():
    c = norm("!f(x, r). r<x> | f<1, o1> | f<2, o2>")
    tr = run(c)
    texts = sorted(pretty_process(t.proc) for t in tr.soup.config().threads)
    assert texts == ["!f(x, r). r<x>", "o1<1>", "o2<2>"]


def test_replicated_sender_comm():
    c = norm("!h.0<0, 5> | h.0(i, v). o<v>")
    tr = run(c)
    texts = sorted(pretty_process(t.proc) for t in tr.soup.config().threads)
    assert texts == ["!h.0<0, 5>", "o<5>"]


# -------------------------------------------------------------- broadcast

def test_broadcast_consumes_all_receivers_atomically():
    c = norm("c:<1> | c(x). a<x> | c(y). b<y>")
    redexes, _ = enabled_redexes(c)
    assert len(redexes) == 1 and redexes[0].rule == "BROAD"
    tr = run(c)
    assert len(tr.steps) == 1
    texts = sorted(pretty_process(t.proc) for t in tr.soup.config().threads)
    assert texts == ["a<1>", "b<1>"]


def test_broadcast_zero_receivers_fires():
    c = norm("c:<1>")
    tr = run(c)
    assert len(tr.steps) == 1 and tr.status == "terminated"
    assert not tr.soup.config().threads


def test_broadcast_replicated_receiver_participates_once_and_persists():
    c = norm("c:<1> | !c(y). b<y>")
    tr = run(c, budget=5)
    texts = sorted(pretty_process(t.proc) for t in tr.soup.config().threads)
    assert texts == ["!c(y). b<y>", "b<1>"]


def test_broadcast_label_restricted_vs_free():
    redexes, _ = enabled_redexes(norm("c:<1> | c(x). 0"))
    _, (_index, _kind, _rule, key, mark, *_rest) = apply_redex(norm("c:<1> | c(x). 0"),
                                                               redexes[0])
    assert (mark, key) == (":", ("c", None))
    c = norm("new c.( c:<1> | c(x). 0 )")
    redexes, _ = enabled_redexes(c)
    _, (_index, _kind, _rule, key, mark, *_rest) = apply_redex(c, redexes[0])
    assert (mark, key) == ("", ("c", None))
    assert run(c).to_dict()["steps"][0]["channel"] == "c"


def test_broadcast_seeded_always_one_step():
    for seed in range(50):
        tr = run(norm("c:<1> | c(x). 0 | c(y). 0"), policy="random", seed=seed)
        assert len(tr.steps) == 1


def test_broadcast_only_exact_channel():
    # composite suffixes address distinct channels
    c = norm("h.all:<1> | h.all(x). a<x> | h.len(y). b<y> | h(z). e<z>")
    redexes, _ = enabled_redexes(c)
    broad = [r for r in redexes if r.rule == "BROAD"]
    assert len(broad) == 1 and len(broad[0].participants) == 2


# ------------------------------------------------------------------ barbs

def test_barbs():
    assert barbs(norm("new a.( a<1> | b(x). 0 )")) == {("b", "in")}
    assert barbs(norm("o<5>")) == {("o", "out")}
    assert barbs(norm("0 | 0")) == frozenset()
    assert barbs(norm("h.len<2>")) == {("h.len", "out")}
    assert barbs(norm("c:<1>")) == {("c", "out")}
    assert barbs(norm("*(o<5>)")) == {("o", "out")}


# -------------------------------------------------------------------- run

def test_run_value_no_steps():
    tr = run(norm("o<5>"), stop_barb="o")
    assert tr.status == "barb" and not tr.steps


def test_run_determinism():
    text = "c<1> | c(x). d<x> | d(y). 0 | e:<2> | e(z). c<z>"
    for policy, seed in (("priority", 0), ("random", 3), ("random", 7)):
        a = run(norm(text), policy=policy, seed=seed)
        b = run(norm(text), policy=policy, seed=seed)
        assert a.steps == b.steps and a.to_dict() == b.to_dict()


def test_run_timeout():
    c = norm("!c(x). c<x + 1> | c<0>")
    tr = run(c, budget=25)
    assert tr.status == "timeout" and len(tr.steps) == 25


def test_depth_chaining():
    tr = run(norm("*(c<7>) | c(x). *(d<x>) | d(y). 0"))
    assert tr.work == 2 and tr.span == 2
    tr = run(norm("*(c<7>) | c(x). 0 | *(d<1>) | d(y). 0"))
    assert tr.work == 2 and tr.span == 1


# ---------------------------------------------------------------- explore

def test_explore_two_terminal_configs():
    terms, bound_hit, states = explore(norm("c<1> | c(x). a<x> | c(y). b<y>"))
    assert len(terms) == 2 and not bound_hit


def test_explore_nil():
    terms, bound_hit, _ = explore(norm("0"))
    assert len(terms) == 1 and not terms[0].threads


def test_explore_bound_flag():
    terms, bound_hit, states = explore(norm("!c(x). c<x + 1> | c<0>"),
                                       state_bound=10)
    assert bound_hit


def test_explore_counts_do_not_depend_on_earlier_explorations():
    def states(source: str) -> int:
        return explore(normalize(translate(parse(source))))[2]

    assert states("map ((\\x. (x, x)), [2, 16])") == 661
    # as in a fresh interpreter: the first search's skeleton numbers must
    # not change which states the second one merges
    assert states("map ((\\x. (x, x)), [11, 1])") == 661


# --------------------------------------------------------------------- gc

def test_gc_unreachable_server_removed():
    c = norm("new f. !f(x, r). r<x>")
    assert not garbage_collect(c).threads


def test_gc_server_with_client_kept():
    c = norm("new f.( !f(x, r). r<x> | f<1, o> )")
    assert len(garbage_collect(c).threads) == 2


def test_gc_unrestricted_server_kept():
    c = norm("!f(x, r). r<x>")
    assert len(garbage_collect(c).threads) == 1


def test_gc_replicated_broadcast_kept():
    # it fires with no receiver, so it is never unreachable
    c = norm("new a. !a:<1>")
    assert len(garbage_collect(c).threads) == 1


def test_gc_cascades():
    c = norm("new f, g.( !f(x, r). g<x> | !g(y). 0 )")
    # removing the f server frees g's only mention, then g's server goes too
    assert not garbage_collect(c).threads


# ------------------------------------------------- structural properties

def _rename_config(config, mapping):
    threads = tuple(
        t.__class__(t.tid, rewrite(t.proc, name_map=mapping), t.depth)
        for t in config.threads)
    restricted = frozenset(mapping.get(n, n) for n in config.restricted)
    used = frozenset(mapping.get(n, n) for n in config.used) | restricted
    return config.__class__(restricted, threads, used, config.next_tid)


def test_renaming_soundness():
    # steps commute with injective renaming of restricted names
    rng = random.Random(17)
    checked = 0
    for _ in range(200):
        p = random_redex_config(rng)
        try:
            c = normalize(p)
        except EngineError:
            continue
        if not c.restricted:
            continue
        mapping = {name: f"ren_{i}_{name}" for i, name in enumerate(sorted(c.restricted))}
        renamed = _rename_config(c, mapping)
        table: dict = {}
        assert canonical_key(renamed, table) == canonical_key(c, table)
        redexes, _ = enabled_redexes(c)
        redexes_r, _ = enabled_redexes(renamed)
        assert len(redexes) == len(redexes_r)
        for ra, rb in zip(redexes, redexes_r):
            if ra.rule == "FAULT" or rb.rule == "FAULT":
                continue
            try:
                ca, _ = apply_redex(c, ra)
            except CommitFault:
                with pytest.raises(CommitFault):
                    apply_redex(renamed, rb)
                continue
            cb, _ = apply_redex(renamed, rb)
            assert canonical_key(ca, table) == canonical_key(cb, table)
            checked += 1
    assert checked > 100


def test_bullet_counts_never_increase_without_replication():
    rng = random.Random(23)
    checked = 0
    for _ in range(300):
        p = random_redex_config(rng, allow_repl=False)
        if "!" in pretty_process(p):
            continue
        try:
            c = normalize(p)
        except EngineError:
            continue
        before = sum(count_bullets(t.proc) for t in c.threads)
        redexes, _ = enabled_redexes(c)
        for redex in redexes:
            if redex.rule == "FAULT":
                continue
            try:
                c2, (_index, kind, *_rest) = apply_redex(c, redex)
            except CommitFault:
                continue
            after = sum(count_bullets(t.proc) for t in c2.threads)
            # the fired bullets are consumed; discarded branches may drop more
            assert after <= before - redex.bullets
            assert (kind == "important") == (redex.bullets > 0)
            checked += 1
    assert checked > 100


def test_insert_process_keeps_names_apart():
    c = norm("new a. a<1>")
    c2 = insert_process(c, parse_process("new a. a<2>"))
    assert len(c2.restricted) == 2
    texts = {pretty_process(t.proc) for t in c2.threads}
    assert len(texts) == 2


def test_run_with_gc_collects_spent_servers():
    # after the only client fires, the restricted server is collectable
    text = "new f.( !f(x, r). r<x> | f<1, o> )"
    with_gc = run(norm(text), gc=True)
    without = run(norm(text))
    assert len(with_gc.soup.config().threads) < len(without.soup.config().threads)
    assert {pretty_process(t.proc) for t in with_gc.soup.config().threads} == {"o<1>"}


def test_trace_dict_schema():
    tr = run(norm("*(c<1>) | c(x). o<x>"))
    data = tr.to_dict()
    assert data["work"] == 1 and data["span"] == 1
    assert data["steps"][0]["kind"] == "important"
    assert data["barbs"] == ["o:out"]
    assert data["status"] == "terminated"


# ----------------------------------------------------------------- cycles

def _cyclic_garbage_of(fn) -> list:
    """What the cyclic collector finds unreachable once ``fn()`` has run."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _ours(obj) -> bool:
    """An object or function of butfpi, of argparse or of the json
    encoder, or a cell holding one: what the program could strand in a
    cycle."""
    if isinstance(obj, types.CellType):
        try:
            obj = obj.cell_contents
        except ValueError:  # an empty cell
            return False
    module = (obj.__module__ if isinstance(obj, types.FunctionType)
              else type(obj).__module__) or ""
    return module.startswith(("butfpi", "argparse", "json"))


def test_run_and_explore_leave_no_syntax_cycles():
    def work():
        run(normalize(translate(parse("map ((\\x. x * x + 1), iota 8)"))))
        explore(normalize(translate(parse("map ((\\x. (x, x)), [3, 5])"))))

    garbage = _cyclic_garbage_of(work)
    left = [o for o in garbage if _ours(o)]
    assert not left, sorted({type(o).__name__ for o in left})


@pytest.mark.parametrize("argv", [
    ("check", "-e", "map ((\\x. (x, x * x + 1)), iota 3)", "--seeds", "2",
     "--format", "json"),
    ("explore", "-e", "map ((\\x. (x, x)), [3, 5])", "--format", "json"),
], ids=lambda argv: argv[0])
def test_command_line_ops_leave_no_cycles_of_their_own(argv, capsys):
    # the first op builds what a process builds once (the argument parser)
    assert dispatch(list(argv)) == 0
    garbage = _cyclic_garbage_of(lambda: dispatch(list(argv)))
    capsys.readouterr()
    # json.dumps with an indent would encode through recursive closures,
    # 33 json.encoder objects per op; the command line's encoder has none
    left = [o for o in garbage if _ours(o)]
    assert not left, sorted({type(o).__name__ for o in left})


def test_head_of_leaves_threads_to_reference_counting():
    enabled = gc.isenabled()
    gc.disable()
    try:
        for text in ("!c(x). d<x>", "*!c(x). d<x>", "[1 = 1] a<>, b<>", "c(x). d<x>"):
            proc = parse_process(text)
            head_of(proc)
            freed = weakref.ref(proc)
            del proc
            assert freed() is None, text
    finally:
        if enabled:
            gc.enable()
