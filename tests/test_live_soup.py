"""The live soup ``run`` steps on agrees with the pure engine at every step.

``CheckedSoup`` re-derives the whole index from the materialized config
after every change made to it (build, fire, drop, collect) and compares
it with ``reference_enabled_redexes`` (the full scan), ``barbs`` and the
diagnostics: the mismatch count the index keeps, and the barbs it reads
off its queues, must equal what the scan finds.  Each run is also
replayed by ``reference_run``, the scheduling loop written over the scan
and the pure ``apply_redex``, and the traces and final configs must be
equal.  What ``_fire`` lists as changed is pinned on hand-built soups, and
after every fire along seeded schedules the index must equal that of a
fresh soup built on the soup's ``config()`` (``index_of``).
"""

import random
from dataclasses import astuple, replace

import pytest

from butfpi import correspondence
from butfpi.butf.eval import eval_expr
from butfpi.butf.parse import parse
from butfpi.correspondence import check_program, read_output, render_readback
from butfpi.epi import engine
from butfpi.epi.engine import (
    CommitFault,
    EngineError,
    Trace,
    _drop_threads,
    _text_key,
    apply_redex,
    barbs,
    enabled_redexes,
    explore,
    insert_process,
    normalize,
    run,
)
from butfpi.epi.parse import parse_process
from butfpi.epi.syntax import NumT, Repl
from butfpi.translate import translate
from corpus import CORPUS, STUCK, TERMINATING
from generators import random_closed_program, random_process, random_redex_config
from reference import reference_enabled_redexes, reference_garbage_collect, sequential


class CheckedSoup(engine.LiveSoup):
    verified = 0
    built = 0

    def __init__(self, config):
        super().__init__(config)
        CheckedSoup.built += 1
        self.verify()

    def fire(self, redex, index):
        row = super().fire(redex, index)
        self.verify()
        return row

    def drop(self, tids):
        super().drop(tids)
        self.verify()

    def collect(self):
        super().collect()
        self.verify()

    def verify(self):
        config = self.config()
        redexes, diagnostics = reference_enabled_redexes(config)
        assert self.redexes == redexes
        assert self.keys == [r.participants for r in redexes]
        assert self.mismatches == len(diagnostics)
        assert self.diagnostics() == diagnostics
        assert self.barbs() == barbs(config)
        outputs = {name for name, polarity in barbs(config) if polarity == "out"}
        for name, _polarity in barbs(config):
            assert self.shows(_text_key(name)) == (name in outputs)
        CheckedSoup.verified += 1


@pytest.fixture
def checked(monkeypatch):
    monkeypatch.setattr(engine, "LiveSoup", CheckedSoup)
    monkeypatch.setattr(correspondence, "LiveSoup", CheckedSoup)


def reference_run(config, policy="priority", seed=0, budget=1_000_000,
                  stop_barb=None, permissive=False, gc=False):
    """The scheduling loop over the pure engine: a full rescan per step."""
    rng = random.Random(seed) if policy == "random" else None
    trace = Trace()
    while True:
        if gc:
            config = reference_garbage_collect(config)
        if stop_barb is not None and any(
                name == stop_barb for name, pol in barbs(config) if pol == "out"):
            trace.status = "barb"
            break
        redexes, diagnostics = reference_enabled_redexes(config)
        if diagnostics and not permissive:
            trace.status = "fault"
            trace.faults.extend(diagnostics)
            break
        if not redexes:
            trace.status = "terminated"
            break
        if len(trace.rows) >= budget:
            trace.status = "timeout"
            break
        if policy == "priority":
            redex = min(redexes, key=lambda r: r.participants)
        else:
            redex = redexes[rng.randrange(len(redexes))]
        if redex.rule == "FAULT":
            trace.faults.append(redex.reason or "fault")
            if not permissive:
                trace.status = "fault"
                break
            config = _drop_threads(config, redex.participants)
            continue
        try:
            config, step = apply_redex(config, redex)
        except CommitFault as fault:
            trace.faults.append(str(fault))
            if not permissive:
                trace.status = "fault"
                break
            config = _drop_threads(config, fault.tids)
            continue
        trace.rows.append(astuple(replace(step, index=len(trace.rows) + 1)))
    trace.soup = engine.LiveSoup(config)
    return trace


def agree(config, **kwargs):
    """Run checked and by reference; both must give the same trace."""
    got = run(config, **kwargs)
    want = reference_run(config, **kwargs)
    assert got.steps == want.steps
    assert got.to_dict() == want.to_dict()
    assert got.soup.config() == want.soup.config()
    return got


def norm(text):
    return normalize(parse_process(text))


# ------------------------------------------------------------- programs

@pytest.mark.parametrize("entry", TERMINATING + STUCK, ids=lambda e: e.name)
def test_corpus_runs_agree(checked, entry):
    config = normalize(translate(parse(entry.source), "o"))
    agree(config)
    for seed in range(3):
        agree(config, policy="random", seed=seed)
    agree(config, policy="random", seed=7, stop_barb="o")
    agree(config, policy="random", seed=8, gc=True)


def test_generated_programs_agree(checked):
    rng = random.Random(41)
    for i in range(60):
        config = normalize(translate(random_closed_program(rng, depth=4), "o"))
        tr = agree(config, policy="random", seed=i, budget=2_000)
        agree(config, policy="random", seed=i, budget=len(tr.steps) // 2)
        agree(config, policy="random", seed=i, gc=True, budget=2_000)


def test_generated_processes_agree(checked):
    rng = random.Random(43)
    ran = 0
    for i in range(300):
        p = random_process(rng, depth=4) if i % 2 else random_redex_config(rng)
        try:
            config = normalize(p)
        except EngineError:
            continue
        for permissive in (False, True):
            agree(config, policy="random", seed=i, budget=60, permissive=permissive)
        agree(config, policy="random", seed=i, budget=60, stop_barb="o",
              permissive=True)
        agree(config, budget=60, gc=True, permissive=True)
        ran += 1
    assert ran > 200


def test_read_back_probes_are_checked(checked):
    e = parse("map ((\\x. (x, x + 1)), iota 3)")
    before = CheckedSoup.verified
    report = check_program(e, seeds=2)
    assert report.status == "ok"
    assert CheckedSoup.verified > before
    # the seven reads of one read-back (a length, three elements, three
    # tuples) all read one soup
    quiesced = run(normalize(translate(e, "o"))).soup.config()
    built = CheckedSoup.built
    value = read_output(engine.LiveSoup(quiesced), eval_expr(e).value)
    assert CheckedSoup.built == built + 1
    assert render_readback(value) == "[(0, 1), (1, 2), (2, 3)]"


@pytest.mark.parametrize("name", ["tuple-nested", "iota-3", "map-inc", "higher-order"])
def test_probes_stepped_in_place_agree_with_fresh_runs(checked, name):
    entry = next(e for e in TERMINATING if e.name == name)
    config = run(normalize(translate(parse(entry.source), "o"))).soup.config()
    for text, reply in (("o(v). probe1<v>", "probe1"),
                        ("probe1(w). probe2<w, w>", "probe2")):
        probed = insert_process(config, parse_process(text))
        want = reference_run(probed, stop_barb=reply, permissive=True)
        soup = engine.LiveSoup(probed)
        got = run(soup, stop_barb=reply, permissive=True)
        assert got.status == want.status == "barb"
        assert got.steps == want.steps
        assert got.soup is soup  # stepped in place
        assert soup.config() == want.soup.config()
        config = soup.config()


def test_unfolds_match_sequential_renames(checked):
    # every unfold of a server renames its restrictions, and the chosen
    # names (some equal to later binders) reach the steps' channels
    text = ("a<> | a_2<> | b<> | c<> "
            "| !f(x, r). new a, b.( a<x> | a(z). b<z> | b(y). r<y> "
            "| new c.( c<r> | c(w). w<x> | new a_3. (a_3<c> | a_3(u). 0) ) ) "
            "| f<1, o> | f<2, o> | f<3, o> | *f<4, o>")
    config = norm(text)
    for seed in range(6):
        got = run(config, policy="random", seed=seed)
        want = sequential(run, config, policy="random", seed=seed)
        assert got.status == "terminated"
        assert got.steps == want.steps
        assert got.soup.config() == want.soup.config()
    soup = engine.LiveSoup(config)
    reference = sequential(engine.LiveSoup, config)
    for index in range(1, 30):
        if not soup.redexes:
            break
        row = soup.fire(soup.redexes[-1], index)
        assert row == sequential(reference.fire, reference.redexes[-1], index)
        assert soup.config() == reference.config()
    assert index > 20


def test_enabled_redexes_matches_reference_scan(monkeypatch):
    def same(config):
        assert enabled_redexes(config) == reference_enabled_redexes(config)

    for entry in CORPUS:
        same(normalize(translate(parse(entry.source), "o")))
    rng = random.Random(47)
    for i in range(300):
        p = random_process(rng, depth=4) if i % 2 else random_redex_config(rng)
        try:
            same(normalize(p))
        except EngineError:
            continue
    # every state explore expands, with and without admin_only
    expanded = []

    class Recording(engine.LiveSoup):
        def __init__(self, config):
            super().__init__(config)
            expanded.append((config, self.redexes))

    monkeypatch.setattr(engine, "LiveSoup", Recording)
    configs = [normalize(translate(parse(source), "o"))
               for source in ("map ((\\x. (x, x)), [3, 5])", "(\\f. f 3) (\\x. x + 1)",
                              "[1, 2][5]")]
    configs.append(norm("c<1, 2> | c(x). 0 | c:<1, 2, 3> | c(y, z). 0 "
                        "| c<7> | *!c(w). c<w, w> | d<> | d(u). 0"))
    for config in configs:
        for admin_only in (False, True):
            explore(config, admin_only=admin_only)
    monkeypatch.undo()
    assert len(expanded) > 1000
    mismatched = 0
    for config, redexes in expanded:
        want, diagnostics = reference_enabled_redexes(config)
        assert redexes == want
        assert enabled_redexes(config)[1] == diagnostics
        mismatched += bool(diagnostics)
    assert mismatched


# ----------------------------------------------------------- edge shapes

def test_strict_arity_mismatches_report_every_diagnostic_in_order(checked):
    c = norm("c<1, 2> | c(x). 0 | c:<1, 2, 3> | c(y, z). 0 | c<1> | d<> | d(u). 0")
    tr = agree(c)
    assert tr.status == "fault"
    assert tr.faults == [
        "arity mismatch on c: send of 2 vs receive of 1",
        "arity mismatch on c: send of 1 vs receive of 2",
        "arity mismatch on d: send of 0 vs receive of 1",
        "arity mismatch on broadcast c: 3 vs 1",
        "arity mismatch on broadcast c: 3 vs 2",
    ]


def test_arity_mismatch_appearing_mid_run(checked):
    # the mismatch only appears once the first COMM spawns c(x, y)
    tr = agree(norm("a<> | a(). c(x, y). 0 | c<1>"))
    assert tr.status == "fault" and len(tr.steps) == 1
    tr = agree(norm("a<> | a(). c(x, y). 0 | c<1>"), permissive=True)
    assert tr.status == "terminated" and len(tr.steps) == 1
    # the mismatched send is consumed by its other receiver: no diagnostics left
    tr = agree(norm("c<1, 2> | c(x). 0 | c(y, z). 0 | c:<3> | *!c(w). 0"),
               permissive=True)
    assert tr.status == "terminated" and len(tr.steps) == 2
    # the first fire spends the replicated receiver's bullet and queues it
    # again behind c(y, z); its diagnostics keep soup order
    tr = agree(norm("*!c(w). 0 | c(y, z). 0 | c<1> | c:<1, 2, 3>"), permissive=True)
    assert tr.status == "terminated" and len(tr.steps) == 2


def test_mismatch_count_on_hand_built_soups(checked):
    # a mismatched replicated receiver whose outer bullets change its head:
    # the fire re-indexes it, taking back its mismatch and counting it again
    soup = engine.LiveSoup(norm("*!c(x, y). 0 | c<1> | c<1, 2>"))
    assert soup.mismatches == 1
    soup.fire(soup.redexes[0], 1)
    assert soup.diagnostics() == ["arity mismatch on c: send of 1 vs receive of 2"]
    soup.drop((1,))
    assert soup.mismatches == 0
    # a mismatched sender leaves by ``ask`` or by ``drop``
    soup = engine.LiveSoup(norm("h.len<1, 2> | h.len<3> | h.len(x, y). 0 | g<1> | g(). 0"))
    assert soup.mismatches == 2
    assert soup.ask("h", "len", 1) == (NumT(3),)
    assert soup.diagnostics() == ["arity mismatch on g: send of 1 vs receive of 0"]
    soup.drop((3,))
    assert soup.mismatches == 0 and len(soup.redexes) == 1
    # a broadcast with receivers of another arity, one of them replicated
    soup = engine.LiveSoup(norm("c:<1> | c(x, y). 0 | c(z). 0 | !c(u, v). 0"))
    assert soup.mismatches == 2
    soup.drop((1,))
    assert soup.mismatches == 1
    soup.fire(soup.redexes[0], 1)
    assert soup.mismatches == 0 and list(soup.threads) == [3]


def test_permissive_fault_drops(checked):
    tr = agree(norm("new h.( [h >= 0] t<>, e<> | t() . 0 | h<1> | h(x). o<x> )"),
               permissive=True)
    assert tr.faults and tr.status == "terminated"
    tr = agree(norm("new h.( c<h + 1> | c(x). 0 | c<2> | c(y). o<y> )"),
               policy="random", seed=3, permissive=True)
    assert tr.status == "terminated"


def test_commit_fault_strict(checked):
    tr = agree(norm("new h.( c<h + 1> | c(x). 0 )"))
    assert tr.status == "fault" and "arithmetic" in tr.faults[0]


def test_broadcast_receivers_change_while_pending(checked):
    text = ("a<> | a(). c(x). o<x> | c:<1>. d<> | d(). 0 | !c(y). e<y> "
            "| *(c(z). f<z>) | e(w). 0")
    for seed in range(12):
        agree(norm(text), policy="random", seed=seed, budget=40)


def test_replicated_participants_with_outer_bullets(checked):
    text = "*!f(x, r). r<x> | f<1, o1> | f<2, o2> | **!h.0<0, 5> | h.0(i, v). o<v>"
    for seed in range(6):
        agree(norm(text), policy="random", seed=seed)


def test_stop_barb_and_gc(checked):
    text = "new f.( !f(x, r). r<x> | f<1, o> ) | new g.( !g(y). 0 )"
    tr = agree(norm(text), gc=True)
    assert tr.status == "terminated"
    tr = agree(norm(text), stop_barb="o")
    assert tr.status == "barb"
    assert agree(norm("o<5>"), stop_barb="o").steps == ()


# ------------------------------------------------------ what a fire changes

def changes(config, redex):
    """What ``_fire`` lists for ``redex`` on ``config``: each changed
    participant's tid with its residual (None: consumed)."""
    builder = engine._Builder(set(config.used), set(config.restricted), config.next_tid)
    threads = {t.tid: t for t in config.threads}
    changed, _row = engine._fire(redex, threads.__getitem__, set(config.restricted), builder, 1)
    return [(t.tid, residual) for t, residual in changed]


def index_of(soup):
    """A soup's index, with each queued head reduced to what the index reads
    of it: a fresh soup's heads are those of closed threads."""
    def queues(qs):
        return {key: {tid: (h.arity, h.bullets, h.repl) for tid, h in queue.items()}
                for key, queue in qs.items()}
    return (soup.keys, soup.redexes, soup.mismatches, soup.broads,
            queues(soup.sends), queues(soup.recvs), queues(soup.bcasts))


def test_replicated_participants_with_outer_bullets_are_reindexed(checked):
    # a bulleted replicated receiver (tid 0, fired by sender 1), then a
    # bulleted replicated sender (tid 0, firing receiver 1)
    for text, participants, queue in (("*!f(x). 0 | f<1>", (1, 0), "recvs"),
                                      ("**!g<2> | g(y). 0", (0, 1), "sends")):
        config = norm(text)
        soup = engine.LiveSoup(config)
        (redex,) = soup.redexes
        assert redex.participants == participants
        old = soup.threads[0]
        residual = old.proc
        while not isinstance(residual, Repl):
            residual = residual.body
        assert changes(config, redex) == [(tid, None if tid else residual)
                                          for tid in participants]
        soup.fire(redex, 1)
        assert list(soup.threads) == [0]
        new = soup.threads[0]
        assert new.proc is residual and new.depth == old.depth
        ((_key, queued),) = getattr(soup, queue).items()
        assert queued[0].bullets == 0 and queued[0].repl


def test_replicated_participants_without_outer_bullets_stay(checked):
    for text in ("!f(x). 0 | f<1> | f<2>", "!g<2> | g(y). 0 | g(z). 0",
                 "!c:<1> | c(x). 0"):
        config = norm(text)
        soup = engine.LiveSoup(config)
        server = soup.threads[0]
        redex = soup.redexes[0]
        assert [tid for tid, _ in changes(config, redex)] == [
            tid for tid in redex.participants if tid != 0]
        soup.fire(redex, 1)
        assert soup.threads[0] is server


def test_broadcast_to_replicated_and_one_shot_receivers(checked):
    config = norm("c:<1> | !c(x). a<x> | c(y). b<y> | *!c(z). d<z> | *c(w). 0")
    soup = engine.LiveSoup(config)
    (redex,) = soup.redexes
    assert redex.rule == "BROAD" and redex.participants == (0, 1, 2, 3, 4)
    kept = soup.threads[1]
    residual = soup.threads[3].proc.body
    assert changes(config, redex) == [(0, None), (2, None), (3, residual), (4, None)]
    assert soup.fire(redex, 1) == (1, "important", "BROAD", ("c", None), ":",
                                   (0, 1, 2, 3, 4), 1, 2)
    assert soup.threads[1] is kept
    assert soup.threads[3].proc is residual
    assert sorted(soup.threads) == [1, 3, 5, 6, 7]
    assert sorted(key[0] for key in soup.sends) == ["a", "b", "d"]
    assert index_of(soup) == index_of(engine.LiveSoup(soup.config()))


def fires_index_as_fresh(config, seeds=(None, 0, 1), limit=400):
    """Fire ``config`` along the priority schedule (seed None) and seeded
    random ones; after every fire the soup's index must be that of a fresh
    soup built on its ``config()``."""
    for seed in seeds:
        rng = random.Random(seed)
        soup = engine.LiveSoup(config)
        for index in range(1, limit):
            redexes = [r for r in soup.redexes if r.rule != "FAULT"]
            if not redexes:
                break
            redex = redexes[0] if seed is None else rng.choice(redexes)
            try:
                soup.fire(redex, index)
            except CommitFault as fault:
                soup.drop(fault.tids)
            assert index_of(soup) == index_of(engine.LiveSoup(soup.config()))


@pytest.mark.parametrize("entry", TERMINATING + STUCK, ids=lambda e: e.name)
def test_fired_soup_indexes_as_a_fresh_one(entry):
    fires_index_as_fresh(normalize(translate(parse(entry.source), "o")))


def test_fired_hand_built_soups_index_as_fresh_ones():
    # replicated participants with and without outer bullets, on COMM,
    # BROAD and matches, and mismatched arities
    for text in ("*!f(x, r). r<x> | f<1, o1> | f<2, o2> | **!h.0<0, 5> | h.0(i, v). o<v>",
                 "c:<1> | !c(x). a<x> | c(y). b<y> | *!c(z). d<z> | *c(w). 0 | a(u). c:<u>",
                 "*!c(w). 0 | c(y, z). 0 | c<1> | c:<1, 2, 3> | c<4>",
                 "*![1 < 2] a<>, 0 | !a(). b<> | *b(). a<> | a<>",
                 "a<> | a(). c(x). o<x> | c:<1>. d<> | d(). 0 | !c(y). e<y> | *(c(z). f<z>)"):
        fires_index_as_fresh(norm(text), seeds=(None, 0, 1, 2, 3), limit=40)
    rng = random.Random(53)
    for i in range(100):
        p = random_process(rng, depth=4) if i % 2 else random_redex_config(rng)
        try:
            config = normalize(p)
        except EngineError:
            continue
        fires_index_as_fresh(config, seeds=(None, i), limit=40)


def test_trace_steps_are_the_steps_apply_redex_reports():
    for entry in TERMINATING:
        config = normalize(translate(parse(entry.source), "o"))
        for seed in (0, 1):
            trace = run(config, policy="random", seed=seed)
            assert trace.status == "terminated"
            rng = random.Random(seed)
            c, want = config, []
            while True:
                redexes, _diagnostics = enabled_redexes(c)
                if not redexes:
                    break
                c, step = apply_redex(c, rng.choice(redexes))
                want.append(replace(step, index=len(want) + 1))
            assert trace.steps == tuple(want)
            assert [astuple(step) for step in want] == trace.rows
            with pytest.raises(AttributeError):
                trace.steps.append(want[0])
