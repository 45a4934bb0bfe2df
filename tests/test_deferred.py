"""A live soup defers receive substitution and hoisting renames.

The threads a ``LiveSoup`` spawns keep their receive bindings and renames
as an environment, and are closed only where a ``Config`` is built.
``sequential`` runs the engine with ``SequentialBuilder``, which closes
every thread as it spawns it, substituting and renaming eagerly; every
run and every step here must come out the same both ways, and so must
every ``apply_redex``, which spawns through the deferring builder and then
closes its threads under one memo shared by siblings.  No ``Config`` may
hold an open thread.
"""

import random
from pathlib import Path

import pytest

from butfpi.butf.parse import parse
from butfpi.epi import engine
from butfpi.epi.engine import Config, EngineError, LiveSoup, apply_redex, normalize, run
from butfpi.epi.parse import parse_process
from butfpi.translate import translate
from corpus import CORPUS
from generators import random_closed_program, random_process, random_redex_config
from reference import SequentialBuilder, sequential

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").iterdir())


class ClosedConfig(Config):
    """A ``Config`` that refuses a thread with an environment."""

    built = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        assert all(t.env is None for t in self.threads), "an open thread in a Config"
        ClosedConfig.built += 1


@pytest.fixture(autouse=True)
def closed_configs(monkeypatch):
    monkeypatch.setattr(engine, "Config", ClosedConfig)


def same_as_eager(config, **kwargs):
    got = run(config, **kwargs)
    want = sequential(run, config, **kwargs)
    assert got.steps == want.steps
    assert got.status == want.status
    assert got.faults == want.faults
    assert got.soup.config() == want.soup.config()
    return got


def runs_agree(config, seeds=range(3), **kwargs):
    same_as_eager(config, **kwargs)
    for seed in seeds:
        same_as_eager(config, policy="random", seed=seed, **kwargs)


def fires_agree(config, seed=0, limit=60) -> int:
    """Fire the same random redexes on a soup and on an eager reference
    soup, comparing them after every step; returns how many threads held
    an environment over the steps."""
    rng = random.Random(seed)
    soup = LiveSoup(config)
    reference = sequential(LiveSoup, config)
    open_threads = 0
    for index in range(1, limit):
        assert soup.redexes == reference.redexes
        assert soup.barbs() == reference.barbs()
        if not soup.redexes:
            break
        i = rng.randrange(len(soup.redexes))
        if soup.redexes[i].rule == "FAULT":
            soup.drop(soup.redexes[i].participants)
            reference.drop(reference.redexes[i].participants)
            continue
        try:
            row = soup.fire(soup.redexes[i], index)
        except engine.CommitFault as fault:
            with pytest.raises(engine.CommitFault) as want:
                sequential(reference.fire, reference.redexes[i], index)
            assert str(fault) == str(want.value)
            soup.drop(fault.tids)
            reference.drop(fault.tids)
            continue
        assert row == sequential(reference.fire, reference.redexes[i], index)
        assert soup.config() == reference.config()
        assert all(t.env is None for t in reference.threads.values())
        open_threads += sum(t.env is not None for t in soup.threads.values())
    return open_threads


def firings_agree(config, memo, levels=2) -> int:
    """Fire every redex of ``config``, and of its successors down to
    ``levels`` levels, through ``apply_redex`` with ``memo`` shared by all
    of them, and by eager substitution; returns the redexes fired."""
    fired = 0
    frontier = [config]
    for _ in range(levels):
        successors = []
        for c in frontier:
            for redex in LiveSoup(c).redexes:
                if redex.rule == "FAULT":
                    continue
                try:
                    got = apply_redex(c, redex, memo)
                except engine.CommitFault as fault:
                    with pytest.raises(engine.CommitFault) as want:
                        sequential(apply_redex, c, redex)
                    assert (str(fault), fault.tids) == (str(want.value), want.value.tids)
                    continue
                assert got == sequential(apply_redex, c, redex)  # successor and step
                successors.append(got[0])
                fired += 1
        frontier = successors
    return fired


def norm(text):
    return normalize(parse_process(text))


# ------------------------------------------------------------ programs

@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_runs_match_eager(entry):
    config = normalize(translate(parse(entry.source), "o"))
    budget = 400 if entry.outcome == "diverges" else 1_000_000
    runs_agree(config, budget=budget)


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.name)
def test_programs_run_as_eager(path):
    text = path.read_text(encoding="utf-8")
    config = (norm(text) if path.suffix == ".epi"
              else normalize(translate(parse(text), "o")))
    runs_agree(config, seeds=range(5))
    runs_agree(config, seeds=(0,), gc=True)


def test_generated_programs_run_as_eager():
    rng = random.Random(53)
    for i in range(40):
        config = normalize(translate(random_closed_program(rng, depth=4), "o"))
        same_as_eager(config, policy="random", seed=i, budget=2_000)
        same_as_eager(config, budget=2_000)
        same_as_eager(config, policy="random", seed=i, budget=2_000, gc=True)


def test_generated_processes_run_as_eager():
    rng = random.Random(59)
    ran = 0
    for i in range(300):
        p = random_process(rng, depth=4) if i % 2 else random_redex_config(rng)
        try:
            config = normalize(p)
        except EngineError:
            continue
        for permissive in (False, True):
            same_as_eager(config, policy="random", seed=i, budget=60,
                          permissive=permissive)
        same_as_eager(config, budget=60, permissive=True, gc=True)
        fires_agree(config, seed=i, limit=20)
        ran += 1
    assert ran > 200
    assert ClosedConfig.built > 1000


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_firings_match_eager(entry):
    fired = firings_agree(normalize(translate(parse(entry.source), "o")), {}, levels=6)
    assert fired > 0 or entry.steps == 0


def test_generated_firings_match_eager():
    rng = random.Random(83)
    memo: dict = {}  # one memo for every sibling of every config, as a search's
    fired = 0
    for _ in range(150):
        try:
            config = normalize(random_redex_config(rng))
        except EngineError:
            continue
        fired += firings_agree(config, memo)
    assert fired > 1000 and len(memo) > 200, (fired, len(memo))


# ------------------------------------------------------------ raw cases

def test_received_name_equal_to_a_binder_in_the_continuation():
    # x receives a, and the continuation binds a of its own: substituting
    # renames that binder, so the spawn is closed at once
    text = ("c<a> | a(z). 0 "
            "| c(x). new a.( x<a> | a(y). o<y> | !c(w). new a. w<a> ) | c<b>")
    config = norm(text)
    runs_agree(config, seeds=range(6))
    for seed in range(6):
        fires_agree(config, seed)


def test_fresh_name_equal_to_an_inner_binder():
    # each unfold hoists its a as a fresh a_i that the body binds below;
    # renaming the body renames that binder past the a_3 bound under it,
    # and the names hoisting then chooses must be the ones eager renaming
    # chooses
    text = ("a<> | !f(r). new a.( r<a> | new a_2. ( a_2<a> | a_2(u). o<u> "
            "| new a_3.( a_3<a_2> | a_3(v). 0 ) ) ) | f<p> | f<q> | p(x). 0 | q(y). 0")
    config = norm(text)
    runs_agree(config, seeds=range(6))
    for seed in range(6):
        fires_agree(config, seed)


def test_receive_parameter_shadowing_a_bound_variable():
    text = "c<1> | d<2> | c(x). d(x). o<x> | c(y). e(y, x). o<y, x> | e<3, 4>"
    config = norm(text)
    tr = same_as_eager(config)
    assert tr.status == "terminated"
    runs_agree(config, seeds=range(6))
    assert max(fires_agree(config, seed) for seed in range(6)) > 0
    # the second receive rebinds x to a name its continuation binds too,
    # so that spawn is closed at once, under the new binding alone
    config = norm("c<1> | d<a> | c(x). d(x). new a.( x<a> | a(y). o<y> ) | a(z). 0")
    runs_agree(config, seeds=range(6))
    for seed in range(6):
        fires_agree(config, seed)


def test_wildcard_parameters():
    text = "c<1, a> | c(_, y). d<y>. y<5> | d(_). 0 | a(z). o<z> | c<2, b> | c(x, _). o<x>"
    config = norm(text)
    runs_agree(config, seeds=range(6))
    assert max(fires_agree(config, seed) for seed in range(6)) > 0


def test_broadcast_to_replicated_receivers_with_environments():
    # after the COMM on c, the broadcaster and its receivers all stand
    # under k = b; the replicated ones keep that environment when they fold
    text = ("c<b, 7> | c(k, n).( !k(x). o<x, n> | *!k(y). p<y, k> | k(z). q<z> "
            "| k:<n> | k:<n + 1> )")
    config = norm(text)
    runs_agree(config, seeds=range(8))
    assert max(fires_agree(config, seed) for seed in range(8)) > 0


def test_match_decided_on_a_received_value():
    text = ("c<3> | c<9> | c<h> | c(x). [x < 5] o<x>, p<x> "
            "| c(y). [y = h] q<y>, r<y> | !c(z). [z + 1 >= 4] s<z>, t<z>")
    config = norm(text)
    runs_agree(config, seeds=range(8))
    runs_agree(config, seeds=range(4), permissive=True)
    assert max(fires_agree(config, seed) for seed in range(8)) > 0


def test_folded_replicated_thread_keeps_its_environment():
    # the server's channel and reply come from the COMM on c; with outer
    # bullets, the first fire refolds it and it must keep k = s
    text = "c<s, o> | c(k, r).( **!k(x). r<x, k> ) | s<1> | s<2> | s<3>"
    config = norm(text)
    runs_agree(config, seeds=range(6))
    soup = LiveSoup(config)
    while soup.redexes:
        soup.fire(soup.redexes[0], 0)
    (server,) = [t for t in soup.threads.values() if engine.head_of(t.proc).repl]
    assert server.env is not None and server.env[0]["k"].name == "s"
    assert soup.config() == sequential(run, config).soup.config()


def test_the_eager_reference_closes_what_it_is_handed():
    # SequentialBuilder closes a process handed over with bindings
    builder = SequentialBuilder(set(), set(), 0)
    proc = parse_process("c(x). x<y>").cont
    builder.add(proc, 0, {"x": engine.NameT("d")}, {"y": "e"})
    (thread,) = builder.new_threads
    assert thread.env is None
    assert thread.proc == parse_process("d<e>")
    # and a lone prefix spawned or received, which ``_Builder`` makes a
    # thread of without ``add``
    builder.spawn(proc, 0, ({"x": engine.NameT("f")}, {}))
    receiver = parse_process("c(x). x<y>")
    builder.receive(engine.head_of(receiver), (engine.NameT("g"),), ({}, {"y": "e"}), 0)
    assert [(t.proc, t.env) for t in builder.new_threads[1:]] == [
        (parse_process("f<y>"), None), (parse_process("g<e>"), None)]
