"""A run's results are computed where they are read.

A ``run`` returns the soup it stepped and closes no thread of it,
read-back decodes on that soup, and a step renders its channel text only
when it is read.  Each must give what building the closed final
``Config`` and rendering every step at once gave.
"""

from pathlib import Path

import pytest

from butfpi.butf.eval import EvalResult, eval_expr
from butfpi.butf.parse import parse
from butfpi.correspondence import _decode, check_program, read_output
from butfpi.epi import engine
from butfpi.epi.engine import LiveSoup, head_of, normalize, run
from butfpi.epi.parse import parse_process
from butfpi.epi.syntax import Chan, NameT, Send
from butfpi.translate import translate
from corpus import CORPUS
from reference import sequential

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").iterdir())
SCHEDULES = ({}, {"policy": "random", "seed": 0}, {"policy": "random", "seed": 1})


def _cases():
    """(id, normalized config, expected value shape, budget) for every
    corpus entry and every program."""
    for entry in CORPUS:
        e = parse(entry.source)
        oracle = eval_expr(e)
        yield (entry.name, normalize(translate(e, "o")),
               oracle.value if isinstance(oracle, EvalResult) else None,
               400 if entry.outcome == "diverges" else 1_000_000)
    for path in PROGRAMS:
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".epi":
            yield path.name, normalize(parse_process(text)), None, 1_000_000
        else:
            e = parse(text)
            yield (path.name, normalize(translate(e, "o")), eval_expr(e).value,
                   1_000_000)


CASES = list(_cases())


def _closed_read_output(config, shape):
    """What read-back gives when it searches the closed final ``Config``
    for the delivery on ``o`` and reads a soup built from it."""
    for t in config.threads:
        core = head_of(t.proc).core
        if isinstance(core, Send) and core.chan == Chan(NameT("o")):
            return _decode(LiveSoup(config), core.args[0], shape)
    return None


@pytest.fixture
def rewrites(monkeypatch):
    """The number of ``rewrite`` calls the engine has made, counted the
    way ``bench/run_bench.py`` counts them."""
    calls = [0]
    plain = engine.rewrite

    def counting(*args, **kwargs):
        calls[0] += 1
        return plain(*args, **kwargs)

    monkeypatch.setattr(engine, "rewrite", counting)
    return calls


@pytest.mark.parametrize("name, config, shape, budget", CASES, ids=[c[0] for c in CASES])
def test_read_back_on_the_runs_soup_agrees_with_the_closed_config(name, config, shape,
                                                                   budget):
    for schedule in SCHEDULES:
        trace = run(config, budget=budget, **schedule)
        if trace.status != "terminated":
            continue
        closed = trace.soup.config()
        assert closed == sequential(run, config, budget=budget, **schedule).soup.config()
        own = read_output(trace.soup, shape)
        assert own == _closed_read_output(closed, shape)


@pytest.mark.parametrize("source", [r"map ((\x. (x, x * x + 7)), iota 3)",
                                    "[1, (2, 3)]", r"(\x. x) 5"])
def test_a_run_returns_the_soup_it_stepped(source):
    config = normalize(translate(parse(source), "o"))
    want = sequential(run, config).soup.config()
    assert run(config).soup.config() == want
    soup = LiveSoup(config)
    assert run(soup).soup is soup
    assert soup.config() == want


@pytest.mark.parametrize("name, config, shape, budget", CASES, ids=[c[0] for c in CASES])
def test_run_closes_nothing_until_its_config_is_read(rewrites, name, config, shape,
                                                     budget):
    for schedule in SCHEDULES:
        rewrites[0] = 0
        trace = run(config, budget=budget, **schedule)
        # only spawns whose value meets a binder are closed as they are
        # made (``_Builder``); none of these programs has one but reduce
        during = rewrites[0]
        assert during == 0 or name == "reduce"
        text, barbs = trace.to_dict(), trace.soup.barbs()
        assert rewrites[0] == during
        open_threads = sum(t.env is not None for t in trace.soup.threads.values())
        closed = trace.soup.config()
        assert rewrites[0] == during + open_threads
        want = sequential(run, config, budget=budget, **schedule)
        want_config = want.soup.config()
        assert closed == want_config
        assert text == want.to_dict()
        assert barbs == engine.barbs(want_config)


def test_check_reads_back_without_closing_a_thread(rewrites):
    report = check_program(parse(r"map ((\x. (x, x * x + 7)), iota 4)"), seeds=2)
    assert report.status == "ok"
    assert rewrites[0] == 0


def test_steps_render_their_channel_only_when_read():
    config = normalize(translate(parse(r"map ((\x. (x, x + 1)), [3, 4])"), "o"))
    for schedule in SCHEDULES:
        got = run(config, **schedule).steps
        want = sequential(run, config, **schedule).steps
        # a step keeps its redex's channel key, and no text
        assert all((s.key is None) == (s.rule in ("THEN", "ELSE")) for s in got)
        assert [hash(s) for s in got] == [hash(s) for s in want]
        assert got == want
        assert set(got) == set(want)
        assert [s.channel for s in got] == [s.channel for s in want]
    observable = run(normalize(parse_process("c:<1> | c(x). 0 | new d.( d:<2> )")))
    assert sorted(s.channel for s in observable.steps) == [":c", "d"]
