"""``--gc`` changes no report.

``LiveSoup.collect`` drops only the replicated sends and receives on
restricted channels that no other thread mentions.  Nothing can send or
receive on such a channel, so a collected server forms no redex, no arity
mismatch and no barb: ``run`` with ``gc`` must give the trace ``run`` gives
without it, whenever it collects, and its final soup must be
``garbage_collect`` of the plain run's.  A replicated broadcast fires with
no receiver at all, so it is never collected; the generated processes hold
broadcasters that nothing else mentions, on restricted channels.
"""

import random
from pathlib import Path

import pytest

from butfpi.butf.parse import parse
from butfpi.cli import dispatch
from butfpi.epi import engine
from butfpi.epi.engine import EngineError, head_of, normalize, run
from butfpi.epi.parse import parse_process
from butfpi.epi.syntax import Act, Bcast, Chan, NameT, New, Par, Repl
from butfpi.translate import translate
from corpus import CORPUS
from generators import random_process, random_redex_config, random_term
from reference import garbage_collect

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").iterdir())


def same_reports(config, **kwargs):
    """Run with and without ``gc``: equal reports, and the collected final
    soup is the plain one's, collected."""
    plain = run(config, **kwargs)
    collected = run(config, gc=True, **kwargs)
    assert collected.to_dict() == plain.to_dict()
    assert collected.soup.config() == garbage_collect(plain.soup.config())
    return collected


def program_config(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".epi":
        return normalize(parse_process(text))
    return normalize(translate(parse(text), "o"))


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_reports_are_the_same_with_gc(entry):
    config = normalize(translate(parse(entry.source), "o"))
    budget = 400 if entry.outcome == "diverges" else 1_000_000
    same_reports(config, budget=budget)
    for seed in (0, 1):
        same_reports(config, policy="random", seed=seed, budget=budget)
    same_reports(config, policy="random", seed=2, budget=budget, stop_barb="o")


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.name)
def test_program_reports_are_the_same_with_gc(path):
    config = program_config(path)
    same_reports(config)
    same_reports(config, policy="random", seed=3)


def lone_broadcaster(rng: random.Random):
    """A replicated broadcast on a restricted channel no other thread
    mentions; its payload may fault, and its copies spawn a continuation."""
    args = tuple(random_term(rng, ()) for _ in range(rng.randint(0, 2)))
    body = Act(Bcast(Chan(NameT("lone"), None), args), random_process(rng, 1))
    return New("lone", Repl(body))


def test_generated_reports_are_the_same_with_gc():
    rng = random.Random(5)
    ran = broadcasting = 0
    for i in range(360):
        p = random_process(rng, depth=4) if i % 2 else random_redex_config(rng)
        if i % 3 == 0:
            p = Par(p, lone_broadcaster(rng))
        try:
            config = normalize(p)
        except EngineError:
            continue
        broadcasting += any(head_of(t.proc).repl and isinstance(head_of(t.proc).core, Bcast)
                            for t in config.threads)
        for permissive in (False, True):
            same_reports(config, budget=80, permissive=permissive)
        same_reports(config, policy="random", seed=i, budget=80, permissive=True)
        ran += 1
    assert ran >= 300 and broadcasting >= 100


def test_simulate_prints_the_same_with_gc(capsys):
    argv = ["simulate", "--raw", "new a. !a:<1>", "--budget", "5"]
    for fmt in ([], ["--format", "json"]):
        outputs = []
        for gc in ([], ["--gc"]):
            code = dispatch(argv + fmt + gc)
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 1  # a timeout


def test_run_collects_when_the_soup_doubles(monkeypatch):
    # before the first step, each time the soup has more than doubled since
    # the last collection, and once at the end
    sizes = []
    collect = engine.LiveSoup.collect

    def counting_collect(soup):
        sizes.append(len(soup.threads))
        collect(soup)
        sizes.append(len(soup.threads))

    monkeypatch.setattr(engine.LiveSoup, "collect", counting_collect)
    config = normalize(translate(parse(r"map ((\x. x * x + 1), iota 16)"), "o"))
    trace = run(config, gc=True)
    calls = list(zip(sizes[::2], sizes[1::2]))  # (threads before, after)
    assert len(calls) > 3
    for (_, left), (before, _) in zip(calls[:-2], calls[1:-1]):
        assert before > 2 * left
    assert calls[-1][1] == len(trace.soup.threads)
    assert any(after < before for before, after in calls)
