"""What a step computes cheaply must equal what the full path computes.

A step's channel text and a soup's output barbs are read from channel
keys, never from a channel built and rendered; a thread's environment
dicts are shared with the threads spawned under them and never changed;
``LiveSoup.collect`` reads a thread's names, in its one counting pass,
from its template's memoized name facts and its environment, without
closing the thread; ``_text_key`` turns a barb's text back into the
channel key it renders; and ``_fresh_variant`` with ``floors`` skips only
probes that would fail.  Each is checked against the full path in
``reference.py``.
"""

import random
from pathlib import Path

import pytest

from butfpi.butf.parse import parse
from butfpi.epi.engine import (
    EngineError,
    LiveSoup,
    _closed,
    _key_text,
    _mentioned,
    _text_key,
    normalize,
    run,
)
from butfpi.epi.parse import parse_process
from butfpi.epi.syntax import all_names
from butfpi.lexer import _fresh_variant
from butfpi.translate import translate
from corpus import CORPUS
from generators import random_process, random_redex_config
from reference import reference_channel, reference_mentioned, reference_out_barbs

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").iterdir())


def program_config(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".epi":
        return normalize(parse_process(text))
    return normalize(translate(parse(text), "o"))


class WatchedSoup(LiveSoup):
    """A soup that checks, after every fire, the output barbs it reads off
    its queues against ``reference_out_barbs``, and every environment dict
    any of its threads has held against a snapshot taken when a thread
    first held it."""

    def __init__(self, config):
        self.envs: dict[int, tuple[dict, dict]] = {}  # id -> (the dict, its snapshot)
        super().__init__(config)
        self.watch()

    def fire(self, redex, index):
        row = super().fire(redex, index)
        self.watch()
        return row

    def watch(self):
        assert ({name for name, polarity in self.barbs() if polarity == "out"}
                == reference_out_barbs(self))
        for held, snapshot in self.envs.values():
            assert held == snapshot, "an environment dict changed"
        for t in self.threads.values():
            if t.env is not None:
                for held in t.env:
                    self.envs.setdefault(id(held), (held, dict(held)))


def checked_run(config, **kwargs):
    """``run`` on a ``WatchedSoup``, then each step's channel text and each
    thread's counted names checked against the full path."""
    trace = run(WatchedSoup(config), **kwargs)
    for step in trace.steps:
        assert step.channel == reference_channel(step)
    for t in trace.soup.threads.values():
        assert set(_mentioned(t)) == reference_mentioned(t)
        assert reference_mentioned(t) == all_names(_closed(t).proc)
    return trace


def runs(config, budget=1_000_000):
    checked_run(config, budget=budget)
    for seed in (0, 1):
        checked_run(config, policy="random", seed=seed, budget=budget)


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_step_texts_and_environments(entry):
    config = normalize(translate(parse(entry.source), "o"))
    runs(config, budget=400 if entry.outcome == "diverges" else 1_000_000)


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.name)
def test_program_step_texts_and_environments(path):
    runs(program_config(path))


def test_generated_step_texts_and_environments():
    rng = random.Random(67)
    ran = held = 0
    for i in range(200):
        p = random_process(rng, depth=4) if i % 2 else random_redex_config(rng)
        try:
            config = normalize(p)
        except EngineError:
            continue
        trace = checked_run(config, policy="random", seed=i, budget=60, permissive=True)
        held += len(trace.soup.envs)
        checked_run(config, budget=60, permissive=True, gc=True)
        ran += 1
    assert ran > 100 and held > 100


def test_broadcast_marks_and_suffixed_channels():
    config = normalize(parse_process(
        "c:<1> | c(x). o.3<x> | c(y). 0 | new k.( k:<2> | k(z). d.len<z> ) | o.3(w). 0"))
    trace = checked_run(config)
    texts = [s.channel for s in trace.steps]
    assert ":c" in texts and "o.3" in texts and any(t.startswith("k") for t in texts)
    assert all(s.channel == reference_channel(s) for s in trace.steps)
    assert "d.len:out" in trace.to_dict()["barbs"]


def test_mentioned_names_match_the_full_set():
    # a renamed free name that is also bound inside, and a received name
    # equal to a free name of the continuation, must each count once
    text = ("c<a> | c<b> | !f(r). new a.( r<a> | a(u). new b. b<u> ) | f<p> | f<q> "
            "| p(x). x<b>. o<x> | q(y). y<a>. 0 | !c(z). a<z>. b<z> "
            "| g<1> | g(v). new a.( a(u). new a. a<u> | a<v> )")
    config = normalize(parse_process(text))
    seen = 0
    for seed in range(6):
        soup = LiveSoup(config)
        rng = random.Random(seed)
        while soup.redexes:
            soup.fire(soup.redexes[rng.randrange(len(soup.redexes))], 0)
            for t in soup.threads.values():
                names = set(_mentioned(t))
                assert names == reference_mentioned(t)
                seen += names != all_names(t.proc)
    assert seen


def test_fresh_variant_floors_skip_only_failing_probes():
    rng = random.Random(71)
    roots = ["a", "x", "k_2", "probe", "v1"]
    for _ in range(300):
        taken = {f"{rng.choice(roots)}_{rng.randrange(2, 9)}" for _ in range(rng.randrange(8))}
        taken |= set(rng.sample(roots, rng.randrange(len(roots))))
        plain, floored, floors = set(taken), set(taken), {}
        for _ in range(12):
            base = rng.choice(roots)
            if rng.random() < 0.2:  # the caller takes another name too
                extra = f"{rng.choice(roots)}_{rng.randrange(2, 12)}"
                plain.add(extra)
                floored.add(extra)
            want = _fresh_variant(base, plain)
            got = _fresh_variant(base, floored, floors)
            assert got == want
            plain.add(want)
            floored.add(got)


def test_barb_texts_turn_back_into_their_channel_keys():
    keys = {("h", -1), ("h", -12), ("h_2", 0), ("o", None), ("h", "len")}
    for entry in CORPUS:
        trace = run(normalize(translate(parse(entry.source), "o")), budget=400)
        keys.update(step.key for step in trace.steps if step.key is not None)
        for queues in (trace.soup.sends, trace.soup.recvs, trace.soup.bcasts):
            keys.update(queues)
    assert len(keys) > 50
    for key in keys:
        assert _text_key(_key_text(key)) == key
    # a text no channel renders names no key
    for text in ("h.01", "h.-0", "h.+1", "h. 1"):
        assert _text_key(text) is None
