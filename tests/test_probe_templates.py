"""Read-back off the soup's send queues agrees with closed probes.

``read_output`` reads each handle off the quiesced soup's send queues
(``LiveSoup.ask``); the oracle, ``reference_read_output``, runs a closed
probe receiver for each on a copy of the soup, firing only administrative
redexes in priority order (``ClosedProber``).  On every
case the two must decode the same value, and reading must leave the soup
as it was but for the non-replicated sends it consumed.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import butfpi
from butfpi import correspondence
from butfpi.butf.eval import EvalResult, eval_expr
from butfpi.butf.parse import parse
from butfpi.cli import dispatch
from butfpi.correspondence import Incomplete, check_program, read_output, render_readback
from butfpi.epi import engine
from butfpi.epi.engine import LiveSoup, head_of, normalize, run
from butfpi.epi.parse import parse_process
from butfpi.epi.syntax import Send
from butfpi.translate import translate
from corpus import TERMINATING
from generators import random_closed_program
from reference import reference_read_output

PROGRAMS = Path(__file__).resolve().parents[1] / "programs"
SRC = Path(butfpi.__file__).resolve().parents[1]
SCHEDULES = (("priority", 0), ("random", 0), ("random", 1))


def read_back_both_ways(soup, shape):
    """Read ``soup`` back off its queues and through closed probes; both
    must agree, and reading may only drop non-replicated sends.  Returns
    the value."""
    before = soup.config()
    want = reference_read_output(soup, shape)
    assert soup.config() == before  # the oracle probes a copy
    got = read_output(soup, shape)
    assert got == want
    after = soup.config()
    assert (after.restricted, after.used, after.next_tid) == (
        before.restricted, before.used, before.next_tid)
    kept = {t.tid for t in after.threads}
    assert [t for t in before.threads if t.tid in kept] == list(after.threads)
    for t in before.threads:
        if t.tid not in kept:
            h = head_of(t.proc)
            assert type(h.core) is Send and not h.repl and not h.bullets
    assert soup.redexes == []  # still quiesced
    return got


def run_and_read_back(config, shape, policy="priority", seed=0, budget=200_000):
    ran = run(config, policy=policy, seed=seed, budget=budget)
    if ran.status != "terminated":
        return None
    return read_back_both_ways(ran.soup, shape)


def value_of(e):
    oracle = eval_expr(e)
    return oracle.value if isinstance(oracle, EvalResult) else None


@pytest.mark.parametrize("entry", TERMINATING, ids=lambda e: e.name)
def test_corpus_reads_back_as_with_closed_probes(entry):
    e = parse(entry.source)
    config = normalize(translate(e, "o"))
    shape = value_of(e)
    for policy, seed in SCHEDULES:
        assert run_and_read_back(config, shape, policy, seed) is not None


def test_corpus_against_wrong_shapes_reads_back_as_with_closed_probes():
    # the next entry's value as the shape: reads that find nothing, arities
    # that mismatch and lengths that disagree take the same paths both ways
    shapes = [value_of(parse(entry.source)) for entry in TERMINATING]
    for entry, shape in zip(TERMINATING, shapes[1:] + shapes[:1]):
        run_and_read_back(normalize(translate(parse(entry.source), "o")), shape)


def test_programs_read_back_as_with_closed_probes():
    paths = sorted(PROGRAMS.glob("*.butf"))
    assert paths
    for path in paths:
        e = parse(path.read_text(encoding="utf-8"))
        config = normalize(translate(e, "o"))
        for policy, seed in SCHEDULES:
            assert run_and_read_back(config, value_of(e), policy, seed) is not None


def test_generated_programs_read_back_as_with_closed_probes():
    rng = random.Random(67)
    read = 0
    for i in range(60):
        e = random_closed_program(rng, depth=3)
        shape = value_of(e)
        if shape is None:
            continue
        try:
            config = normalize(translate(e, "o"))
        except engine.EngineError:
            continue
        if run_and_read_back(config, shape, "random", i, budget=5_000) is not None:
            read += 1
    assert read > 15


# soups built by hand, read back once run to quiescence: (process, shape,
# what reads back)
HAND_BUILT = {
    # a bulleted server is skipped: reading it would be an important step
    "bulleted-server": ("new h.( o<h> | *!h.len<1> | !h.len<1> | !h.0<0, 7> )",
                        "[0]", "[7]"),
    "bulleted-only": ("new h.( o<h> | *!h.len<1> )", "[0]", "<incomplete: h.len>"),
    # the lowest tid wins
    "two-servers": ("new h.( o<h> | !h.len<1> | !h.len<2> | !h.0<0, 5> | !h.1<1, 6> )",
                    "[0]", "[5]"),
    # the server of tid 1 spends its bullet on the receive and is queued
    # again behind the server of tid 2: the lowest tid still wins
    "requeued-server": ("new h.( o<h> | *!h.len<1> | !h.len<2> | h.len(x). 0 "
                        "| !h.0<0, 7> )", "[0]", "[7]"),
    "arity-mismatch": ("new h.( o<h> | !h.len<1, 2> | !h.len<1> | !h.0<0, 3> )",
                       "[0]", "[3]"),
    "arity-mismatch-only": ("new t.( o<t> | !t.tup<1, 2, 3> )", "(0, 0)",
                            "<incomplete: t.tup>"),
    # a payload that does not evaluate is skipped
    "faulting-payload": ("new h.( o<h> | !h.len<1 / 0> | !h.len<1> | !h.0<0, a + 1> "
                         "| !h.0<0, 4> )", "[0]", "[4]"),
    # a send that is not replicated is consumed by the first read
    "read-twice": ("new t, a.( o<t> | !t.tup<a, a> | a.len<1> | !a.0<0, 4> )",
                   "([0], [0])", "([4], <incomplete: a.len>)"),
    "read-twice-two-sends": ("new t, a.( o<t> | !t.tup<a, a> | a.len<1> | a.len<1> "
                             "| a.0<0, 4> | a.0<0, 5> )", "([0], [0])", "([4], [5])"),
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_soups_read_back_as_with_closed_probes(name):
    text, shape, want = HAND_BUILT[name]
    ran = run(normalize(parse_process(text)))
    assert ran.status == "terminated"
    got = read_back_both_ways(ran.soup, parse(shape))
    assert render_readback(got) == want


def test_a_length_carrying_a_handle_is_incomplete():
    soup = LiveSoup(normalize(parse_process("new h, a.( o<h> | !h.len<a> )")))
    got = read_back_both_ways(soup, parse("[1]"))
    assert got == Incomplete("h.len: expected a number, got a handle")


def test_check_runs_each_schedule_once(monkeypatch):
    # five schedules and the map's dummy call: reading back runs nothing
    runs = [0]
    plain = correspondence.run

    def counting(*args, **kwargs):
        runs[0] += 1
        return plain(*args, **kwargs)

    monkeypatch.setattr(correspondence, "run", counting)
    report = check_program(parse(r"map ((\x. (x, x * x + 7)), iota 8)"), seeds=4)
    assert report.status == "ok"
    assert runs[0] == 6


def check_json(capsys, source):
    assert dispatch(["check", "-e", source, "--seeds", "2", "--format", "json"]) == 0
    return capsys.readouterr().out


def test_read_back_does_not_depend_on_what_was_read_back_before(capsys):
    a = r"map ((\x. (x, [x, x * x])), iota 3)"
    b = r"((1, [2]), (), [[3], []])"
    first = check_json(capsys, a)
    check_json(capsys, b)
    second = check_json(capsys, a)
    assert first == second

    env = dict(os.environ, PYTHONPATH=str(SRC))
    fresh = subprocess.run(
        [sys.executable, "-c", "from butfpi.cli import main; main()",
         "check", "-e", a, "--seeds", "2", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout == first
