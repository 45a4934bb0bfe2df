"""Read-back through the shared probe templates agrees with closed probes.

``read_output`` spawns each probe as a template under an environment; the
oracle, ``reference_read_output``, builds each probe as closed syntax.  On
every case the two must decode the same value and leave equal soups (the
same threads once closed, ``used``, ``restricted`` and ``next_tid``), so
that nothing after a read-back can tell which way it probed.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import butfpi
from butfpi.butf.eval import EvalResult, eval_expr
from butfpi.butf.parse import parse
from butfpi.cli import dispatch
from butfpi.correspondence import Incomplete, _probe_template, read_output
from butfpi.epi import engine
from butfpi.epi.engine import LiveSoup, normalize, run
from butfpi.epi.parse import parse_process
from butfpi.epi.syntax import Act, Chan, NameT, Nil, NumT, Recv, Send, VarT, rewrite
from butfpi.translate import translate
from corpus import TERMINATING
from generators import random_closed_program
from reference import reference_read_output

PROGRAMS = Path(__file__).resolve().parents[1] / "programs"
SRC = Path(butfpi.__file__).resolve().parents[1]
SCHEDULES = (("priority", 0), ("random", 0), ("random", 1))


def read_back_both_ways(config, shape, policy="priority", seed=0, budget=200_000):
    """Read back one run's soup through the templates and a second run's
    soup through closed probes; both must agree.  Returns the value."""
    ran = run(config, policy=policy, seed=seed, budget=budget)
    if ran.status != "terminated":
        return None
    soup = ran.soup
    oracle = run(config, policy=policy, seed=seed, budget=budget).soup
    assert soup.config() == oracle.config()
    got = read_output(soup, shape)
    assert got == reference_read_output(oracle, shape)
    assert soup.config() == oracle.config()
    return got


def value_of(e):
    oracle = eval_expr(e)
    return oracle.value if isinstance(oracle, EvalResult) else None


@pytest.mark.parametrize("entry", TERMINATING, ids=lambda e: e.name)
def test_corpus_reads_back_as_with_closed_probes(entry):
    e = parse(entry.source)
    config = normalize(translate(e, "o"))
    shape = value_of(e)
    for policy, seed in SCHEDULES:
        assert read_back_both_ways(config, shape, policy, seed) is not None


def test_corpus_against_wrong_shapes_reads_back_as_with_closed_probes():
    # the next entry's value as the shape: probes that block, arities that
    # mismatch and lengths that disagree take the same paths both ways
    shapes = [value_of(parse(entry.source)) for entry in TERMINATING]
    for entry, shape in zip(TERMINATING, shapes[1:] + shapes[:1]):
        read_back_both_ways(normalize(translate(parse(entry.source), "o")), shape)


def test_programs_read_back_as_with_closed_probes():
    paths = sorted(PROGRAMS.glob("*.butf"))
    assert paths
    for path in paths:
        e = parse(path.read_text(encoding="utf-8"))
        config = normalize(translate(e, "o"))
        for policy, seed in SCHEDULES:
            assert read_back_both_ways(config, value_of(e), policy, seed) is not None


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
        if read_back_both_ways(config, shape, "random", i, budget=5_000) is not None:
            read += 1
    assert read > 15


@pytest.mark.parametrize("label,suffix,arity", [("len", "len", 1), (None, 3, 2),
                                                ("tup", "tup", 3)])
def test_a_probe_thread_stands_for_the_closed_probe(label, suffix, arity):
    config = normalize(parse_process("h.len<1> | h.3<3, 4>"))
    soup, oracle = LiveSoup(config), LiveSoup(config)
    bound = {"h": NameT("h"), "r": NameT("probe")}
    if label is None:
        bound["i"] = NumT(suffix)
    template = _probe_template(label, arity)
    assert _probe_template(label, arity) is template
    params = tuple(f"x{i}" for i in range(arity))
    closed = Act(Recv(Chan(NameT("h"), suffix), params),
                 Act(Send(Chan(NameT("probe")), tuple(map(VarT, params))), Nil()))
    assert rewrite(template, bound) == closed
    soup.insert(template, 0, (bound, {}))
    oracle.insert(closed)
    assert soup.threads[soup.next_tid - 1].proc is template
    assert soup.config() == oracle.config()
    assert soup.redexes == oracle.redexes


def test_insert_refuses_an_environment_that_renames_a_binder():
    soup = LiveSoup(normalize(parse_process("0")))
    with pytest.raises(AssertionError):
        soup.insert(parse_process("new a. a<x>"), 0, ({"x": NameT("a")}, {}))


def test_a_length_carrying_a_handle_is_incomplete():
    soup = LiveSoup(normalize(parse_process("new h, a.( o<h> | !h.len<a> )")))
    got = read_output(soup, parse("[1]"))
    assert got == Incomplete("h.len: expected a number, got a handle")


def check_json(capsys, source):
    assert dispatch(["check", "-e", source, "--seeds", "2", "--format", "json"]) == 0
    return capsys.readouterr().out


def test_read_back_does_not_depend_on_what_was_read_back_before(capsys, monkeypatch):
    a = r"map ((\x. (x, [x, x * x])), iota 3)"
    b = r"((1, [2]), (), [[3], []])"
    inserted: list = []
    insert = engine.LiveSoup.insert

    def recording_insert(soup, proc, depth=0, env=None):
        inserted.append(proc)
        insert(soup, proc, depth, env)

    monkeypatch.setattr(engine.LiveSoup, "insert", recording_insert)
    first = check_json(capsys, a)
    templates_first = {id(p) for p in inserted}
    inserted.clear()
    check_json(capsys, b)
    inserted.clear()
    second = check_json(capsys, a)
    assert first == second
    assert templates_first == {id(p) for p in inserted}
    assert len(templates_first) == 3  # len, cells and pairs

    env = dict(os.environ, PYTHONPATH=str(SRC))
    fresh = subprocess.run(
        [sys.executable, "-c", "from butfpi.cli import main; main()",
         "check", "-e", a, "--seeds", "2", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout == first
