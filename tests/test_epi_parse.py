import random

import pytest

from butfpi.epi.parse import ProcessParseError, parse_process
from butfpi.epi.pretty import pretty_process
from butfpi.epi.syntax import (
    Act,
    Bcast,
    Chan,
    Match,
    NameT,
    New,
    Nil,
    NumT,
    Par,
    Recv,
    Send,
    VarT,
)
from generators import random_process


def test_spec_examples():
    assert parse_process("new a. a<1>") == New(
        "a", Act(Send(Chan(NameT("a")), (NumT(1),)), Nil()))
    p = parse_process("c:<v>")
    assert isinstance(p.action, Bcast)
    p = parse_process("h.len<3>")
    assert p.action == Send(Chan(NameT("h"), "len"), (NumT(3),))


def test_scope_resolution():
    # receive patterns bind variables; free identifiers are names
    p = parse_process("a(x). x<a>")
    assert p.action == Recv(Chan(NameT("a")), ("x",))
    assert p.cont.action.chan.base == VarT("x")
    assert p.cont.action.args == (NameT("a"),)


def test_new_scopes_over_one_seq():
    p = parse_process("new a. a<1> | b<2>")
    # restriction covers only the sequential process before the bar
    assert p.left == New("a", Act(Send(Chan(NameT("a")), (NumT(1),)), Nil()))


def test_suffixes():
    assert parse_process("h.0<0, 5>").action.chan.suffix == 0
    assert parse_process("h.-1<>").action.chan.suffix == -1
    assert parse_process("h.all(r)").action.chan.suffix == "all"
    p = parse_process("o(i). h.i(a, b)")
    assert p.cont.action.chan.suffix == VarT("i")


def test_match_forms():
    p = parse_process("[3 >= 0] t<>, e<>")
    assert isinstance(p, Match) and p.op == ">="
    p = parse_process("[x == 1] t<>")
    assert p.op == "=" and p.orelse == Nil()


def test_wildcards():
    p = parse_process("c(_, x)")
    assert p.action.params == (None, "x")


def test_errors_have_positions():
    with pytest.raises(ProcessParseError) as exc:
        parse_process("new . P")
    assert exc.value.line == 1
    with pytest.raises(ProcessParseError):
        parse_process("a<1> | ")
    with pytest.raises(ProcessParseError):
        parse_process("[a b] P, Q")


def test_round_trip_seeded_fuzz():
    rng = random.Random(42)
    for _ in range(500):
        p = random_process(rng, depth=4)
        text = pretty_process(p)
        assert parse_process(text) == p, text


def test_round_trip_translations():
    from butfpi.butf.parse import parse
    from butfpi.translate import translate
    for src in ("(\\x. x) 5", "map ((\\x. x + 1), iota 3)", "[1, (2, 3)]",
                "size [1, 2]", "(map ((\\x. x), [1]))[0]"):
        p = translate(parse(src))
        assert parse_process(pretty_process(p)) == p


def _post_step_processes():
    """The soups of runs stopped after a few steps, each as one process:
    every corpus entry's translation, generated redex soups, and generated
    processes whose receive parameters spell names, under a few
    schedules."""
    from butfpi.butf.parse import parse
    from butfpi.epi.engine import EngineError, normalize, run
    from reference import config_to_process
    from butfpi.translate import translate
    from corpus import CORPUS
    from generators import NAME_POOL, random_redex_config

    for entry in CORPUS:
        config = normalize(translate(parse(entry.source), "o"))
        for seed, budget in ((0, 3), (1, 12), (2, 40)):
            soup = run(config, policy="random", seed=seed, budget=budget).soup
            yield config_to_process(soup.config())
    rng = random.Random(23)
    for i in range(300):
        try:
            config = normalize(random_redex_config(rng))
        except EngineError:
            continue
        soup = run(config, policy="random", seed=i, budget=1 + i % 8, permissive=True).soup
        yield config_to_process(soup.config())
    for i in range(300):
        try:
            config = normalize(random_process(rng, depth=4, param_pool=NAME_POOL))
        except EngineError:
            continue
        soup = run(config, policy="random", seed=i, budget=1 + i % 8, permissive=True).soup
        yield config_to_process(soup.config())


def test_round_trip_after_steps():
    # a step substitutes names for variables, so a receive parameter may
    # come to spell a name free in its scope; it prints renamed
    from reference import alpha_equal_process
    renamed = 0
    for p in _post_step_processes():
        text = pretty_process(p)
        q = parse_process(text)
        assert alpha_equal_process(q, p), text
        assert pretty_process(q) == text
        renamed += q != p
    assert renamed > 0


def test_round_trip_of_a_number_channel():
    # a step can substitute a number into a channel's base
    from butfpi.epi.engine import normalize, run
    from reference import config_to_process
    for text, printed in (("a<5> | a(x). x<7>", "5<7>"),
                          ("a<-3> | a(x). x.len(y). y:<x>", "-3.len(y). y:<-3>")):
        soup = run(normalize(parse_process(text)), budget=1).soup
        p = config_to_process(soup.config())
        assert pretty_process(p) == printed
        assert parse_process(printed) == p
    # a numeral starts a channel only where one follows it
    assert parse_process("0 | 0<1>") == Par(Nil(), Act(Send(Chan(NumT(0)), (NumT(1),)), Nil()))
    assert parse_process("[1 < 2] 0, 0(x). 0").then == Nil()
    for text in ("0 0", "-3", "5"):
        with pytest.raises(ProcessParseError):
            parse_process(text)


def test_a_parameter_spelling_a_free_name_prints_renamed():
    from butfpi.epi.engine import normalize, run
    soup = run(normalize(parse_process("a<z> | a(y). b(z). c<y>")), budget=1).soup
    (thread,) = soup.config().threads
    assert pretty_process(thread.proc) == "b(z_2). c<z>"
    assert parse_process("b(z_2). c<z>") == Act(
        Recv(Chan(NameT("b")), ("z_2",)), Act(Send(Chan(NameT("c")), (NameT("z"),)), Nil()))
    # a parameter that spells no free name keeps its spelling
    assert pretty_process(parse_process("b(z). c<z, y>")) == "b(z). c<z, y>"
