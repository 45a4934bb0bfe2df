import random

from butfpi.butf.parse import parse
from butfpi.butf.syntax import App, Num, Var, substitute
from butfpi.epi.engine import barbs, enabled_redexes, normalize, run
from butfpi.epi.parse import parse_process
from butfpi.epi.pretty import pretty_process
from butfpi.epi.syntax import (
    NameT,
    NumT,
    VarT,
    rewrite,
)
from butfpi.translate import (
    COLLECTION,
    HANDLE,
    OUTPUT,
    SIGNAL,
    TranslationOptions,
    Translator,
    cell,
    repeat,
    translate,
)
from generators import random_closed_program
from reference import alpha_equal_process, count_bullets, expected_bullets

PAPER_LITERAL = TranslationOptions(paper_literal_repeat=True)


def test_translate_number():
    assert pretty_process(translate(parse("5"))) == "o<5>"


def test_translate_lambda_shape():
    text = pretty_process(translate(parse("\\x. x")))
    assert text == "new f1.( o<f1> | !f1(x1, r1). r1<x1> )"


def test_translate_array_shape():
    # gather both elements, then cells, a length server, and the handle on o
    text = pretty_process(translate(parse("[1, 2]")))
    assert text.startswith("new o1, o2, h1.( o1<1> | o2<2> | o1(v1). o2(v2).(")
    assert "!h1.len<2>" in text and "o<h1>" in text
    assert "!h1.0<0, v1>" in text and "!h1.1<1, v2>" in text


def test_translate_index_guard():
    text = pretty_process(translate(parse("a1[0]")))
    assert "*([i1 >= 0] h1.i1(i2, v1). o<v1>, 0)" in text


def test_fresh_names_per_role():
    tr = Translator()
    assert tr.fresh(OUTPUT) == "o1"
    assert tr.fresh(OUTPUT) == "o2"
    assert tr.fresh(HANDLE) == "h1"
    assert tr.fresh(SIGNAL) == "d1"
    assert tr.fresh(COLLECTION) == "vals1"


def test_translation_deterministic():
    e = parse("map ((\\x. x + 1), iota 3)")
    assert translate(e) == translate(e)


def test_cell_shape():
    text = pretty_process(cell(NameT("h"), 0, NumT(5)))
    assert text == "!h.all(r). r<0, 5> | !h.0<0, 5>"
    # a cell carrying a handle value answers probes with it
    text = pretty_process(cell(NameT("h"), 2, NameT("k")))
    assert "!h.2<2, k>" in text


def test_cell_answers_probe():
    config = normalize(parse_process("!h.all(r). r<1, 5> | !h.1<1, 5> | h.1(i, x). o<x>"))
    trace = run(config)
    assert ("o", "out") in barbs(trace.soup.config())


def test_repeat_emits_pairs_then_done():
    # collect what lands on a probe collector
    probe = "!r(i, v). got<i, v> | d(). done_flag<>"
    proc = pretty_process(repeat(NumT(3), NameT("r"), NameT("d")))
    config = normalize(parse_process(f"{proc} | {probe}"))
    trace = run(config, budget=1000)
    texts = sorted(pretty_process(t.proc) for t in trace.soup.config().threads)
    assert "got<0, 0>" in texts and "got<1, 1>" in texts and "got<2, 2>" in texts
    assert "done_flag<>" in texts
    assert not any("got<3" in t or "got<-1" in t for t in texts)


def test_repeat_zero_emits_nothing():
    probe = "!r(i, v). got<i, v> | d(). done_flag<>"
    proc = pretty_process(repeat(NumT(0), NameT("r"), NameT("d")))
    config = normalize(parse_process(f"{proc} | {probe}"))
    trace = run(config, budget=100)
    texts = sorted(pretty_process(t.proc) for t in trace.soup.config().threads)
    assert "done_flag<>" in texts
    assert not any(t.startswith("got<") for t in texts)


def test_repeat_paper_literal_also_emits_minus_one():
    probe = "!r(i, v). got<i, v> | d(). done_flag<>"
    proc = pretty_process(repeat(NumT(1), NameT("r"), NameT("d"), paper_literal=True))
    config = normalize(parse_process(f"{proc} | {probe}"))
    trace = run(config, budget=100)
    texts = sorted(pretty_process(t.proc) for t in trace.soup.config().threads)
    assert "got<0, 0>" in texts and "got<-1, -1>" in texts


def test_bullet_census():
    rng = random.Random(31)
    for _ in range(300):
        e = random_closed_program(rng, depth=4)
        for opts in (TranslationOptions(), TranslationOptions(strict_bullets=False)):
            p = translate(e, "o", opts)
            assert count_bullets(p) == expected_bullets(e, opts.strict_bullets), e


def test_strict_vs_paper_literal_bullets():
    e = parse("size [1, 2]")
    assert count_bullets(translate(e)) == 1
    assert count_bullets(translate(e, opts=TranslationOptions(strict_bullets=False))) == 0
    e = parse("iota 2")
    assert count_bullets(translate(e)) == 1
    assert count_bullets(translate(e, opts=TranslationOptions(strict_bullets=False))) == 0
    # the map done-bullet is part of the printed calculus: present in both modes
    e = parse("map ((\\x. x), [1])")
    assert count_bullets(translate(e)) == 1
    assert count_bullets(translate(e, opts=TranslationOptions(strict_bullets=False))) == 1


def test_substitution_commutes_with_translation():
    # translating with a free variable, then substituting a numeral at the
    # process level, agrees with substituting first
    rng = random.Random(47)
    checked = 0
    for _ in range(100):
        e = random_closed_program(rng, depth=3)
        open_e = App(e, Var("x")) if rng.random() < 0.3 else App(
            parse("\\y. y"), Var("x"))
        p_open = translate(open_e, "o")
        p_sub = rewrite(p_open, var_map={"x": NumT(7)})
        p_closed = translate(substitute(open_e, "x", Num(7)), "o")
        assert alpha_equal_process(p_sub, p_closed), open_e
        checked += 1
    assert checked == 100


def test_translation_closed_for_closed_programs():
    from butfpi.epi.syntax import free_process_vars
    rng = random.Random(53)
    for _ in range(100):
        e = random_closed_program(rng, depth=4)
        assert not free_process_vars(translate(e)), e
