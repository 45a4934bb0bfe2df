import random

import pytest

from butfpi.butf.parse import parse
from butfpi.epi.engine import CommitFault, apply_redex, enabled_redexes, normalize
from butfpi.epi.parse import parse_process
from butfpi.epi.syntax import Nil
from butfpi import ugrammar
from butfpi.translate import TranslationOptions, translate
from butfpi.ugrammar import config_well_behaved, diagnose, name_class, well_behaved
from generators import random_closed_program


def test_name_classes():
    assert name_class("o12") == "output"
    assert name_class("r3") == "output"
    assert name_class("h1_2") == "handle"
    assert name_class("f9") == "handle"
    assert name_class("d2") == "signal"
    assert name_class("vals7") == "collection"
    assert name_class("c4") == "counter"
    assert name_class("zzz") is None


def test_nil_is_well_behaved():
    assert well_behaved(Nil())


def test_output_channel_as_value_rejected():
    assert not well_behaved(parse_process("o<o>"))
    assert well_behaved(parse_process("o<5>"))
    assert well_behaved(parse_process("o<h>"))


def test_diagnose_memoizes_none(monkeypatch):
    # None is a memoized answer, not a miss: asking again walks nothing
    walks = []
    check = ugrammar._check
    monkeypatch.setattr(ugrammar, "_check", lambda *a: walks.append(a) or check(*a))
    p = parse_process("new o. (o<5> | o(x). 0)")
    assert diagnose(p) is None
    first = len(walks)
    assert first > 0
    assert diagnose(p) is None and well_behaved(p)
    assert len(walks) == first
    bad = parse_process("zzz<1>")
    assert diagnose(bad) is not None and diagnose(bad) == diagnose(bad)


def test_shape_violations_have_diagnostics():
    assert "continuation" in diagnose(parse_process("o<5>.d<>"))
    assert diagnose(parse_process("zzz<1>")) is not None
    assert diagnose(parse_process("o<1, 2>")) is not None
    assert diagnose(parse_process("!o(v). 0")) is not None  # outputs are not servers
    assert diagnose(parse_process("[h < 0] o<1>, 0")) is not None


@pytest.mark.parametrize("text, fault", [
    ("o<1, 2>", ": output must deliver exactly one value"),
    ("h<1>", ": function call must carry (value, output)"),
    ("h<o, o>", ": function argument is not a value"),
    ("h<1, h>", ": function reply slot is not an output channel"),
    ("h.0<1, o>", ": cell must carry (index, value)"),
    ("h.len<d>", ": length server must carry one value"),
    ("h.tup<1, o>", ": tuple payload must be values"),
    ("vals<1>", ": collection send must carry (index, value)"),
    ("vals<o, 1>.c<1>", ": collection send must carry (index, value)"),
    ("d<1>", ": signals are empty"),
    ("c<>", ": counter must carry one value"),
    ("o.1<1>", ": no send production for ('output', 'idx')"),
    ("o<1>.d<>", ": send on ('output', 'none') carries a continuation"),
    ("!o<1>", ".repl: send on ('output', 'none') cannot be replicated"),
])
def test_send_productions_diagnose_bad_payloads(text, fault):
    assert diagnose(parse_process(text)) == fault


def test_translations_well_behaved_on_corpus():
    from corpus import CORPUS
    for entry in CORPUS:
        p = translate(parse(entry.source))
        assert diagnose(p) is None, (entry.name, diagnose(p))


def test_translations_well_behaved_fuzzed():
    rng = random.Random(61)
    for _ in range(500):
        e = random_closed_program(rng, depth=4)
        for opts in (TranslationOptions(),
                     TranslationOptions(strict_bullets=False, paper_literal_repeat=True)):
            p = translate(e, "o", opts)
            problem = diagnose(p)
            assert problem is None, (e, problem)


def test_invariant_under_reduction():
    # a spot check here; the acceptance suite walks every corpus program
    for src in ("map ((\\x. x + 1), iota 2)", "(\\f. f (2, 3)) (+)",
                "(map ((\\x. x), [5]))[0]"):
        config = normalize(translate(parse(src)))
        steps = 0
        while True:
            assert config_well_behaved(config) is None, (src, steps)
            redexes, diags = enabled_redexes(config)
            assert not diags
            if not redexes:
                break
            try:
                config, _ = apply_redex(config, redexes[0])
            except CommitFault:
                break
            steps += 1
            assert steps < 5000
