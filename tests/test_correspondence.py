import pytest

from butfpi.butf.eval import EvalResult, eval_expr
from butfpi.butf.parse import parse
from butfpi.butf.syntax import Lam, Var, is_value
from butfpi.correspondence import (
    ArrayRB,
    FunctionOpaque,
    Incomplete,
    NumRB,
    TupleRB,
    check_program,
    check_value_barb,
    dummy_call_penalty,
    render_readback,
    simulate_to_result,
    value_equal,
)
from butfpi.translate import TranslationOptions, translate
from corpus import BY_NAME, TERMINATING

PAPER = TranslationOptions(strict_bullets=False)


def test_simulate_examples():
    rr = simulate_to_result(parse("(\\x. x) 5"))
    assert rr.status == "ok" and rr.important_steps == 1
    assert rr.readback == NumRB(5)
    rr = simulate_to_result(parse("if 1 then 2 else 3"))
    assert rr.important_steps == 1 and rr.readback == NumRB(2)
    rr = simulate_to_result(parse("5"))
    assert rr.important_steps == 0 and rr.readback == NumRB(5)


def test_readback_structures():
    assert simulate_to_result(parse("[1,2,3]")).readback == ArrayRB(
        (NumRB(1), NumRB(2), NumRB(3)))
    assert simulate_to_result(parse("(7,)")).readback == TupleRB((NumRB(7),))
    assert simulate_to_result(parse("()")).readback == TupleRB(())
    assert simulate_to_result(parse("[]")).readback == ArrayRB(())
    assert simulate_to_result(parse("[1, (2, 3)]")).readback == ArrayRB(
        (NumRB(1), TupleRB((NumRB(2), NumRB(3)))))
    rb = simulate_to_result(parse("\\x. x")).readback
    assert isinstance(rb, FunctionOpaque)


def test_readback_functions_inside_arrays():
    rb = simulate_to_result(parse("[\\x. x]")).readback
    assert isinstance(rb, ArrayRB) and isinstance(rb.items[0], FunctionOpaque)


def test_value_equal():
    assert value_equal(parse("[1, 2]"), ArrayRB((NumRB(1), NumRB(2))))
    assert not value_equal(parse("5"), NumRB(6))
    assert value_equal(parse("\\x. x"), FunctionOpaque("f1"))
    assert not value_equal(parse("5"), Incomplete("h.len"))
    assert value_equal(parse("()"), TupleRB(()))


def test_stuck_program_never_delivers():
    rr = simulate_to_result(parse("[1, 2][5]"))
    assert rr.status == "stuck-in-process"
    assert rr.readback is None


def test_dummy_call_penalty():
    assert dummy_call_penalty(parse("\\x. x")) == 0
    assert dummy_call_penalty(parse("\\x. (\\y. y) x")) == 1
    assert dummy_call_penalty(parse("\\x. x + 1")) == 1


def test_check_program_examples():
    rep = check_program(parse("iota 3"), seeds=5)
    assert rep.status == "ok" and rep.butf_steps == 1
    assert rep.adjusted_min == rep.adjusted_max == 1 and rep.value_match

    rep = check_program(parse("map ((\\x. x), [4])"), seeds=5)
    assert rep.status == "ok" and rep.dummy_penalty == 0
    assert rep.adjusted_min == rep.adjusted_max == rep.butf_steps == 1

    rep = check_program(parse("size [1,2]"), seeds=3)
    assert rep.status == "ok" and rep.important_min == 1

    rep = check_program(parse("size [1,2]"), seeds=3, opts=PAPER)
    assert rep.status == "ok" and rep.important_min == 0
    assert rep.expected_deficit == 1  # the discrepancy itself is the artifact


def test_check_program_map_adjustment():
    rep = check_program(parse("map ((\\x. (\\y. y) x), [1, 2])"), seeds=5)
    assert rep.status == "ok"
    assert rep.dummy_penalty == 1
    assert rep.important_min == rep.important_max == 4
    assert rep.adjusted_min == rep.adjusted_max == rep.butf_steps == 3


def test_check_program_oracle_errors_propagate():
    rep = check_program(parse("1 / 0"), seeds=1)
    assert rep.status == "oracle-stuck"
    rep = check_program(parse("(\\x. x x) (\\x. x x)"), seeds=1, fuel=100)
    assert rep.status == "oracle-diverged"


def test_check_value_barb_examples():
    assert check_value_barb(parse("[1, (2, 3)]")) is True
    assert check_value_barb(parse("(\\x. x) 5")) is False
    # bodies are frozen under the function server, even divergent ones
    assert check_value_barb(parse("\\x. (\\y. y y) (\\y. y y)")) is True
    assert check_value_barb(parse("5")) is True


def test_check_value_barb_matches_is_value_on_corpus():
    from butfpi.correspondence import barb_before_important
    unsettled = []
    for entry in TERMINATING:
        e = parse(entry.source)
        expect = is_value(e)
        got = check_value_barb(e, state_bound=2000)
        # exhaustive where the administrative space is small; the per-trace
        # check below covers the searches that hit their bound
        assert got is expect or got is None, (entry.name, got, expect)
        if got is None:
            unsettled.append(entry.name)
        assert barb_before_important(e) is expect, entry.name
    # the searches that hit the bound stay as few as they are
    assert len(unsettled) <= 2, unsettled


def test_report_json_shape():
    rep = check_program(parse("1 + 2"), seeds=2)
    data = rep.to_dict()
    assert data["important"]["per_run"]["priority"] == 1
    assert data["value_match"] is True
    assert any("arith" in d for d in data["deviations"])


def test_check_translates_once_per_program(monkeypatch):
    import butfpi.correspondence as corr
    calls = []

    def counting(e, out, opts=None):
        calls.append(e)
        return translate(e, out, opts)

    monkeypatch.setattr(corr, "translate", counting)
    report = check_program(parse("map ((\\x. x + 1), [1, 2])"), seeds=5)
    assert report.status == "ok" and report.seeds_run == 5
    # the program itself, and the map's dummy call measured once
    assert len(calls) == 2


@pytest.mark.xfail(strict=True, reason=(
    "the source evaluator clamps iota of a negative count to [], while the "
    "translation publishes the raw count on h.len, so read-back reports "
    "h.len -1 and check reports value-mismatch"))
def test_iota_of_a_negative_number_checks_ok(capsys):
    import json

    from butfpi.cli import dispatch
    assert dispatch(["check", "-e", "iota (0 - 1)", "--seeds", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
