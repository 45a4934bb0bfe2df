"""Terms read under a thread's environment.

``_value`` evaluates a term with its variables read from the receive
bindings and its names from the hoisting renames, building no substituted
term; ``_match_redex`` decides a comparison the same way.  Both must agree
with substituting first (``_sub_term``) and then deciding and evaluating
the closed terms, in value and in the exact ``TermError`` text
(``reference_value``, ``reference_match_redex``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from butfpi.epi.engine import Head, Redex, _match_redex
from butfpi.epi.syntax import (
    COMPARATORS,
    Match,
    NameT,
    Nil,
    NumT,
    OpT,
    TermError,
    VarT,
    _value,
    eval_term,
)
from reference import reference_eval_term, reference_match_redex, reference_value

VARS = ("x", "y", "z")
NAMES = ("a", "b", "h")

numbers = st.integers(-9, 9).map(NumT)
names = st.sampled_from(NAMES).map(NameT)
leaves = st.one_of(numbers, names, st.sampled_from(VARS).map(VarT))
terms = st.recursive(
    leaves,
    lambda kids: st.builds(OpT, st.sampled_from(("add", "sub", "mul", "div")), kids, kids),
    max_leaves=8)
# receive bindings hold evaluated values only, mostly numbers so that the
# arithmetic often goes through; renames map to fresh names
bindings = st.dictionaries(st.sampled_from(VARS), st.one_of(numbers, numbers, names))
renames = st.dictionaries(st.sampled_from(NAMES), st.sampled_from(("a_2", "b_2", "h_7")))


def outcome(evaluate, *args):
    """What ``evaluate(*args)`` gives: a value, or the text of its fault."""
    try:
        return evaluate(*args)
    except TermError as exc:
        return f"TermError: {exc}"


@settings(max_examples=400, deadline=None)
@given(terms, bindings, renames)
def test_value_is_evaluation_of_the_substituted_term(t, vm, nm):
    assert outcome(_value, t, vm, nm) == outcome(reference_value, t, vm, nm)


@settings(max_examples=200, deadline=None)
@given(terms)
def test_eval_term_folds_as_the_matching_reference(t):
    assert outcome(eval_term, t) == outcome(reference_eval_term, t)


@pytest.mark.parametrize("t, vm, nm, want", [
    # nested arithmetic over bound variables
    (OpT("add", OpT("mul", VarT("x"), VarT("x")), NumT(7)), {"x": NumT(3)}, {}, NumT(16)),
    # a renamed name is read renamed, never built into an OpT
    (NameT("a"), {}, {"a": "a_2"}, NameT("a_2")),
    (VarT("x"), {"x": NameT("b")}, {"b": "b_2"}, NameT("b")),  # values are not renamed
    # division truncates toward zero
    (OpT("div", VarT("x"), NumT(2)), {"x": NumT(-7)}, {}, NumT(-3)),
    (OpT("div", NumT(7), VarT("y")), {"y": NumT(-2)}, {}, NumT(-3)),
    # faults, left operand first
    (OpT("add", VarT("z"), OpT("div", NumT(1), NumT(0))), {}, {}, "TermError: unbound variable 'z'"),
    (OpT("add", OpT("div", NumT(1), NumT(0)), VarT("z")), {}, {}, "TermError: division by zero"),
    (OpT("div", VarT("x"), NumT(0)), {"x": NumT(4)}, {}, "TermError: division by zero"),
    (OpT("sub", VarT("x"), NumT(1)), {"x": NameT("a")}, {}, "TermError: arithmetic on a channel name"),
    (OpT("mul", NameT("a"), VarT("y")), {}, {"a": "a_2"}, "TermError: unbound variable 'y'"),
])
def test_value_cases(t, vm, nm, want):
    assert outcome(_value, t, vm, nm) == want == outcome(reference_value, t, vm, nm)


def comparison(left, op, right, bullets=0) -> Head:
    return Head(Match(left, op, right, Nil(), Nil()), None, bullets, False, None, None)


@settings(max_examples=400, deadline=None)
@given(terms, st.sampled_from(COMPARATORS), terms, bindings, renames, st.integers(0, 2),
       st.booleans())
def test_match_redex_is_substitute_decide_evaluate(left, op, right, vm, nm, bullets, closed):
    h = comparison(left, op, right, bullets)
    env = None if closed else (vm, nm)
    assert _match_redex(5, h, env) == reference_match_redex(5, h, env)


def test_undecidable_comparison_is_none_before_any_fault():
    env = ({"x": NumT(1)}, {})
    faulting = OpT("div", NumT(1), NumT(0))
    # the left operand faults, but the right keeps an unbound variable
    h = comparison(faulting, "<", VarT("y"))
    assert _match_redex(0, h, env) is None is reference_match_redex(0, h, env)
    h = comparison(OpT("add", VarT("y"), NameT("a")), "=", faulting)
    assert _match_redex(0, h, env) is None is reference_match_redex(0, h, env)
    # once every variable is bound the fault shows
    h = comparison(faulting, "<", VarT("x"))
    want = Redex("FAULT", (0,), reason="division by zero")
    assert _match_redex(0, h, env) == want == reference_match_redex(0, h, env)
    h = comparison(NameT("a"), "<", VarT("x"), bullets=1)
    want = Redex("FAULT", (0,), reason="order comparison on a channel name")
    assert _match_redex(0, h, env) == want == reference_match_redex(0, h, env)
    h = comparison(NameT("a"), "=", VarT("b"))
    env = ({"b": NameT("a_2")}, {"a": "a_2"})
    want = Redex("THEN", (0,), branch_then=True)
    assert _match_redex(0, h, env) == want == reference_match_redex(0, h, env)
