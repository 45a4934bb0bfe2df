import random

import pytest

from butfpi.butf.syntax import (
    App,
    Array,
    Builtin,
    If,
    Index,
    Lam,
    Num,
    Tup,
    Var,
    free_vars,
    is_value,
    substitute,
)
from debruijn import oracle_substitute, to_db
from generators import random_expr, random_value
from reference import alpha_equal


def test_is_value_basics():
    assert is_value(Array((Num(1), Num(2), Num(3))))
    assert not is_value(Array((Num(1), App(Lam("x", Var("x")), Num(2)))))
    assert is_value(Builtin("map"))
    assert is_value(Lam("x", App(Var("x"), Var("x"))))
    assert is_value(Tup(()))
    assert not is_value(Var("x"))
    assert not is_value(Index(Array((Num(1),)), Num(0)))


def test_free_vars():
    assert free_vars(Var("x")) == {"x"}
    assert free_vars(Lam("x", Var("x"))) == frozenset()
    assert free_vars(App(Var("f"), Lam("x", Var("y")))) == {"f", "y"}
    assert free_vars(If(Var("a"), Var("b"), Lam("b", Var("b")))) == {"a", "b"}


def test_substitute_base_cases():
    assert substitute(Var("x"), "x", Num(3)) == Num(3)
    assert substitute(Var("y"), "x", Num(3)) == Var("y")
    # shadowing: the binder protects its body
    assert substitute(Lam("x", Var("x")), "x", Num(3)) == Lam("x", Var("x"))


def test_substitute_capture_avoidance():
    # substituting \z. y under a binder y must rename the binder
    e = Lam("y", Var("x"))
    v = Lam("z", Var("y"))
    out = substitute(e, "x", v)
    assert isinstance(out, Lam)
    assert out.param != "y"
    assert out.body == Lam("z", Var("y"))
    assert alpha_equal(out, Lam("w", Lam("z", Var("y"))))


def test_substitute_value_stays_value():
    rng = random.Random(7)
    for _ in range(200):
        v = random_value(rng)
        w = random_value(rng)
        assert is_value(v)
        out = substitute(v, "x", w)
        assert is_value(out)


def test_substitute_matches_debruijn_oracle():
    # the documented bulk comparison: at least a thousand random triples
    rng = random.Random(20260809)
    checked = 0
    while checked < 1000:
        e = random_expr(rng, depth=4)
        v = random_value(rng, depth=3)
        x = rng.choice(sorted(free_vars(e)) or ["x"])
        got = substitute(e, x, v)
        assert to_db(got) == oracle_substitute(e, x, v), (e, x, v, got)
        checked += 1


def test_alpha_equal():
    assert alpha_equal(Lam("x", Var("x")), Lam("y", Var("y")))
    assert not alpha_equal(Lam("x", Var("x")), Lam("y", Var("x")))
    assert alpha_equal(
        Lam("x", Lam("y", App(Var("x"), Var("y")))),
        Lam("u", Lam("v", App(Var("u"), Var("v")))),
    )
    assert not alpha_equal(
        Lam("x", Lam("y", App(Var("x"), Var("y")))),
        Lam("u", Lam("v", App(Var("v"), Var("u")))),
    )


def test_builtin_validation():
    with pytest.raises(ValueError):
        Builtin("mod")
