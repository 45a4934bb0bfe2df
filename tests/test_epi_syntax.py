import random

import pytest

from butfpi.epi.syntax import (
    Act,
    Bullet,
    Chan,
    Match,
    NameT,
    New,
    Nil,
    NumT,
    OpT,
    Par,
    Recv,
    Repl,
    Send,
    TermError,
    VarT,
    compare,
    eval_term,
    free_names,
    free_process_vars,
    rewrite,
    term_names,
    term_vars,
)
from butfpi.epi.parse import parse_process
from butfpi.epi.pretty import pretty_process
from generators import NAME_POOL, random_process
from reference import alpha_equal_process, reference_rewrite


def test_eval_term():
    assert eval_term(OpT("add", NumT(2), NumT(3))) == NumT(5)
    assert eval_term(NameT("a")) == NameT("a")
    assert eval_term(OpT("div", NumT(-7), NumT(2))) == NumT(-3)
    with pytest.raises(TermError):
        eval_term(OpT("add", NameT("a"), NumT(1)))
    with pytest.raises(TermError):
        eval_term(OpT("div", NumT(1), NumT(0)))
    with pytest.raises(TermError):
        eval_term(VarT("x"))


def test_compare():
    assert compare(">=", NumT(3), NumT(0))
    assert not compare("=", NumT(3), NumT(0))
    assert compare("!=", NameT("h"), NumT(0))  # a handle is not zero
    assert compare("=", NameT("h"), NameT("h"))
    assert not compare("=", NameT("h"), NameT("g"))
    with pytest.raises(TermError):
        compare("<", NameT("h"), NumT(0))


def test_free_names_and_vars():
    p = parse_process("new a.( a<b> | c(x). x<a> )")
    assert free_names(p) == {"b", "c"}
    assert free_process_vars(p) == frozenset()
    q = New("a", Act(Send(Chan(NameT("a")), (VarT("y"),)), Nil()))
    assert free_process_vars(q) == {"y"}


def test_rewrite_substitutes_and_shadows():
    p = parse_process("c(x).( x<1> | c(x). x<2> )")
    body = p.cont if hasattr(p, "cont") else None
    inner = rewrite(p.cont, var_map={"x": NameT("k")})
    # outer occurrence replaced, inner receive still binds its own x
    left, right = inner.left, inner.right
    assert left.action.chan.base == NameT("k")
    assert right.cont.action.chan.base == VarT("x")


def test_rewrite_avoids_name_capture():
    # substituting the name a into a scope that restricts a must rename the binder
    p = New("a", Act(Send(Chan(VarT("x")), (NameT("a"),)), Nil()))
    out = rewrite(p, var_map={"x": NameT("a")})
    assert isinstance(out, New)
    assert out.name != "a"
    assert out.body.action.chan.base == NameT("a")
    assert out.body.action.args == (NameT(out.name),)


def test_rewrite_renames_free_names():
    p = parse_process("a<1> | new a. a<2>")
    out = rewrite(p, name_map={"a": "z"})
    assert out.left.action.chan.base == NameT("z")
    assert isinstance(out.right, New)
    assert out.right.body.action.chan.base == NameT(out.right.name)


def test_alpha_equal_process():
    p = parse_process("new a. a<1>")
    q = parse_process("new b. b<1>")
    assert alpha_equal_process(p, q)
    r = parse_process("new b. b<2>")
    assert not alpha_equal_process(p, r)
    p = parse_process("c(x, y). o<x>")
    q = parse_process("c(u, v). o<u>")
    r = parse_process("c(u, v). o<v>")
    assert alpha_equal_process(p, q)
    assert not alpha_equal_process(p, r)
    assert alpha_equal_process(parse_process("o<free>"), parse_process("o<free>"))
    assert not alpha_equal_process(parse_process("o<free>"), parse_process("o<other>"))


# ------------------------------------------------ rewrite against the full walk

FREE_VARS = ("x", "y")
PARAMS = ("p2_0", "p2_1", "p3_0", "p3_1")  # what random_process names receive patterns


def _binders(p):
    """Restriction binders and receive parameters anywhere in ``p``."""
    match p:
        case New(name, body):
            names, params = _binders(body)
            return names | {name}, params
        case Act(Recv(_, params), cont):
            names, inner = _binders(cont)
            return names, inner | {x for x in params if x is not None}
        case Act(_, body) | Repl(body) | Bullet(body):
            return _binders(body)
        case Par(left, right) | Match(then=left, orelse=right):
            ln, lp = _binders(left)
            rn, rp = _binders(right)
            return ln | rn, lp | rp
    return set(), set()


def _random_maps(rng):
    var_map = {}
    for x in rng.sample(FREE_VARS + PARAMS[:2], rng.randint(0, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            var_map[x] = NumT(rng.randint(0, 9))
        elif kind == 1:
            var_map[x] = NameT(rng.choice(NAME_POOL))  # names restrictions bind
        elif kind == 2:
            var_map[x] = VarT(rng.choice(PARAMS))  # variables receives bind
        else:
            var_map[x] = OpT("add", VarT(rng.choice(PARAMS)), NameT(rng.choice(NAME_POOL)))
    name_map = {n: rng.choice(NAME_POOL + ("a_2", "z"))
                for n in rng.sample(NAME_POOL, rng.randint(0, 2))}
    return var_map, name_map


def _untouched(p, var_map, name_map, incoming, incoming_vars) -> bool:
    """Whether no free variable, free name, binder or parameter of ``p``
    meets the maps, so that ``rewrite`` must hand ``p`` back as it is."""
    names, params = _binders(p)
    return (free_process_vars(p).isdisjoint(var_map)
            and free_names(p).isdisjoint(name_map)
            and names.isdisjoint(incoming) and params.isdisjoint(incoming_vars))


def test_rewrite_matches_full_walk_reference():
    rng = random.Random(17)
    seen = {"binder": 0, "param": 0, "shadow": 0, "shared": 0, "root": 0}
    for _ in range(1500):
        p = Par(random_process(rng, 4, FREE_VARS), random_process(rng, 4, FREE_VARS))
        var_map, name_map = _random_maps(rng)
        got = rewrite(p, var_map, name_map)
        assert got == reference_rewrite(p, var_map, name_map), pretty_process(p)

        incoming = set(name_map.values())
        incoming_vars = set()
        for t in var_map.values():
            incoming |= term_names(t)
            incoming_vars |= term_vars(t)
        names, params = _binders(p)
        seen["binder"] += bool(names & incoming)
        seen["param"] += bool(params & incoming_vars)
        seen["shadow"] += bool(names & set(name_map) or params & set(var_map))
        # shared exactly when untouched, at the root as on each branch
        untouched = _untouched(p, var_map, name_map, incoming, incoming_vars)
        assert (got is p) == untouched, pretty_process(p)
        seen["root"] += untouched and bool(var_map or name_map)
        for side in ("left", "right"):
            sub = getattr(p, side)
            if _untouched(sub, var_map, name_map, incoming, incoming_vars):
                assert getattr(got, side) is sub
                seen["shared"] += 1
    assert min(seen.values()) > 50, seen


def test_rewrite_edge_cases_match_reference():
    cases = [
        # a binder equal to an incoming name is renamed first
        ("new a.( c<a> | x<1> | new a. a<x> )", {"x": NameT("a")}, {}),
        ("new b.( a<b> | new b_2. b_2<a> )", {}, {"a": "b"}),
        # a receive parameter equal to an incoming variable is renamed first
        ("c(y). x<y> | d(y, z). y<x, z>", {"x": VarT("y")}, {}),
        ("c(w_2). c(w). x<w, w_2>", {"x": OpT("add", VarT("w"), VarT("w_2"))}, {}),
        # shadowing stops a map
        ("x<1> | c(x). x<2> | [x = 0] c(x). x<3>, x<4>", {"x": NumT(7)}, {}),
        ("a<> | new a. a<> | !c(v). new a. v<a>", {}, {"a": "z"}),
    ]
    for text, var_map, name_map in cases:
        p = parse_process(f"b(x, y). ({text})").cont  # x and y are variables here
        got = rewrite(p, var_map, name_map)
        assert got == reference_rewrite(p, var_map, name_map), text
        assert got != p


def test_rewrite_shares_untouched_subtrees():
    p = parse_process("b(x). (x<1> | !c(v). new h.( h<v> | d<h> ) | [x = 0] e<>, f<x>)").cont
    out = rewrite(p, var_map={"x": NumT(3)})
    assert out == reference_rewrite(p, var_map={"x": NumT(3)})
    assert out.right.left is p.right.left
    assert out.right.right.then is p.right.right.then
    assert rewrite(p, var_map={"y": NumT(3)}) is p
    assert rewrite(p, name_map={"q": "r"}) is p
    # a clashing binder is renamed even though nothing is substituted under it
    out = rewrite(p, var_map={"x": NameT("h")})
    assert out.right.left != p.right.left
