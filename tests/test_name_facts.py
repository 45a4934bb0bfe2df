"""The facts record of a process node against the recursive references.

``free_names``, ``all_names``, ``free_process_vars``, ``binders`` and
``symbols`` read one record per node, built by an explicit-stack pass.
Each must give what the plain recursive walks of ``reference.py`` give, on
the corpus, on ``programs/``, on generated processes and on the nodes
``rewrite`` builds, where ``symbols`` may hold more than the reference
(``rewrite`` sets a superset without a walk) but never less.  Inputs far
deeper than the interpreter's default recursion limit must not exhaust
its stack.
"""

import random
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from butfpi.butf.parse import parse
from butfpi.cost import array_of_apps, nested_apps
from butfpi.epi.engine import _closed, normalize, run
from butfpi.epi.parse import parse_process
from butfpi.epi.syntax import (
    Act,
    Bullet,
    Chan,
    Match,
    NameT,
    New,
    Nil,
    NumT,
    Par,
    Recv,
    Repl,
    Send,
    VarT,
    all_names,
    binders,
    free_names,
    free_process_vars,
    par,
    rewrite,
    seq_news,
    symbols,
)
from butfpi.translate import translate
from corpus import CORPUS
from generators import NAME_POOL, random_process
from reference import (
    reference_all_names,
    reference_binders,
    reference_free_names,
    reference_free_process_vars,
    reference_symbols,
)

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").iterdir())

READERS = (free_names, all_names, free_process_vars, binders, symbols)
PROCESS_TYPES = (Act, Bullet, Match, New, Nil, Par, Repl)


def _nodes(p) -> list:
    """Every process node of ``p``, each once, parents before children."""
    seen: set[int] = set()
    out = []
    stack = [p]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(value for value in (getattr(node, f.name) for f in fields(node))
                     if isinstance(value, PROCESS_TYPES))
    return out


def assert_facts(p, rebuilt: bool = False) -> None:
    """Every node of ``p`` has the reference facts; ``rebuilt`` allows
    ``symbols`` a superset, as on nodes ``rewrite`` built."""
    for node in _nodes(p):
        assert free_names(node) == reference_free_names(node)
        assert all_names(node) == reference_all_names(node)
        assert free_process_vars(node) == reference_free_process_vars(node)
        assert binders(node) == reference_binders(node)
        if rebuilt:
            assert symbols(node) >= reference_symbols(node)
        else:
            assert symbols(node) == reference_symbols(node)


def source_process(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".epi":
        return parse_process(text)
    return translate(parse(text), "o")


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_facts_match_the_reference_on_the_corpus(entry):
    p = translate(parse(entry.source), "o")
    assert_facts(p)
    # closing the threads of a run rewrites the templates under their
    # environments: the rebuilt nodes carry the symbols rewrite gave them
    budget = 400 if entry.outcome == "diverges" else 1_000_000
    trace = run(normalize(p), policy="random", seed=0, budget=budget)
    for t in trace.soup.threads.values():
        assert_facts(_closed(t).proc, rebuilt=True)


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.name)
def test_facts_match_the_reference_on_programs(path):
    assert_facts(source_process(path))


@pytest.mark.parametrize("text", [
    "c.x<1> | c.0(y). d.y<y + 1, a> | new h. h.all(r). r<h>",
    "[a = b] c<x * (y + z)>, new x. x<x> | d(x, _). [x < 2] x.tup<x>, 0",
    "!c(u, v). *v<u> | new c. (c<1, o> | c:<2, o>)",
])
def test_facts_match_the_reference_on_suffixes_and_terms(text):
    assert_facts(parse_process(text))


def test_facts_match_the_reference_on_generated_processes():
    rng = random.Random(1701)
    for _ in range(200):
        p = random_process(rng, 4)
        nodes = _nodes(p)
        # a pass from an inner node first: the later pass from the root
        # must keep that subtree's records and not enter it again
        inner = rng.choice(nodes)
        record = (free_names(inner), inner._memo_facts)
        assert_facts(p)
        assert inner._memo_facts is record[1] and free_names(inner) is record[0]


def test_facts_of_nodes_rewrite_built():
    rng = random.Random(1702)
    kept = wider = 0
    for _ in range(200):
        p = random_process(rng, 4)
        symbols(p)  # rewrite hands a known symbols memo on to what it rebuilds
        target = rng.choice(_nodes(p))
        names = sorted(reference_all_names(target) | set(NAME_POOL))
        var_map = {x: rng.choice((NumT(3), NameT(rng.choice(NAME_POOL)), VarT("w")))
                   for x in sorted(reference_free_process_vars(target))
                   if rng.random() < 0.7}
        name_map = {n: rng.choice(NAME_POOL + ("a_2", "q")) for n in rng.sample(names, 2)}
        q = rewrite(target, var_map, name_map)
        given = {id(n): n._memo_symbols for n in _nodes(q)
                 if n._memo_facts is None and n._memo_symbols is not None}
        assert_facts(q, rebuilt=True)
        for node in _nodes(q):
            if id(node) in given:
                # the pass fills only unset symbols: rewrite's superset stays
                assert node._memo_symbols is given[id(node)]
                wider += node._memo_symbols != reference_symbols(node)
        kept += len(given)
    assert kept >= 150 and wider >= 100, (kept, wider)


# ----------------------------------------------------------- deep inputs

DEEP = 5000


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def _prefix_chain():
    p = Nil()
    for i in range(DEEP):
        p = Act(Send(Chan(NameT(f"c{i % 7}")), (NumT(i),)), p)
    return p


def _wide_par():
    echo = Act(Send(Chan(NameT("o")), (VarT("x"),)), Nil())
    return par(*(Act(Recv(Chan(NameT(f"c{i % 7}")), ("x",)), echo) for i in range(DEEP)))


def _many_news():
    body = Act(Send(Chan(NameT("n0")), (NameT(f"n{DEEP - 1}"), VarT("y"))), Nil())
    return seq_news([f"n{i}" for i in range(DEEP)], body)


CHANNELS = frozenset(f"c{i}" for i in range(7))
RESTRICTED = frozenset(f"n{i}" for i in range(DEEP))
DEEP_FACTS = {  # free names, all names, free variables, binders, symbols
    "prefix-chain": (_prefix_chain, (CHANNELS, CHANNELS, set(), set(), CHANNELS)),
    "wide-par": (_wide_par, (CHANNELS | {"o"}, CHANNELS | {"o"}, set(), set(),
                             CHANNELS | {"o", "x"})),
    "many-news": (_many_news, (set(), RESTRICTED, {"y"}, RESTRICTED, RESTRICTED | {"y"})),
}


@pytest.mark.parametrize("first", [binders, symbols], ids=lambda f: f.__name__)
@pytest.mark.parametrize("shape", sorted(DEEP_FACTS))
def test_facts_of_deep_inputs(default_recursion_limit, shape, first):
    # ``symbols`` starts the pass through its own slot, the others through
    # the record's
    build, expected = DEEP_FACTS[shape]
    p = build()
    first(p)
    assert [read(p) for read in READERS] == list(expected)


@pytest.mark.parametrize("expr", [array_of_apps(2000), nested_apps(256)],
                         ids=["array-of-apps-2000", "nested-apps-256"])
def test_normalize_deep_translations(default_recursion_limit, expr):
    config = normalize(translate(expr, "o"))
    assert config.threads
