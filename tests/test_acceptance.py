"""The acceptance suite: one test per criterion, one printed line each.

Run as ``pytest tests/test_acceptance.py -v -s``.  The exploration-based
criteria walk reduction graphs up to a hundred thousand configurations on
one core, which dominates the suite's runtime.
"""

import random
import time
from contextlib import contextmanager

import pytest

from butfpi.butf.eval import Diverged, EvalResult, Stuck, eval_expr
from butfpi.butf.parse import parse
from butfpi.butf.pretty import pretty
from butfpi.butf.syntax import is_value
from butfpi.correspondence import (
    barb_before_important,
    check_program,
    check_value_barb,
    read_output,
    render_readback,
    value_equal,
)
from butfpi.cost import fit_check, scaling_experiment
from butfpi.epi.engine import (
    CommitFault,
    LiveSoup,
    apply_redex,
    enabled_redexes,
    explore,
    head_of,
    normalize,
    run,
)
from butfpi.epi.parse import parse_process
from butfpi.epi.syntax import Recv, Repl
from butfpi.translate import TranslationOptions, translate
from butfpi.ugrammar import config_well_behaved, diagnose
from corpus import CORPUS, TERMINATING
from generators import random_closed_program

SEEDS = 20
STATE_BOUND = 100_000
PAPER = TranslationOptions(strict_bullets=False)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({title}): PASS")


@pytest.fixture(scope="module")
def oracles():
    return {e.name: eval_expr(parse(e.source), fuel=1_000_000) for e in CORPUS}


@pytest.fixture(scope="module")
def strict_reports():
    return {e.name: check_program(parse(e.source), seeds=SEEDS)
            for e in TERMINATING}


@pytest.fixture(scope="module")
def explorations():
    out = {}
    for e in TERMINATING:
        config = normalize(translate(parse(e.source)))
        out[e.name] = explore(config, state_bound=STATE_BOUND, depth_bound=10**9)
    return out


def test_criterion_1_semantics_golden_corpus(oracles):
    with criterion(1, "semantics golden corpus"):
        started = time.monotonic()
        rules_seen: set[str] = set()
        assert len(CORPUS) >= 30
        for entry in CORPUS:
            result = oracles[entry.name]
            if entry.outcome == "value":
                assert isinstance(result, EvalResult), entry.name
                assert pretty(result.value) == pretty(parse(entry.expected)), entry.name
                if entry.steps is not None:
                    assert result.steps == entry.steps, entry.name
                rules_seen |= {rule for rule, _ in result.rule_counts}
            elif entry.outcome == "stuck":
                assert isinstance(result, Stuck), entry.name
            else:
                assert isinstance(result, Diverged), entry.name
        assert rules_seen >= {"E-BETA", "E-INDEX", "E-IF-TRUE", "E-IF-FALSE",
                              "E-MAP", "E-SIZE", "E-IOTA", "E-ARITH"}
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"corpus evaluation took {elapsed:.2f}s"


@pytest.mark.slow
def test_criterion_2_translation_value_agreement(strict_reports, explorations, oracles):
    with criterion(2, "translation value agreement"):
        for entry in TERMINATING:
            report = strict_reports[entry.name]
            assert report.status == "ok", (entry.name, report.to_dict())
            assert report.value_match, (entry.name, report.deviations)
            assert report.seeds_run == SEEDS
            # exhaustive exploration where the state space fits the bound:
            # every terminal configuration must deliver the oracle value
            terminals, bound_hit, _states = explorations[entry.name]
            if bound_hit:
                continue
            oracle_value = oracles[entry.name].value
            assert terminals, entry.name
            for terminal in terminals:
                decoded = read_output(LiveSoup(terminal), oracle_value)
                assert decoded is not None, entry.name
                assert value_equal(oracle_value, decoded), (
                    entry.name, render_readback(decoded))


def test_criterion_3_accounting(strict_reports):
    with criterion(3, "important-step accounting"):
        for entry in TERMINATING:
            report = strict_reports[entry.name]
            # strict bullets, dummy-call adjusted: exact equality, every run
            assert report.adjusted_min == report.adjusted_max == report.butf_steps, (
                entry.name, report.to_dict())
            # paper-literal mode: each size/iota firing contributes nothing,
            # and the report exhibits that exact deficit
            paper = check_program(parse(entry.source), seeds=5, opts=PAPER)
            assert paper.status == "ok", (entry.name, paper.to_dict())
            assert (paper.adjusted_min == paper.adjusted_max
                    == paper.butf_steps - paper.expected_deficit), (
                entry.name, paper.to_dict())


def test_criterion_4_value_barbs(oracles):
    with criterion(4, "value/barb alignment"):
        for entry in TERMINATING:
            e = parse(entry.source)
            expect = is_value(e)
            # per-trace: the barb appears before any important step iff value
            assert barb_before_important(e) is expect, entry.name
            for seed in range(10):
                got = barb_before_important(e, policy="random", seed=seed)
                assert got is expect, (entry.name, seed)
            # exhaustive over the administrative fragment where it fits
            exhaustive = check_value_barb(e, state_bound=4000)
            assert exhaustive is expect or exhaustive is None, entry.name


def test_criterion_5_broadcast_atomicity():
    with criterion(5, "broadcast atomicity"):
        started = time.monotonic()
        for k in (0, 1, 5, 32):
            receivers = " | ".join(f"c(x{i}). sink{i}<x{i}>" for i in range(k))
            text = "c:<9>" + (" | " + receivers if receivers else "")
            config = normalize(parse_process(text))
            trace = run(config)
            assert len(trace.steps) == 1, k
            assert trace.steps[0].rule == "BROAD"
            assert len(trace.steps[0].participants) == k + 1
            # all receivers consumed: only delivery residue remains
            threads = trace.soup.config().threads
            assert len(threads) == k
            for t in threads:
                head = head_of(t.proc)
                assert not isinstance(head.core, Recv)
        # a replicated receiver participates once and persists
        config = normalize(parse_process("c:<9> | c(x). a<x> | !c(y). b<y>"))
        trace = run(config, budget=3)
        assert len(trace.steps) == 1
        remaining = [t.proc for t in trace.soup.config().threads]
        assert sum(1 for p in remaining if isinstance(p, Repl)) == 1
        assert len(remaining) == 3  # folded server, a<9>, b<9>
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"broadcast checks took {elapsed:.2f}s"


def test_criterion_6_u_grammar_invariance():
    with criterion(6, "well-behavedness invariance"):
        rng = random.Random(20260809)
        for _ in range(500):
            e = random_closed_program(rng, depth=4)
            problem = diagnose(translate(e))
            assert problem is None, (e, problem)
        # along one full run of every corpus program, every intermediate
        # configuration stays inside the grammar
        for entry in TERMINATING:
            config = normalize(translate(parse(entry.source)))
            steps = 0
            while True:
                problem = config_well_behaved(config)
                assert problem is None, (entry.name, steps, problem)
                redexes, diagnostics = enabled_redexes(config)
                assert not diagnostics, (entry.name, diagnostics)
                if not redexes:
                    break
                config, _ = apply_redex(config, redexes[0])
                steps += 1
                assert steps < 20_000, entry.name


def test_criterion_7_cost_shapes():
    with criterion(7, "work/span table shapes"):
        started = time.monotonic()
        table = scaling_experiment("array-of-apps", [1, 2, 4, 8, 16, 32])
        assert [(r.n, r.work, r.span) for r in table.rows] == [
            (n, n, 1) for n in (1, 2, 4, 8, 16, 32)]
        assert fit_check(table).passed

        table = scaling_experiment("map-over-iota", [1, 2, 4, 8, 16])
        spans = [r.span for r in table.rows]
        assert all(s - spans[0] == 0 for s in spans), spans
        assert fit_check(table).passed

        table = scaling_experiment("nested-apps", list(range(1, 9)))
        assert all(r.work == r.n and r.span == r.n for r in table.rows)
        assert fit_check(table).passed
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"scaling took {elapsed:.2f}s"


@pytest.mark.slow
def test_criterion_8_result_confluence(explorations, oracles):
    with criterion(8, "result confluence under exploration"):
        fully_explored = 0
        for entry in TERMINATING:
            terminals, bound_hit, states = explorations[entry.name]
            if bound_hit:
                continue  # outside the criterion's bound; flagged, not asserted
            fully_explored += 1
            oracle_value = oracles[entry.name].value
            decoded_all = set()
            for terminal in terminals:
                decoded = read_output(LiveSoup(terminal), oracle_value)
                assert decoded is not None, entry.name
                decoded_all.add(render_readback(decoded))
                assert value_equal(oracle_value, decoded), entry.name
            assert len(decoded_all) == 1, (entry.name, decoded_all)
        # the corpus must actually exercise this criterion broadly
        assert fully_explored >= 25, fully_explored


@pytest.mark.slow
def test_full_explorations_keep_their_state_counts(explorations):
    # the largest searches that finish; sharing work between the states of
    # a search must merge exactly the states it merged before
    counts = {name: explorations[name][1:]
              for name in ("map-inc", "map-over-iota", "index-of-map")}
    assert counts == {"map-inc": (False, 15093), "map-over-iota": (False, 14617),
                      "index-of-map": (False, 12807)}
