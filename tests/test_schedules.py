"""Seeded schedules run in forked processes give the reports run here give.

``schedules._processes`` decides how many processes run the seeded
schedules; the tests force it to 1 (none forked), 2 or 3.  Every report
must be the same ``cli.dumps`` text either way, a chunk whose child fails
is run again in the parent, and no call leaves a child behind.
"""

import json
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from butfpi import correspondence, cost, schedules
from butfpi.butf.parse import parse
from butfpi.cli import dispatch, dumps
from butfpi.correspondence import check_program
from butfpi.cost import FAMILIES, measure, nested_apps, scaling_experiment
from corpus import CORPUS

TESTS = Path(__file__).resolve().parent
PROGRAMS = TESTS.parent / "programs"
SRC = TESTS.parent / "src"
SEEDS = 4
FORKED = (2, 3)
# low enough that the diverging entries end quickly, high enough for the rest
FUEL, BUDGET = 1_000, 1_000
ARRAYS = r"map ((\x. (x, x * x + 7)), iota 8)"


def no_children_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process is left")


def forcing(monkeypatch, processes):
    monkeypatch.setattr(schedules, "_processes", lambda left, first_s: processes)


def sources():
    out = [(f"corpus-{e.name}", parse(e.source)) for e in CORPUS]
    out += [(f"program-{p.stem}", parse(p.read_text(encoding="utf-8")))
            for p in sorted(PROGRAMS.glob("*.butf"))]
    out += [(f"{family}-{n}", make(n)) for family, make in sorted(FAMILIES.items())
            for n in (1, 4, 16)]
    return out


SOURCES = sources()


def reports(e):
    """The ``check`` and ``cost`` JSON of ``e``, each checked for children."""
    checked = dumps(check_program(e, seeds=SEEDS, budget=BUDGET, fuel=FUEL).to_dict())
    no_children_left()
    measured = dumps(measure(e, seeds=SEEDS, budget=BUDGET).to_dict())
    no_children_left()
    return checked, measured


def sweep(processes):
    """``reports`` of every source, the seeded schedules spread over
    ``processes`` processes."""
    schedules._processes = lambda left, first_s: processes
    return {name: reports(e) for name, e in SOURCES}


@pytest.fixture(scope="module")
def swept():
    """``sweep`` at 1, 2 and 3 processes, in a fresh interpreter: a fork of
    this test process, grown large by the suites before, costs ten times
    as much."""
    code = ("import json, test_schedules as t; "
            "print(json.dumps({p: t.sweep(p) for p in (1, 2, 3)}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.parametrize("processes", FORKED)
def test_forked_reports_are_the_unforked_reports(swept, processes):
    unforked, forked = swept["1"], swept[str(processes)]
    assert list(forked) == [name for name, _e in SOURCES]
    for name in forked:
        assert forked[name] == unforked[name], name


@pytest.mark.parametrize("processes, here", [(1, 6), (2, 4), (3, 3)])
def test_results_come_back_in_schedule_order(monkeypatch, processes, here):
    # five seeds: the priority run and the first chunk run here (chunks of
    # 3 and 2, or of 2, 2 and 1), the other chunks in children
    forcing(monkeypatch, processes)
    parent = os.getpid()
    got = schedules.run_schedules(
        lambda policy, seed: (policy, seed, os.getpid() == parent), 5)
    no_children_left()
    assert [(label, *result[:2]) for label, result in got] == schedules.schedules(5)
    assert [result[2] for _label, result in got] == [True] * here + [False] * (6 - here)


def test_the_decision_forks_where_it_pays_and_is_safe(monkeypatch):
    monkeypatch.setattr(schedules, "_fork_round_trip", lambda: 0.001)
    monkeypatch.setattr(schedules, "_usable_cpus", lambda: 2)
    pays = schedules.FORK_FACTOR * 0.001  # seconds of runs a fork must beat
    assert schedules._processes(4, pays / 3) == 2
    assert schedules._processes(4, pays / 4) == 1
    assert schedules._processes(1, 1.0) == 1  # one schedule left: nothing to share
    monkeypatch.setattr(schedules, "_usable_cpus", lambda: 8)
    assert schedules._processes(4, 0.01) == 4  # never more processes than chunks
    assert schedules._processes(20, 0.01) == 8
    monkeypatch.setattr(schedules, "_usable_cpus", lambda: 1)
    assert schedules._processes(20, 0.01) == 1
    monkeypatch.setattr(schedules, "_usable_cpus", lambda: 2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert schedules._processes(20, 0.01) == 1  # another thread runs
    finally:
        stop.set()
        other.join()
    assert schedules._processes(20, 0.01) == 2


def test_the_fork_round_trip_is_measured_again_once_memory_doubles(monkeypatch):
    monkeypatch.setattr(schedules, "_fork_s", 123.0)
    monkeypatch.setattr(schedules, "_fork_rss", 1 << 40)
    assert schedules._fork_round_trip() == 123.0  # memory has not doubled
    monkeypatch.setattr(schedules, "_fork_rss", 1)
    measured = schedules._fork_round_trip()
    no_children_left()
    assert 0 < measured < 123.0
    assert schedules._fork_rss > 1
    assert schedules._fork_round_trip() == measured


def test_chunks_are_contiguous_and_the_first_is_largest():
    items = [(f"seed{k}", "random", k) for k in range(5)]
    assert schedules._chunks(items, 2) == [items[:3], items[3:]]
    assert schedules._chunks(items, 3) == [items[:2], items[2:4], items[4:]]
    assert [label for label, _p, _s in schedules.schedules(2)] == [
        "priority", "seed0", "seed1"]


def test_check_prints_its_json_once(monkeypatch, capfd):
    forcing(monkeypatch, 2)
    want = dumps(check_program(parse(ARRAYS), seeds=SEEDS).to_dict()) + "\n"
    capfd.readouterr()
    assert dispatch(["check", "-e", ARRAYS, "--seeds", str(SEEDS), "--format", "json"]) == 0
    no_children_left()
    out, err = capfd.readouterr()
    assert out == want and err == ""


def raising_in(module, monkeypatch, when, exc):
    """``module.run`` raising ``exc`` on the calls ``when(policy, seed)``
    picks; returns the calls this process made."""
    calls = []
    plain = module.run

    def run(config, policy="priority", seed=0, **kwargs):
        calls.append((policy, seed))
        if when(policy, seed):
            raise exc
        return plain(config, policy=policy, seed=seed, **kwargs)

    monkeypatch.setattr(module, "run", run)
    return calls


@pytest.mark.parametrize("processes", FORKED)
def test_a_chunk_failing_in_its_child_is_run_again_here(monkeypatch, processes):
    e = parse(ARRAYS)
    forcing(monkeypatch, 1)
    want = (dumps(check_program(e, seeds=SEEDS).to_dict()),
            dumps(measure(e, seeds=SEEDS).to_dict()))
    forcing(monkeypatch, processes)
    parent = os.getpid()
    in_child = lambda policy, seed: os.getpid() != parent  # noqa: E731
    ran = raising_in(correspondence, monkeypatch, in_child, RuntimeError("child"))
    assert dumps(check_program(e, seeds=SEEDS).to_dict()) == want[0]
    no_children_left()
    # the dummy call, then every schedule: the children's chunks again
    assert ran == [("priority", 0), ("priority", 0)] + [("random", k) for k in range(SEEDS)]
    raising_in(cost, monkeypatch, in_child, RuntimeError("child"))
    assert dumps(measure(e, seeds=SEEDS).to_dict()) == want[1]
    no_children_left()


def test_a_chunk_sending_short_data_is_run_again_here(monkeypatch):
    e = parse(ARRAYS)
    forcing(monkeypatch, 1)
    want = dumps(measure(e, seeds=SEEDS).to_dict())
    forcing(monkeypatch, 2)
    parent, plain = os.getpid(), pickle.dumps

    def short(obj, protocol=None):
        data = plain(obj, protocol)
        return data if os.getpid() == parent else data[:-2]

    monkeypatch.setattr(pickle, "dumps", short)
    assert dumps(measure(e, seeds=SEEDS).to_dict()) == want
    no_children_left()


@pytest.mark.parametrize("processes", FORKED)
def test_a_recursion_error_in_a_childs_chunk_exits_three(monkeypatch, capfd, processes):
    forcing(monkeypatch, processes)
    # the last seed is in the last chunk, always a child's
    last = lambda policy, seed: policy == "random" and seed == SEEDS - 1  # noqa: E731
    raising_in(correspondence, monkeypatch, last, RecursionError("too deep"))
    argv = ["check", "-e", ARRAYS, "--seeds", str(SEEDS), "--format", "json"]
    assert dispatch(argv) == 3
    no_children_left()
    out, err = capfd.readouterr()
    assert out == "" and "too deep" in err
    raising_in(cost, monkeypatch, last, RecursionError("too deep"))
    assert dispatch(["cost", "-e", ARRAYS, "--seeds", str(SEEDS)]) == 3
    no_children_left()


@pytest.mark.parametrize("processes", FORKED)
def test_scale_drops_a_size_whose_child_chunk_overflows(monkeypatch, processes):
    forcing(monkeypatch, processes)
    deep = [False]

    def marking(n):
        deep[0] = n == 3  # forked children see it too
        return nested_apps(n)

    monkeypatch.setitem(cost.FAMILIES, "nested-apps", marking)
    last = lambda policy, seed: deep[0] and seed == SEEDS - 1  # noqa: E731
    raising_in(cost, monkeypatch, last, RecursionError("too deep"))
    table = scaling_experiment("nested-apps", [1, 2, 3, 4], seeds=SEEDS)
    no_children_left()
    assert [r.n for r in table.rows] == [1, 2, 4]
    assert table.dropped == [3]


def test_the_parent_kills_and_reaps_its_children_when_its_own_chunk_raises(monkeypatch):
    forcing(monkeypatch, 3)
    parent = os.getpid()

    def stuck_child_or_failing_parent(policy, seed):
        if os.getpid() != parent:
            time.sleep(60)  # only a kill ends it in time
        return policy == "random"

    raising_in(cost, monkeypatch, stuck_child_or_failing_parent, ValueError("parent"))
    started = time.perf_counter()
    with pytest.raises(ValueError, match="parent"):
        measure(parse(ARRAYS), seeds=SEEDS)
    no_children_left()
    assert time.perf_counter() - started < 30
