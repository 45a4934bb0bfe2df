"""Time ``run``, ``check``, ``cost`` and ``explore`` on a set of programs,
for one or more source trees.

    python bench/run_bench.py --tree change=src --tree parent=OTHER/src \
        --repeat 7 --tier1 2 --out BENCH_26.json

Each run is a fresh interpreter that imports ``butfpi`` from the given
``src`` directory.  It translates and normalizes the program, timed as
``normalize_s`` (a cold pass: it makes the first walks of the template
nodes, which the cold call would otherwise pay; a ``check`` or ``cost``
program's call translates and normalizes again, on nodes of its own).  It
then times one cold call with ``perf_counter`` followed by ``WARM`` (5)
more calls of the same kind: ``run`` for a ``run`` program (``gc`` as the
row says), ``check_program`` for a ``check`` program (its seeded runs and
every read-back) and ``cost.measure`` for a ``cost`` program.  The timed
calls fork as the tree decides (``schedules``): ``processes`` lists the
process counts they used (1 for a tree that never forks; null for a
``run``).  The cold call pays each template's first walks that
normalizing did not make; the warm calls show the cost per step alone,
and their spread is far smaller than the cold calls' on a shared host.
Closing a ``run``'s final soup into a ``Config`` (``trace.soup.config()``,
one ``rewrite`` per thread the soup holds open) is timed apart as
``close_s``, and so is the report: ``report_s`` is ``to_dict()`` of the
trace (or of the ``check`` or ``cost`` report) plus ``cli.dumps`` of it,
the JSON the command prints, after the cold call, and ``report_warm_s``
is its least over one report per warm call.  An ``explore`` program is
one timed ``explore`` call per interpreter, and no warm ones.

No call is timed with a counting wrapper in place, and a forked child's
steps and reads are not seen here, so every count comes from one more
call after the timed ones, untimed and forking nothing, with the peak RSS
(``ru_maxrss`` of the interpreter, not of its forked children) read just
before it.  A ``run``, ``check`` or ``cost`` row counts the steps fired
(``LiveSoup.fire`` calls), the threads left at the end of a ``run`` (null
for a ``check`` or ``cost``, which run many soups), ``peak_threads``, the
most threads a soup held just before or just after a step it fired (with
``gc``, what the collections let the soup grow to), the ``rewrite`` calls
the engine made per step (closing included), and for a ``check`` row the
handle reads, ``reads`` (``LiveSoup.ask`` calls), and the seconds spent
in ``read_back`` in that call, ``readback_s`` (the median over the
interpreters); other rows have null there.  Such a row gives the
microseconds per step of each run's cold call and their median, the
least and the median over every warm call (``warm_us_per_step_min`` and
``_median``), the median ``normalize_s``, ``close_s`` and ``report_s``
and the peak RSS.  An ``explore`` row gives the states visited, whether a
bound was hit, the terminals found, the successors generated
(``_entry_multiset`` calls), the successors skipped as duplicates without
a key, the full keys computed (``canonical_key`` calls, the start state's
included), ``closed``, the distinct (template, environment) keys the
search's memo holds at the end, and ``closings``, the threads closed
through it; then the seconds of each run and their median, and the peak
RSS.  ``concat-100k`` (about 40 s and several hundred MB at 100 000
states) runs only when named with ``--program``.

Every row has a digest of what the call returned (the ``simulate`` JSON
of a ``run``, the ``check`` or ``cost`` JSON, or the states, terminal
count and ``bound_hit`` of an ``explore``), which must be the same for
every tree and for every call; the script exits 1 when it is not.  Runs
of the trees alternate, so a drift in the host's speed falls on all of
them.

``--tier1 N`` also runs each tree's test suite (``pytest -q`` in the
directory above its ``src``) N times, the trees alternating, and gives
its wall seconds under ``tier1``; ``--no-programs`` skips the programs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from corpus import BY_NAME  # noqa: E402

SIMULATE_WIDE = r"map ((\x. x * x + 7), iota 32)"
CHECK_ARRAYS = r"map ((\x. (x, x * x + 7)), iota 8)"
MAP_SQUARE = r"map ((\x. x * x + 1), iota {n})"
CONCAT = BY_NAME["concat"].source.strip()

# name -> (how, program or family, size, call keyword arguments)
PROGRAMS = {
    "simulate-wide": ("run", SIMULATE_WIDE, None, {"policy": "random", "seed": 1}),
    "simulate-wide-gc": ("run", SIMULATE_WIDE, None,
                         {"policy": "random", "seed": 1, "gc": True}),
    "check-arrays": ("check", CHECK_ARRAYS, None, {"seeds": 4}),
    **{f"{family}-{n}": ("run", family, n, {})
       for family, sizes in (("array-of-apps", (16, 64)), ("nested-apps", (16, 64)),
                             ("map-over-iota", (16, 64, 256, 1024)))
       for n in sizes},
    # the ``map-square-over-iota`` family, from its source text so that a
    # tree older than the family runs the same program
    **{f"map-square-over-iota-{n}": ("run", MAP_SQUARE.format(n=n), None, {})
       for n in (16, 64, 256)},
    "check-map-square-over-iota-64": ("check", MAP_SQUARE.format(n=64), None,
                                      {"seeds": 20}),
    "cost-map-square-over-iota-256": ("cost", MAP_SQUARE.format(n=256), None,
                                      {"seeds": 20}),
    "explore-small": ("explore", r"map ((\x. (x, x)), [3, 5])", None, {}),
    "map-inc": ("explore", BY_NAME["map-inc"].source, None, {"depth_bound": 10**9}),
    "concat-10k": ("explore", CONCAT, None, {"state_bound": 10_000, "depth_bound": 10**9}),
    "concat-100k": ("explore", CONCAT, None, {"state_bound": 100_000, "depth_bound": 10**9}),
}
# too slow for every comparison: run only when named with --program
ON_REQUEST = ("concat-100k",)

CHILD = r"""
import hashlib, json, resource, sys, time
from butfpi.butf.parse import parse
from butfpi.cli import dumps
from butfpi import correspondence, schedules
from butfpi.correspondence import check_program
from butfpi.cost import FAMILIES, measure
from butfpi.epi import engine
from butfpi.translate import translate

how, program, size, kwargs, warm = json.loads(sys.argv[1])
e = FAMILIES[program](size) if size is not None else parse(program)
started = time.perf_counter()
config = engine.normalize(translate(e, "o"))
normalize_s = time.perf_counter() - started

decide, decided = schedules._processes, []

def deciding(left, first_s):
    decided.append(decide(left, first_s))
    return decided[-1]

schedules._processes = deciding

def invoke():
    if how == "explore":
        terminals, bound_hit, states = engine.explore(config, **kwargs)
        return {"states": states, "terminals": len(terminals), "bound_hit": bound_hit}
    if how == "run":
        return engine.run(config, **kwargs)
    return (check_program if how == "check" else measure)(e, **kwargs)

def digest(result):
    return hashlib.sha256(json.dumps(result, sort_keys=True, indent=2).encode()).hexdigest()[:16]

def call():  # timed, forking as the tree decides
    decided.clear()
    started = time.perf_counter()
    report = invoke()
    seconds = time.perf_counter() - started
    if how == "explore":
        return {"seconds": seconds, "digest": digest(report)}
    close_s = None
    if how == "run":
        started = time.perf_counter()
        report.soup.config()
        close_s = time.perf_counter() - started
    started = time.perf_counter()
    result = report.to_dict()
    dumps(result)
    report_s = time.perf_counter() - started
    return {"seconds": seconds, "close_s": close_s, "report_s": report_s,
            "processes": None if how == "run" else max(decided, default=1),
            "digest": digest(result)}

def counting(owner, name, counts, key):
    plain = getattr(owner, name)

    def count(*args, **kw):
        counts[key] += 1
        return plain(*args, **kw)
    setattr(owner, name, count)

class CountingMemo(dict):
    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

def count_explore():
    calls = {"keys": 0, "successors": 0}
    counting(engine, "canonical_key", calls, "keys")
    counting(engine, "_entry_multiset", calls, "successors")
    memo, apply_redex = CountingMemo(), engine.apply_redex
    engine.apply_redex = lambda config, redex, _memo=None: apply_redex(config, redex, memo)
    result = invoke()
    keys, successors = calls["keys"], calls["successors"]
    counts = {"states": result["states"], "bound_hit": result["bound_hit"],
              "terminals": result["terminals"], "successors": successors,
              "skipped": successors - (keys - 1), "keys": keys,
              "closed": len(memo), "closings": memo.lookups}
    return counts, digest(result), {}

def count_run():
    calls = {"steps": 0, "peak_threads": 0, "rewrites": 0, "reads": 0}
    fire, read_back, readback_s = engine.LiveSoup.fire, correspondence.read_back, [0.0]

    def counting_fire(soup, redex, index):
        calls["steps"] += 1
        calls["peak_threads"] = max(calls["peak_threads"], len(soup.threads))
        step = fire(soup, redex, index)
        calls["peak_threads"] = max(calls["peak_threads"], len(soup.threads))
        return step

    def timed_read_back(*args, **kw):
        started = time.perf_counter()
        try:
            return read_back(*args, **kw)
        finally:
            readback_s[0] += time.perf_counter() - started

    engine.LiveSoup.fire = counting_fire
    correspondence.read_back = timed_read_back
    counting(engine, "rewrite", calls, "rewrites")
    counting(engine.LiveSoup, "ask", calls, "reads")
    report = invoke()
    calls["threads"] = len(report.soup.config().threads) if how == "run" else None
    return calls, digest(report.to_dict()), {"readback_s": readback_s[0]}

cold = call()
warm_calls = [call() for _ in range(warm)]
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
# untimed and forking nothing, so every step and read is counted
schedules._processes = lambda left, first_s: 1
counts, counted, extra = count_explore() if how == "explore" else count_run()
assert all(w["digest"] == counted for w in (cold, *warm_calls)), "a call differs"
print(json.dumps({
    **cold, **extra, "counts": counts, "normalize_s": normalize_s,
    "warm_seconds": [w["seconds"] for w in warm_calls],
    "processes": [w.get("processes") for w in (cold, *warm_calls)],
    "report_warm_s": min((w["report_s"] for w in warm_calls), default=None),
    "peak_rss_mb": peak_rss_mb,
}))
"""


# the warm calls each interpreter makes after its cold one
WARM = 5


def run_once(src: Path, name: str) -> dict:
    how = PROGRAMS[name][0]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = json.dumps([*PROGRAMS[name], 0 if how == "explore" else WARM])
    out = subprocess.run([sys.executable, "-c", CHILD, argv],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def program_row(name: str, results: list[dict]) -> dict:
    """The fields of one tree's row for ``name`` that its runs give."""
    first = results[0]
    counts = first["counts"]
    assert all(r["counts"] == counts and r["digest"] == first["digest"] for r in results), name
    how = PROGRAMS[name][0]
    peak_rss_mb = round(statistics.median(r["peak_rss_mb"] for r in results), 1)
    if how == "explore":
        seconds = [round(r["seconds"], 3) for r in results]
        return {**counts, "digest": first["digest"],
                "seconds_median": round(statistics.median(seconds), 3),
                "seconds": seconds, "peak_rss_mb": peak_rss_mb}
    steps, checked = counts["steps"], how == "check"
    us = [round(r["seconds"] / steps * 1e6, 1) for r in results]
    warm = [s / steps * 1e6 for r in results for s in r["warm_seconds"]]
    return {
        **{k: counts[k] for k in ("steps", "threads", "peak_threads", "rewrites")},
        "digest": first["digest"],
        "rewrites_per_step": round(counts["rewrites"] / steps, 3),
        "us_per_step_median": round(statistics.median(us), 1),
        "us_per_step": us,
        "warm_us_per_step_min": round(min(warm), 1),
        "warm_us_per_step_median": round(statistics.median(warm), 1),
        "seconds_median": round(statistics.median(r["seconds"] for r in results), 4),
        "normalize_s": round(statistics.median(r["normalize_s"] for r in results), 5),
        "close_s": (None if first["close_s"] is None else
                    round(statistics.median(r["close_s"] for r in results), 5)),
        "report_s": round(statistics.median(r["report_s"] for r in results), 5),
        "report_warm_s": round(min(r["report_warm_s"] for r in results), 5),
        "reads": counts["reads"] if checked else None,
        "readback_s": (round(statistics.median(r["readback_s"] for r in results), 5)
                       if checked else None),
        "processes": sorted({p for r in results for p in r["processes"]} - {None}) or None,
        "peak_rss_mb": peak_rss_mb,
    }


def tier1_rows(trees: list[tuple[str, Path]], repeat: int) -> list[dict]:
    """Wall seconds of each tree's own test suite (``pytest -q`` in the
    directory above its ``src``), ``repeat`` times, the trees alternating."""
    seconds: dict[str, list[float]] = {}
    summary: dict[str, str] = {}
    for _ in range(repeat):
        for label, src in trees:
            env = dict(os.environ, PYTHONPATH=str(src))
            started = time.perf_counter()
            out = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors"],
                cwd=src.parent, env=env, capture_output=True, text=True)
            seconds.setdefault(label, []).append(round(time.perf_counter() - started, 1))
            summary[label] = out.stdout.strip().splitlines()[-1]
            print(label, "tier1", seconds[label][-1], summary[label], file=sys.stderr)
    return [{"tree": label, "seconds": runs, "seconds_median": statistics.median(runs),
             "summary": summary[label]} for label, runs in seconds.items()]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC",
                    help="a label and the src directory to import butfpi from")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--program", action="append", choices=list(PROGRAMS),
                    help=f"the programs to run (default: all but {', '.join(ON_REQUEST)})")
    ap.add_argument("--no-programs", dest="program", action="store_const", const=[],
                    help="run no program, only --tier1")
    ap.add_argument("--tier1", type=int, default=0, metavar="N",
                    help="also time each tree's test suite N times")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    trees = [(label, Path(src).resolve())
             for label, src in (t.split("=", 1) for t in args.tree)]
    names = (args.program if args.program is not None
             else [name for name in PROGRAMS if name not in ON_REQUEST])

    runs: dict[tuple[str, str], list[dict]] = {}
    for name in names:
        for _ in range(args.repeat):
            for label, src in trees:
                result = run_once(src, name)
                runs.setdefault((label, name), []).append(result)
                print(label, name, json.dumps(result), file=sys.stderr)

    rows = []
    for (label, name), results in runs.items():
        how, program, size, kwargs = PROGRAMS[name]
        rows.append({"tree": label, "program": name, "how": how,
                     "source": program if size is None else f"{program} n={size}",
                     "args": kwargs, **program_row(name, results)})
    digests = {}
    for row in rows:
        digests.setdefault(row["program"], set()).add(row["digest"])
    differ = sorted(name for name, seen in digests.items() if len(seen) > 1)
    report = {
        "harness": "bench/run_bench.py",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "repeat": args.repeat,
        "warm": WARM,
        "outputs_differ": differ,
        "rows": rows,
        "tier1": tier1_rows(trees, args.tier1),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    print(text, end="")
    if differ:
        print(f"outputs differ between trees: {', '.join(differ)}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
