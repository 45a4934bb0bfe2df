"""Time ``run`` per step on a set of programs, for one or more source trees.

    python bench/run_bench.py --tree change=src --tree parent=OTHER/src \
        --repeat 7 --tier1 2 --out BENCH_24.json

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
is its least over one report per warm call.

A child process's steps and reads are not seen here, so the counts come
from one more call after the timed ones, untimed and forking nothing: the
steps fired (``LiveSoup.fire`` calls), the threads left at the end of a
``run`` (null for a ``check`` or ``cost``, which run many soups),
``peak_threads``, the most threads a soup held just before or just after
a step it fired (with ``gc``, what the collections let the soup grow to),
the ``rewrite`` calls the engine made per step (closing included), and
for a ``check`` row the handle reads, ``reads`` (``LiveSoup.ask`` calls;
on a tree that reads back by running a probe per handle, ``_Prober.ask``
calls, and the steps those probes fire are among the steps counted), and
the seconds spent in ``read_back`` in that call, ``readback_s`` (the
median over the interpreters); other rows have null there.  A row gives
the microseconds per step of each run's cold call and their median, the
least and the median over every warm call (``warm_us_per_step_min`` and
``_median``), the median ``normalize_s``, ``close_s`` and ``report_s``,
the peak RSS of the run (``ru_maxrss`` of the interpreter, not of its
forked children) and a digest of what the call returned (the
``simulate`` JSON of a ``run``, the ``check`` or ``cost`` JSON
otherwise), which must be the same for every tree and for every call;
the script exits 1 when it is not.  Runs of the trees alternate, so a
drift in the host's speed falls on all of them.

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

SIMULATE_WIDE = r"map ((\x. x * x + 7), iota 32)"
CHECK_ARRAYS = r"map ((\x. (x, x * x + 7)), iota 8)"
MAP_SQUARE = r"map ((\x. x * x + 1), iota {n})"

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
}

CHILD = r"""
import hashlib, json, resource, sys, time
from butfpi.butf.parse import parse
from butfpi.cli import dumps
from butfpi import correspondence
from butfpi.correspondence import check_program
from butfpi.cost import FAMILIES, measure
from butfpi.epi import engine
from butfpi.translate import translate

how, program, size, kwargs, warm = json.loads(sys.argv[1])
e = FAMILIES[program](size) if size is not None else parse(program)
counts = {"fire": 0, "peak_threads": 0, "rewrite": 0, "reads": 0, "readback_s": 0.0}
fire, rewrite = engine.LiveSoup.fire, engine.rewrite
# a tree older than the index reads asks each handle through a probe run
reader = engine.LiveSoup if hasattr(engine.LiveSoup, "ask") else correspondence._Prober
ask, read_back = reader.ask, correspondence.read_back

def counting_fire(soup, redex, index):
    counts["fire"] += 1
    counts["peak_threads"] = max(counts["peak_threads"], len(soup.threads))
    step = fire(soup, redex, index)
    counts["peak_threads"] = max(counts["peak_threads"], len(soup.threads))
    return step

def counting_rewrite(*args, **kw):
    counts["rewrite"] += 1
    return rewrite(*args, **kw)

def counting_ask(asked, *args):
    counts["reads"] += 1
    return ask(asked, *args)

def timed_read_back(*args, **kw):
    started = time.perf_counter()
    try:
        return read_back(*args, **kw)
    finally:
        counts["readback_s"] += time.perf_counter() - started

engine.LiveSoup.fire = counting_fire
reader.ask = counting_ask
correspondence.read_back = timed_read_back
started = time.perf_counter()
config = engine.normalize(translate(e, "o"))
normalize_s = time.perf_counter() - started
engine.rewrite = counting_rewrite

# a tree older than the forked schedules runs every schedule here
try:
    from butfpi import schedules
except ImportError:
    schedules = None
decide, decided = (schedules._processes if schedules else None), []

def deciding(left, first_s):
    decided.append(decide(left, first_s))
    return decided[-1]

def invoke():
    counts.update(fire=0, peak_threads=0, rewrite=0, reads=0, readback_s=0.0)
    if how == "run":
        return engine.run(config, **kwargs)
    return (check_program if how == "check" else measure)(e, **kwargs)

def digest(result):
    return hashlib.sha256(json.dumps(result, sort_keys=True, indent=2).encode()).hexdigest()[:16]

def call():  # timed, forking as the tree decides
    decided.clear()
    if schedules:
        schedules._processes = deciding
    started = time.perf_counter()
    report = invoke()
    seconds = time.perf_counter() - started
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

def count():  # untimed and forking nothing, so every step and read is counted
    if schedules:
        schedules._processes = lambda left, first_s: 1
    report = invoke()
    return {"steps": counts["fire"], "peak_threads": counts["peak_threads"],
            "threads": len(report.soup.config().threads) if how == "run" else None,
            "rewrites": counts["rewrite"], "reads": counts["reads"],
            "readback_s": counts["readback_s"], "digest": digest(report.to_dict())}

cold = call()
warm_calls = [call() for _ in range(warm)]
counted = count()
assert all(w["digest"] == counted["digest"] for w in (cold, *warm_calls)), "a call differs"
print(json.dumps({
    **cold, **counted, "normalize_s": normalize_s,
    "warm_seconds": [w["seconds"] for w in warm_calls],
    "processes": [w["processes"] for w in (cold, *warm_calls)],
    "report_warm_s": min(w["report_s"] for w in warm_calls),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


# the warm calls each interpreter makes after its cold one
WARM = 5


def run_once(src: Path, name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps([*PROGRAMS[name], WARM])],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


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
                    help="the programs to run (default: all)")
    ap.add_argument("--no-programs", dest="program", action="store_const", const=[],
                    help="run no program, only --tier1")
    ap.add_argument("--tier1", type=int, default=0, metavar="N",
                    help="also time each tree's test suite N times")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    trees = [(label, Path(src).resolve())
             for label, src in (t.split("=", 1) for t in args.tree)]
    names = args.program if args.program is not None else list(PROGRAMS)

    runs: dict[tuple[str, str], list[dict]] = {}
    for name in names:
        for _ in range(args.repeat):
            for label, src in trees:
                result = run_once(src, name)
                runs.setdefault((label, name), []).append(result)
                print(label, name, json.dumps(result), file=sys.stderr)

    rows = []
    for (label, name), results in runs.items():
        first = results[0]
        fixed = ("steps", "threads", "peak_threads", "rewrites", "digest")
        assert all(r[k] == first[k] for r in results for k in (*fixed, "reads")), (label, name)
        how, program, size, kwargs = PROGRAMS[name]
        checked = how == "check"
        us = [round(r["seconds"] / first["steps"] * 1e6, 1) for r in results]
        warm = [s / first["steps"] * 1e6 for r in results for s in r["warm_seconds"]]
        rows.append({
            "tree": label, "program": name, "how": how,
            "source": program if size is None else f"{program} n={size}",
            "args": kwargs, **{k: first[k] for k in fixed},
            "rewrites_per_step": round(first["rewrites"] / first["steps"], 3),
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
            "reads": first["reads"] if checked else None,
            "readback_s": (round(statistics.median(r["readback_s"] for r in results), 5)
                           if checked else None),
            "processes": sorted({p for r in results for p in r["processes"]} - {None})
                         or None,
            "peak_rss_mb": round(statistics.median(r["peak_rss_mb"] for r in results), 1),
        })
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
