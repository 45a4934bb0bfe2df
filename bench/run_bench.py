"""Time ``run`` per step on a set of programs, for one or more source trees.

    python bench/run_bench.py --tree change=src --tree parent=OTHER/src \
        --repeat 7 --out BENCH_23.json

Each run is a fresh interpreter that imports ``butfpi`` from the given
``src`` directory.  It translates and normalizes the program, timed as
``normalize_s`` (a cold pass: it makes the first walks of the template
nodes, which the cold call would otherwise pay; a ``check`` program's
call translates and normalizes again, on nodes of its own).  It then
times one cold call with ``perf_counter`` followed by ``WARM`` (5) more
calls of the same kind: ``run`` for a ``run`` program (``gc`` as the row
says), ``check_program`` for a ``check`` program (its seeded runs and
every read-back).  The cold call pays each template's first walks
that normalizing did not make; the warm calls show the cost per step
alone, and their spread is far smaller than the cold calls' on a shared
host.  Closing a ``run``'s final soup into a ``Config``
(``trace.soup.config()``, one ``rewrite`` per thread the soup holds
open) is timed apart as ``close_s``, and so is the report: ``report_s``
is ``to_dict()`` of the trace (or of the ``check`` report) plus
``cli.dumps`` of it, the JSON that ``simulate`` (or ``check``) prints,
after the cold call, and ``report_warm_s`` is its least over one report
per warm call.  A ``check`` row also gives the handle reads of one call,
``reads`` (``LiveSoup.ask`` calls; on a tree that reads back by running
a probe per handle, ``_Prober.ask`` calls, and the steps those probes
fire are among the steps counted), and the seconds spent in
``read_back``: ``readback_s`` is the median over
the cold calls and ``readback_warm_s`` the least over the warm calls;
a ``run`` row, which reads nothing back, has null there.  A row gives
the steps fired (``LiveSoup.fire`` calls),
the threads left at the end of a ``run`` (null for a ``check``, which
runs many soups), ``peak_threads``, the most threads a soup held just
before or just after a step it fired in the cold call (with ``gc``, what
the collections let the soup grow to), the microseconds per step of each
run's cold call and their median, the least and the median over every warm call
(``warm_us_per_step_min`` and ``_median``), the median ``normalize_s``,
``close_s`` and ``report_s``, the ``rewrite`` calls the engine made per
step (closing included), the peak RSS of the run (``ru_maxrss``) and a
digest of what the call returned (the ``simulate`` JSON of a ``run``, the
``check`` JSON of a ``check``), which must be the same for every tree and
for every call; the script exits 1 when it is not.  Runs of the trees
alternate, so a drift in the host's speed falls on all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
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
}

CHILD = r"""
import hashlib, json, resource, sys, time
from butfpi.butf.parse import parse
from butfpi.cli import dumps
from butfpi import correspondence
from butfpi.correspondence import check_program
from butfpi.cost import FAMILIES
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

def call():
    counts.update(fire=0, peak_threads=0, rewrite=0, reads=0, readback_s=0.0)
    started = time.perf_counter()
    if how == "run":
        report = engine.run(config, **kwargs)
    else:
        report = check_program(e, **kwargs)
    seconds = time.perf_counter() - started
    close_s = threads = None
    if how == "run":
        started = time.perf_counter()
        threads = len(report.soup.config().threads)
        close_s = time.perf_counter() - started
    started = time.perf_counter()
    result = report.to_dict()
    dumps(result)
    report_s = time.perf_counter() - started
    text = json.dumps(result, sort_keys=True, indent=2)
    return {"steps": counts["fire"], "threads": threads,
            "peak_threads": counts["peak_threads"], "rewrites": counts["rewrite"],
            "reads": counts["reads"], "seconds": seconds,
            "readback_s": counts["readback_s"], "close_s": close_s, "report_s": report_s,
            "digest": hashlib.sha256(text.encode()).hexdigest()[:16]}

cold = call()
warm_calls = [call() for _ in range(warm)]
fixed = ("steps", "threads", "peak_threads", "rewrites", "reads", "digest")
assert all(w[k] == cold[k] for w in warm_calls for k in fixed), "a warm call differs"
print(json.dumps({
    **cold, "normalize_s": normalize_s, "warm_seconds": [w["seconds"] for w in warm_calls],
    "report_warm_s": min(w["report_s"] for w in warm_calls),
    "readback_warm_s": min(w["readback_s"] for w in warm_calls),
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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC",
                    help="a label and the src directory to import butfpi from")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--program", action="append", choices=list(PROGRAMS))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    trees = [(label, Path(src).resolve())
             for label, src in (t.split("=", 1) for t in args.tree)]
    names = args.program or list(PROGRAMS)

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
            "readback_warm_s": (round(min(r["readback_warm_s"] for r in results), 5)
                                if checked else None),
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
