"""Time ``explore`` on three searches, for one or more source trees.

    python bench/explore_bench.py --tree change=src --tree parent=OTHER/src \
        --repeat 5 --out BENCH_10.json

Each run is a fresh interpreter that imports ``butfpi`` from the given
``src`` directory, translates and normalizes the program, then times one
``explore`` call with ``perf_counter``.  A row gives the states visited,
whether a bound was hit, the terminals found, the successors generated,
the successors skipped as duplicates without a key, the full keys computed
(calls of ``canonical_key``, the start state's included), the seconds of
each run and their median, and the peak RSS of the run (``ru_maxrss``).
For a tree whose ``apply_redex`` closes threads through a search's
``memo``, ``closed`` is the number of distinct (template, environment)
keys that memo holds at the end and ``closings`` the number of threads
closed through it, counted by a second, untimed search after the peak RSS
is read; they are null for other trees.
A tree without the pre-check (``_entry_multiset``) keys every successor.
``concat-100k`` (about 40 s and several hundred MB at 100 000 states) runs
only when asked for with ``--search``.
Runs of the trees alternate, so a drift in the host's speed falls on all
of them.
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

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from corpus import BY_NAME  # noqa: E402

# name -> (program, explore keyword arguments)
SEARCHES = {
    "explore-small": (r"map ((\x. (x, x)), [3, 5])", {}),
    "map-inc": (BY_NAME["map-inc"].source, {"depth_bound": 10**9}),
    "concat-10k": (BY_NAME["concat"].source, {"state_bound": 10_000, "depth_bound": 10**9}),
    "concat-100k": (BY_NAME["concat"].source, {"state_bound": 100_000, "depth_bound": 10**9}),
}

CHILD = r"""
import inspect, json, resource, sys, time
from butfpi.butf.parse import parse
from butfpi.epi import engine
from butfpi.translate import translate

source, kwargs = json.loads(sys.argv[1])
calls = {"canonical_key": 0, "_entry_multiset": 0}

def counting(name):
    plain = getattr(engine, name)

    def count(*args, **kw):
        calls[name] += 1
        return plain(*args, **kw)
    return count

pre_check = hasattr(engine, "_entry_multiset")
for name in calls if pre_check else ["canonical_key"]:
    setattr(engine, name, counting(name))
config = engine.normalize(translate(parse(source)))
started = time.perf_counter()
terminals, bound_hit, states = engine.explore(config, **kwargs)
seconds = time.perf_counter() - started
keys = calls["canonical_key"]
successors = calls["_entry_multiset"] if pre_check else keys - 1
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
closed = closings = None
if "memo" in inspect.signature(engine.apply_redex).parameters:
    # a second, untimed search through a memo that counts its lookups
    class CountingMemo(dict):
        lookups = 0

        def get(self, key, default=None):
            self.lookups += 1
            return super().get(key, default)

    memo, fire = CountingMemo(), engine.apply_redex
    engine.apply_redex = lambda config, redex, _memo=None: fire(config, redex, memo)
    engine.explore(engine.normalize(translate(parse(source))), **kwargs)
    closed, closings = len(memo), memo.lookups
print(json.dumps({
    "states": states, "bound_hit": bound_hit, "terminals": len(terminals),
    "successors": successors, "skipped": successors - (keys - 1), "keys": keys,
    "closed": closed, "closings": closings, "seconds": seconds,
    "peak_rss_mb": peak_rss_mb,
}))
"""


def run_once(src: Path, search: str) -> dict:
    source, kwargs = SEARCHES[search]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps([source, kwargs])],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC",
                    help="a label and the src directory to import butfpi from")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--search", action="append", choices=sorted(SEARCHES))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    trees = [(label, Path(src).resolve())
             for label, src in (t.split("=", 1) for t in args.tree)]
    searches = args.search or [s for s in SEARCHES if s != "concat-100k"]

    runs: dict[tuple[str, str], list[dict]] = {}
    for search in searches:
        for _ in range(args.repeat):
            for label, src in trees:
                result = run_once(src, search)
                runs.setdefault((label, search), []).append(result)
                print(label, search, json.dumps(result), file=sys.stderr)

    rows = []
    for (label, search), results in runs.items():
        first = results[0]
        fixed = ("states", "bound_hit", "terminals", "successors", "skipped", "keys",
                 "closed", "closings")
        assert all(r[k] == first[k] for r in results for k in fixed), (label, search)
        seconds = [round(r["seconds"], 3) for r in results]
        rows.append({
            "tree": label, "search": search, "program": SEARCHES[search][0].strip(),
            "explore_args": SEARCHES[search][1],
            **{k: first[k] for k in fixed},
            "seconds_median": round(statistics.median(seconds), 3),
            "seconds": seconds,
            "peak_rss_mb": round(statistics.median(r["peak_rss_mb"] for r in results), 1),
        })
    report = {
        "harness": "bench/explore_bench.py",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "repeat": args.repeat,
        "rows": rows,
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    print(text, end="")


if __name__ == "__main__":
    main()
