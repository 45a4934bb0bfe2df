"""One workload run in a fresh interpreter: set up, run ops, report.

Started by ``run.py``; prints ``ready`` once imports and input generation
are done, then one JSON line with the run's results.  The interpreter is
fresh for every run because the engine's process-wide ``_INTERN`` and
``_SKELETONS`` tables make ``explore`` state counts depend on what the
process explored before; a fresh process and a fixed op order make every
count and every output byte a function of the seed alone.

A fixed slice of reference work is timed between consecutive ops, so each
op's latency can also be given in units of the reference time around it
(see ``reference_work``).

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--ops K] [--min-ops D] [--trace 0|1] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import butfpi  # noqa: E402
import butfpi.cli  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

# About 10 ms of work on a 2-core x86 VM: a few percent of a run's time.
REFERENCE_ITERATIONS = 20_000
_REFERENCE_TABLE = {(i % 97, i % 89): i for i in range(97 * 89)}


def _emit(obj) -> None:
    sys.stdout.write((obj if isinstance(obj, str) else json.dumps(obj)) + "\n")
    sys.stdout.flush()


def reference_work() -> int:
    """A fixed slice of pure-Python work of the engine's kind: tuple keys,
    dict lookups, small calls.  It reads a table built once and allocates
    nothing that outlives an iteration, so the program's heap cannot slow it.

    On a shared VM the host's speed drifts: on a 2-core x86 VM a plain loop
    and an engine op both ran up to twice as slow in one 30 s window as in
    another.  The drift slows this slice and the engine alike, so an op's
    latency over the reference time measured next to it varies far less
    than its latency in seconds.
    """
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += _REFERENCE_TABLE[(i % 97, i % 89)] ^ _mix(i)
    return total


def _mix(i: int) -> int:
    return i * i % 7


def _timed_reference() -> float:
    """Seconds ``reference_work`` takes, with the cyclic collector off.

    Left on, the collector would run inside the slice now and then and scan
    the program's heap, so the reference would slow as the program grows.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        reference_work()
        return perf_counter() - t0
    finally:
        gc.enable()


def run_ops(workload: str, ops, seconds: float, min_ops: int,
            exact: int | None) -> dict:
    """Run ops back to back, one client, until time is up (or ``exact`` ops).

    ``references_s`` has one more entry than ``latencies_s``: the reference
    times before the first op, between each pair of ops and after the last.
    """
    check = WORKLOADS[workload].check
    latencies: list[float] = []
    references = [_timed_reference()]
    digest = hashlib.sha256()  # over the concatenated stdout of all ops so far
    prefix_digests: list[str] = []
    failures: list[str] = []
    explore_states: list[int] = []
    deadline = perf_counter() + seconds
    for i, op in enumerate(ops):
        if exact is not None:
            if i >= exact:
                break
        elif i >= min_ops and perf_counter() >= deadline:
            break
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = butfpi.cli.dispatch(list(op.argv))
            problem = None
        except Exception as exc:  # a crashing op is a failed op, never dropped
            rc, problem = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        references.append(_timed_reference())
        stdout = out.getvalue()
        if problem is None:
            problem = check(rc, stdout, op.expect)
        if problem is not None:
            failures.append(f"op {i}: {problem}")
        digest.update(stdout.encode())
        prefix_digests.append(digest.hexdigest())
        if workload == "explore-small" and problem is None:
            explore_states.append(json.loads(stdout)["states"])
    return {
        "op_time_s": sum(latencies),
        "latencies_s": latencies,
        "references_s": references,
        "prefix_digests": prefix_digests,
        "failures": failures,
        "explore_states": explore_states,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=None, help="run exactly this many ops")
    ap.add_argument("--min-ops", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not Path(butfpi.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"butfpi imported from {butfpi.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    ops = make_ops(args.workload, args.seed)
    _emit("ready")
    if args.setup_only:
        _emit({})
        return 0

    if args.trace:
        from tracer import Tracer
        with Tracer() as tracer:
            result = run_ops(args.workload, ops, args.seconds, args.min_ops, args.ops)
        ran = len(result["latencies_s"])
        result["layers"] = tracer.metrics(ran)
        result["traced_explore_states"] = tracer.explore_states
        result["bindings_wrapped"] = tracer.bindings()
        result["bindings_restored"] = tracer.restored()
    else:
        result = run_ops(args.workload, ops, args.seconds, args.min_ops, args.ops)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
