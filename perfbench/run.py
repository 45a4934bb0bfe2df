"""The butfpi benchmark: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: simulate-wide, check-arrays, explore-small (see workloads.py and
BENCHMARK.json for why each exists).  An op is one in-process
``butfpi.cli.dispatch(argv)`` call with stdout captured; one client runs ops
back to back (closed loop) in a fresh interpreter started by this script.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
several interpreter starts of the time from spawn until imports and input
generation are done), ``ops_per_kref``, ``op_p50_ref``, ``op_tail_ref`` and
``peak_rss_mb``.  Op latencies are given in units of a fixed slice of
reference work timed between ops (see worker.py), because the host's speed
drifts; the same figures in seconds are in the details line.
``--trace 1`` runs the op sequence untraced, then the same ops again in a
second fresh interpreter with every layer wrapped (see tracer.py), and
reports the per-layer metrics plus ``trace_overhead_s``.  The line before
the result gives details: sample counts, the tail's percentile,
``fail_share``, latencies in seconds, per-op ``explore`` state counts and a
SHA-256 of the concatenated stdout of the first ops, equal in both modes
for a seed.

Exits 1 without a result if a worker cannot start, crashes or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 5  # interpreter starts per run; setup_s is their median
DIGEST_OPS = 10  # ops covered by the reported output digest
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
TRACE_SHARE = 0.4  # share of --seconds the untraced half of a traced run gets
HARD_LIMIT_S = 170.0


class WorkerFailed(Exception):
    pass


class Worker:
    """A worker interpreter whose stdout is read line by line against a deadline."""

    def __init__(self, workload: str, seed: int, *extra: str):
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), *extra],
            cwd=ROOT, stdout=subprocess.PIPE)
        self._buf = b""

    def line(self, deadline: float) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - monotonic()
            if left <= 0:
                raise WorkerFailed("worker overran the time limit")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise WorkerFailed(f"worker exited early (code {self.proc.wait()})")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def ready(self, deadline: float) -> float:
        """Seconds from spawn until the worker is ready for its first op."""
        if self.line(deadline) != "ready":
            raise WorkerFailed("worker did not report ready")
        return perf_counter() - self.started

    def result(self, deadline: float) -> dict:
        data = json.loads(self.line(deadline))
        code = self.proc.wait(timeout=max(deadline - monotonic(), 0.1))
        if code != 0:
            raise WorkerFailed(f"worker exited with code {code}")
        return data

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_worker(deadline: float, workload: str, seed: int, *extra: str
               ) -> tuple[float, dict]:
    """Run one worker to its end; returns (set-up seconds, its result)."""
    worker = Worker(workload, seed, *extra)
    try:
        return worker.ready(deadline), worker.result(deadline)
    finally:
        worker.close()


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def in_references(res: dict) -> list[float]:
    """Each op's latency over the median of the four reference times nearest
    it, two either side (fewer at the ends of the run).

    One reference slice is short, so an interruption can inflate it; the
    median of its neighbours tracks the host's speed at the op without
    following single interruptions.
    """
    refs = res["references_s"]
    return [lat / statistics.median(refs[max(i - 1, 0):i + 3])
            for i, lat in enumerate(res["latencies_s"])]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(args, deadline: float) -> tuple[dict, dict]:
    # Half the set-up samples come before the timed worker and half after,
    # so their median spans the run and not one moment of the host's speed.
    def setup_only() -> float:
        return run_worker(deadline, args.workload, args.seed, "--setup-only")[0]
    setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    setup, res = run_worker(deadline, args.workload, args.seed,
                            "--seconds", str(args.seconds),
                            "--min-ops", str(TAIL_BEYOND + 1))
    setups.append(setup)
    setups += [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    lat = res["latencies_s"]
    rel = in_references(res)
    pct, tail_rel = tail(rel)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_kref": metric(1000 * len(rel) / sum(rel), "1/kref"),
        "op_p50_ref": metric(statistics.median(rel), "ref"),
        "op_tail_ref": metric(tail_rel, "ref"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MiB"),
    }
    detail = {
        "setup_samples_s": setups,
        "tail_percentile": pct,
        "tail_samples_beyond": TAIL_BEYOND,
        "samples": len(lat),
        "ops_per_s": len(lat) / res["op_time_s"],
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail(lat)[1],
        "reference_p50_s": statistics.median(res["references_s"]),
    }
    return res, {"metrics": metrics, "detail": detail, "attempted": len(lat),
                 "failures": res["failures"], "correct": True}


def traced(args, deadline: float) -> tuple[dict, dict]:
    _, plain = run_worker(deadline, args.workload, args.seed,
                          "--seconds", str(args.seconds * TRACE_SHARE),
                          "--min-ops", str(DIGEST_OPS))
    n = len(plain["latencies_s"])
    _, res = run_worker(deadline, args.workload, args.seed,
                        "--ops", str(n), "--trace", "1")
    metrics = {name: metric(value, unit) for name, (value, unit) in res["layers"].items()}
    overhead = res["op_time_s"] - plain["op_time_s"]
    metrics["trace_overhead_s"] = metric(overhead, "s")
    same_output = res["prefix_digests"] == plain["prefix_digests"]
    same_states = res["traced_explore_states"] == plain["explore_states"]
    detail = {
        "samples": n,
        "traced_op_time_s": res["op_time_s"],
        "untraced_op_time_s": plain["op_time_s"],
        "bindings_wrapped": res["bindings_wrapped"],
        "bindings_restored": res["bindings_restored"],
        "traced_output_equal": same_output,
        "traced_states_equal": same_states,
    }
    correct = res["bindings_restored"] and same_output and same_states
    return plain, {"metrics": metrics, "detail": detail, "attempted": 2 * n,
                   "failures": plain["failures"] + res["failures"], "correct": correct}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = monotonic() + HARD_LIMIT_S
    try:
        plain, out = (traced if args.trace else untraced)(args, deadline)
    except (WorkerFailed, subprocess.TimeoutExpired, json.JSONDecodeError,
            KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    failed = len(out["failures"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **out["detail"],
        "fail_share": failed / out["attempted"],
        "failures": out["failures"][:20],
        "digest_ops": DIGEST_OPS,
        "digest": plain["prefix_digests"][DIGEST_OPS - 1],
        "explore_states": plain["explore_states"],
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": out["correct"] and failed == 0,
                      "attempted": out["attempted"], "failed": failed,
                      "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
