"""The bench harness on this tree: each kind of row reports the counts this
tree's engine gives, so a counting hook that no longer sees the call it
wraps (say, after a rename in the engine) reads as a failure, not as 0."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_run_bench_counts_explore_run_and_check_rows():
    argv = [sys.executable, str(ROOT / "bench" / "run_bench.py"),
            "--tree", f"head={ROOT / 'src'}", "--repeat", "1"]
    for name in ("explore-small", "simulate-wide", "check-arrays"):
        argv += ["--program", name]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["outputs_differ"] == []
    rows = {row["program"]: row for row in report["rows"]}
    explore = rows["explore-small"]
    assert {k: explore[k] for k in ("states", "successors", "skipped", "keys",
                                    "closed", "closings")} == {
        "states": 661, "successors": 1905, "skipped": 845, "keys": 1061,
        "closed": 89, "closings": 2613}
    assert (rows["simulate-wide"]["steps"], rows["simulate-wide"]["threads"]) == (698, 270)
    assert (rows["check-arrays"]["steps"], rows["check-arrays"]["reads"]) == (1077, 85)
