"""The benchmark's workloads: op sequences made from a seed, and their checks.

An op is one ``butfpi.cli.dispatch(argv)`` call.  Each workload repeats a
single op shape with seed-chosen constants, so its latency distribution is
tight and run-to-run medians are comparable.  Every expectation below is
derived by hand from the program text; the process side is never used as an
oracle.  Each check returns ``None`` for a correct op or a one-line reason.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from dataclasses import dataclass

# The worker stops here even if time remains; no run comes close to it.
MAX_OPS = 1000


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect: dict


def _parse(stdout: str) -> dict | str:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"


# ----------------------------------------------------------- simulate-wide

SIM_N = 32


def _simulate_ops(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(MAX_OPS):
        c = rng.randrange(100)
        s = rng.randrange(1_000_000)
        argv = ("simulate", "-e", rf"map ((\x. x * x + {c}), iota {SIM_N})",
                "--policy", "random", "--seed", str(s), "--format", "json")
        # The source takes E-IOTA, E-MAP and two E-ARITH per element; the
        # translation adds the map's dummy call of the body at 0, two more
        # arithmetic bullets: 2n + 4 important steps.  The longest chain is
        # iota, map, multiply, add, so the span is 4.
        ops.append(Op(argv, {"work": 2 * SIM_N + 4, "span": 4}))
    return ops


def _simulate_check(rc: int, stdout: str, expect: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    data = _parse(stdout)
    if isinstance(data, str):
        return data
    if data.get("status") != "terminated":
        return f"status {data.get('status')!r}"
    if data.get("faults"):
        return f"faults {data['faults']!r}"
    for key in ("work", "span"):
        if data.get(key) != expect[key]:
            return f"{key} {data.get(key)!r}, expected {expect[key]}"
    return None


# ------------------------------------------------------------ check-arrays

CHECK_N = 8
CHECK_SEEDS = 4


def _check_ops(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(MAX_OPS):
        c = rng.randrange(100)
        argv = ("check", "-e", rf"map ((\x. (x, x * x + {c})), iota {CHECK_N})",
                "--seeds", str(CHECK_SEEDS), "--format", "json")
        value = "[" + ", ".join(f"({i}, {i * i + c})" for i in range(CHECK_N)) + "]"
        ops.append(Op(argv, {"butf_value": value, "seeds_run": CHECK_SEEDS}))
    return ops


def _check_check(rc: int, stdout: str, expect: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    data = _parse(stdout)
    if isinstance(data, str):
        return data
    if data.get("status") != "ok":
        return f"status {data.get('status')!r}"
    if data.get("value_match") is not True:
        return "value_match is not true"
    for key in ("butf_value", "seeds_run"):
        if data.get(key) != expect[key]:
            return f"{key} {data.get(key)!r}, expected {expect[key]!r}"
    return None


# ----------------------------------------------------------- explore-small

def _explore_ops(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(MAX_OPS):
        a, b = rng.randrange(100), rng.randrange(100)
        argv = ("explore", "-e", rf"map ((\x. (x, x)), [{a}, {b}])",
                "--format", "json")
        ops.append(Op(argv, {"value": f"[({a}, {a}), ({b}, {b})]"}))
    return ops


def _explore_check(rc: int, stdout: str, expect: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    data = _parse(stdout)
    if isinstance(data, str):
        return data
    if data.get("bound_hit") is not False:
        return f"bound_hit {data.get('bound_hit')!r}"
    if data.get("all_terminals_agree") is not True:
        return f"all_terminals_agree {data.get('all_terminals_agree')!r}"
    if data.get("value") != expect["value"]:
        return f"value {data.get('value')!r}, expected {expect['value']!r}"
    return None


@dataclass(frozen=True)
class Workload:
    make_ops: Callable[[random.Random], list[Op]]
    check: Callable[[int | None, str, dict], str | None]


WORKLOADS = {
    "simulate-wide": Workload(_simulate_ops, _simulate_check),
    "check-arrays": Workload(_check_ops, _check_check),
    "explore-small": Workload(_explore_ops, _explore_check),
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The op sequence of ``workload`` for ``seed``; equal seeds, equal ops."""
    return WORKLOADS[workload].make_ops(random.Random(f"{workload}/{seed}"))
