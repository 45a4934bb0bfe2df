"""Tests of the benchmark's own code.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import butfpi.cli  # noqa: E402
import butfpi.epi.engine  # noqa: E402
from run import in_references  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

SMALL = ["simulate", "-e", r"map ((\x. x * x + 1), iota 3)", "--policy", "random",
         "--seed", "4", "--format", "json"]


def _globals() -> dict:
    """Every global binding of every loaded butfpi module."""
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "butfpi" or name.startswith("butfpi.")
            for attr, value in vars(module).items()}


def _dispatch(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert butfpi.cli.dispatch(argv) == 0
    return out.getvalue()


def test_tracer_wraps_every_binding_and_restores_them():
    before = _globals()
    original_run = butfpi.epi.engine.run
    with Tracer() as tracer:
        assert butfpi.epi.engine.run is not original_run
        assert butfpi.cli.run is butfpi.epi.engine.run
        _dispatch(SMALL)
    assert tracer.restored()
    after = _globals()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    # run is bound in the engine, the epi package, correspondence, cost and cli
    assert tracer.bindings() >= len(LAYERS) + 4


def test_tracer_restores_bindings_when_the_body_raises():
    before = _globals()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    after = _globals()
    assert all(after[key] is value for key, value in before.items())


def test_traced_calls_include_engine_internal_calls():
    with Tracer() as tracer:
        _dispatch(SMALL)
    # run calls enabled_redexes and apply_redex through engine globals
    assert tracer.calls["epi.engine.run"] == 1
    assert tracer.calls["epi.engine.enabled_redexes"] == tracer.counts["run.steps"] + 1
    assert tracer.calls["epi.engine.apply_redex"] == tracer.counts["run.steps"]
    # every span nests inside the one dispatch span, so self times add up to it
    total = sum(tracer.total_ns[layer] - tracer.child_ns[layer] for layer in LAYERS)
    assert total == tracer.total_ns["cli.dispatch"]


def test_tracing_does_not_change_output():
    plain = _dispatch(SMALL)
    with Tracer():
        traced = _dispatch(SMALL)
    assert traced == plain


def test_same_seed_same_ops_and_checks_reject_wrong_output():
    for name, workload in WORKLOADS.items():
        ops = make_ops(name, 7)
        assert ops == make_ops(name, 7)
        assert ops != make_ops(name, 8)
        assert workload.check(1, "{}", ops[0].expect) == "exit code 1"
        assert workload.check(0, "not json", ops[0].expect).startswith("stdout is not JSON")
        assert workload.check(0, json.dumps({}), ops[0].expect) is not None


def test_latency_in_reference_units_uses_the_four_nearest_references():
    res = {"latencies_s": [1.0, 2.0, 3.0], "references_s": [0.1, 0.5, 0.1, 0.2]}
    # op 0 sees refs 0-2, op 1 refs 0-3, op 2 refs 1-3: the run's ends cut the window
    assert in_references(res) == pytest.approx([1.0 / 0.1, 2.0 / 0.15, 3.0 / 0.2])
