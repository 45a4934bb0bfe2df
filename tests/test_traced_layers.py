"""The benchmark's tracer wraps functions of ``src/`` by module and name.

A rename or deletion of one of them would crash every traced benchmark run,
and so would a change to the results it counts from.  This checks that each
entry of the tracer's ``LAYERS`` table resolves, and that the calls whose
results it reads return what it reads.  The tracer module is loaded from its
file and not executed as a benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

from butfpi.butf.parse import parse
from butfpi.epi import engine
from butfpi.translate import translate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_callable():
    layers = _tracer().LAYERS
    assert layers
    for layer, (modname, fname) in layers.items():
        target = getattr(importlib.import_module(modname), fname, None)
        assert callable(target), f"{layer}: {modname}.{fname} is not callable"


def test_the_tracer_counts_what_the_traced_calls_return():
    # ``Tracer._observe`` reads ``len(run(...).steps)``, ``explore(...)[2]``,
    # ``enabled_redexes(c)[0]`` and the ``threads`` of that call's config
    config = engine.normalize(translate(parse(r"map ((\x. x + 1), [1, 2])"), "o"))
    tracer = _tracer().Tracer()
    with tracer:
        steps = len(engine.run(config).steps)
        redexes = len(engine.enabled_redexes(config)[0])
        states = engine.explore(config)[2]
    assert tracer.restored()
    assert steps and redexes and config.threads and states
    counts = tracer.counts
    assert counts["run.steps"] == steps
    assert counts["redexes"] == redexes
    assert counts["threads_scanned"] == len(config.threads)
    assert counts["explore.states"] == states
