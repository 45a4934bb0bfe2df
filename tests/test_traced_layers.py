"""The benchmark's tracer wraps functions of ``src/`` by module and name.

A rename or deletion of one of them would crash every traced benchmark run,
so this checks that each entry of the tracer's ``LAYERS`` table resolves.
The tracer module is loaded from its file and not executed as a benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves_to_a_callable():
    layers = _layers()
    assert layers
    for layer, (modname, fname) in layers.items():
        target = getattr(importlib.import_module(modname), fname, None)
        assert callable(target), f"{layer}: {modname}.{fname} is not callable"
