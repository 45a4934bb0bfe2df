"""Per-layer tracing from outside the program.

``Tracer`` wraps each layer's public function at every module binding that
callers look it up through (``run`` is bound in ``butfpi.epi.engine``,
``butfpi.correspondence``, ``butfpi.cost``, ``butfpi.cli`` and the
``butfpi.epi`` package), so calls the engine makes internally are caught
too.  Each call is a span; a span's self time is its duration minus the
time of the traced spans it encloses.  Counts are taken at the same
boundaries from arguments and return values.  Leaving the ``with`` block
restores every binding, and ``restored()`` confirms it.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns

# metric prefix -> (module that defines the function, function name)
LAYERS = {
    "butf.parse.parse": ("butfpi.butf.parse", "parse"),
    "butf.eval.eval_expr": ("butfpi.butf.eval", "eval_expr"),
    "translate.translate": ("butfpi.translate", "translate"),
    "epi.engine.normalize": ("butfpi.epi.engine", "normalize"),
    "epi.engine.run": ("butfpi.epi.engine", "run"),
    "epi.engine.enabled_redexes": ("butfpi.epi.engine", "enabled_redexes"),
    "epi.engine.apply_redex": ("butfpi.epi.engine", "apply_redex"),
    "epi.engine.barbs": ("butfpi.epi.engine", "barbs"),
    "epi.engine.insert_process": ("butfpi.epi.engine", "insert_process"),
    "epi.engine.canonical_key": ("butfpi.epi.engine", "canonical_key"),
    "epi.engine.explore": ("butfpi.epi.engine", "explore"),
    "correspondence.read_back": ("butfpi.correspondence", "read_back"),
    "cli.dispatch": ("butfpi.cli", "dispatch"),
}

COUNTERS = (
    "run.steps", "run.peak_threads", "threads_scanned", "redexes",
    "explore.states", "probes", "probe_steps",
)


class Tracer:
    def __init__(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.total_ns = dict.fromkeys(LAYERS, 0)
        self.child_ns = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.explore_states: list[int] = []  # one entry per explore call
        self._stack: list[list[int]] = []  # open spans: [ns of traced children]
        self._open = dict.fromkeys(LAYERS, 0)  # open spans per layer
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ binding

    def __enter__(self) -> Tracer:
        wrappers = {}  # id of an original -> (original, its wrapper)
        for layer, (modname, fname) in LAYERS.items():
            original = getattr(importlib.import_module(modname), fname)
            wrappers[id(original)] = (original, self._wrap(layer, original))
        for modname, module in list(sys.modules.items()):
            if modname != "butfpi" and not modname.startswith("butfpi."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)

    def restored(self) -> bool:
        """Whether every binding the tracer replaced holds its original again."""
        return all(vars(module)[attr] is original
                   for module, attr, original in self._patched)

    def bindings(self) -> int:
        return len(self._patched)

    # -------------------------------------------------------------- spans

    def _wrap(self, layer: str, fn):
        stack = self._stack
        open_spans = self._open

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            open_spans[layer] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                open_spans[layer] -= 1
                if stack:
                    stack[-1][0] += elapsed
                self.calls[layer] += 1
                self.total_ns[layer] += elapsed
                self.child_ns[layer] += frame[0]
            self._observe(layer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, layer: str, args: tuple, result) -> None:
        counts = self.counts
        if layer == "epi.engine.enabled_redexes":
            threads = len(args[0].threads)
            counts["threads_scanned"] += threads
            counts["redexes"] += len(result[0])
            if self._open["epi.engine.run"]:
                counts["run.peak_threads"] = max(counts["run.peak_threads"], threads)
        elif layer == "epi.engine.run":
            steps = len(result.steps)
            counts["run.steps"] += steps
            if self._open["correspondence.read_back"]:
                counts["probes"] += 1
                counts["probe_steps"] += steps
        elif layer == "epi.engine.explore":
            counts["explore.states"] += result[2]
            self.explore_states.append(result[2])

    # ------------------------------------------------------------ metrics

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per op where the value is a total."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer] / ops, "calls/op")
            self_ns = self.total_ns[layer] - self.child_ns[layer]
            out[f"{layer}.self_s"] = (self_ns / 1e9 / ops, "s/op")
        c = self.counts
        run_ns = self.total_ns["epi.engine.run"]
        keys = self.calls["epi.engine.canonical_key"]
        out.update({
            "epi.engine.run.steps": (c["run.steps"] / ops, "steps/op"),
            "epi.engine.run.peak_threads": (c["run.peak_threads"], "threads"),
            "epi.engine.run.us_per_step": (
                run_ns / 1e3 / c["run.steps"] if c["run.steps"] else 0.0, "us/step"),
            "epi.engine.enabled_redexes.threads_scanned": (
                c["threads_scanned"] / ops, "threads/op"),
            "epi.engine.enabled_redexes.redexes": (c["redexes"] / ops, "redexes/op"),
            "epi.engine.fired_share": (
                self.calls["epi.engine.apply_redex"] / c["redexes"]
                if c["redexes"] else 0.0, "share"),
            "epi.engine.explore.states": (c["explore.states"] / ops, "states/op"),
            "epi.engine.canonical_key.new_share": (
                c["explore.states"] / keys if keys else 0.0, "share"),
            "correspondence.read_back.probes": (c["probes"] / ops, "probes/op"),
            "correspondence.read_back.probe_steps": (c["probe_steps"] / ops, "steps/op"),
        })
        return out
