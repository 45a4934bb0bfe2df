"""Running a program both ways and reconciling values and step counts.

A translated program is reduced to quiescence, the delivered result is
decoded back into a first-order value through the handle protocols
(``h.len``, ``h.i``, ``h.tup``), and the important-step total is compared
against the source evaluator's reduction count.

Decoding reads the soup the program's run left (``Trace.soup``) off its
send queues (``LiveSoup.ask``): each handle read takes what an
administrative probe receiver would have received there, so decoding
never consumes a bullet, and important steps measure the program, not
the observer.  No probe is built or run, no ``Config`` is built and no
thread is closed to decode.

Accounting follows the translation's one documented blind spot: a map
invokes its function once on a dummy argument without reading the result,
so each map firing contributes the bullets of evaluating the mapped body
on ``0``.  That penalty is measured separately (one application of the
recorded function to ``0``) and subtracted in the adjusted comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from butfpi.butf.eval import Diverged, EvalResult, Stuck, eval_expr
from butfpi.butf.pretty import pretty
from butfpi.butf.syntax import App, Array, Builtin, Expr, Lam, Num, Tup
from butfpi.epi.engine import (
    Config,
    LiveSoup,
    barbs,
    explore,
    normalize,
    run,
)
from butfpi.epi.syntax import NameT, NumT, Term, TermError, eval_term
from butfpi.schedules import run_schedules
from butfpi.translate import TranslationOptions, translate


# ------------------------------------------------------------- read-back

@dataclass(frozen=True)
class NumRB:
    value: int


@dataclass(frozen=True)
class ArrayRB:
    items: tuple["ReadBack", ...]


@dataclass(frozen=True)
class TupleRB:
    items: tuple["ReadBack", ...]


@dataclass(frozen=True)
class FunctionOpaque:
    handle: str


@dataclass(frozen=True)
class Incomplete:
    channel: str  # the handle read that found nothing or disagreed


ReadBack = Union[NumRB, ArrayRB, TupleRB, FunctionOpaque, Incomplete]


def render_readback(r: ReadBack) -> str:
    match r:
        case NumRB(v):
            return str(v)
        case ArrayRB(items):
            return "[" + ", ".join(render_readback(x) for x in items) + "]"
        case TupleRB(items):
            if len(items) == 1:
                return f"({render_readback(items[0])},)"
            return "(" + ", ".join(render_readback(x) for x in items) + ")"
        case FunctionOpaque(h):
            return f"<function {h}>"
        case Incomplete(ch):
            return f"<incomplete: {ch}>"
    raise TypeError(r)


def read_back(soup: LiveSoup, result: Term, shape: Expr) -> ReadBack:
    """Decode ``result`` against the expected value ``shape``.

    The shape comes from the source-side oracle: it names the protocol to
    read each handle through and, as the tuple channel is polyadic, how
    many values a tuple read takes.  Each handle is read off ``soup``'s
    send queues with ``LiveSoup.ask``, which consumes the non-replicated
    sends it reads.
    """
    return _decode(soup, result, shape)


def read_output(soup: LiveSoup, shape: Expr | None) -> ReadBack | None:
    """Decode what a quiesced soup delivers on ``o``; None if it delivers
    nothing.  The soup is read, and so changed, in place."""
    sent = soup.sent(("o", None))
    if sent is None:
        return None
    return read_back(soup, sent[0], shape)


def _decode(reader, result: Term, shape: Expr) -> ReadBack:
    """Decode ``result`` against ``shape``, asking ``reader.ask(handle,
    suffix, arity)`` for what each handle serves (a ``LiveSoup``, or the
    closed-probe oracle of the tests)."""
    try:
        value = eval_term(result)
    except TermError as exc:
        return Incomplete(f"result term: {exc}")
    match shape:
        case Num():
            if isinstance(value, NameT):
                return Incomplete(f"{value.name}: expected a number, got a handle")
            return NumRB(value.value)
        case Lam() | Builtin():
            if isinstance(value, NameT):
                return FunctionOpaque(value.name)
            return Incomplete("expected a function handle")
        case Array(items):
            if not isinstance(value, NameT):
                return Incomplete("expected an array handle")
            h = value.name
            got = reader.ask(h, "len", 1)
            if got is None:
                return Incomplete(f"{h}.len")
            n = eval_term(got[0])
            if type(n) is not NumT:
                return Incomplete(f"{h}.len: expected a number, got a handle")
            if n.value != len(items):
                return Incomplete(f"{h}.len reported {n.value}, expected {len(items)}")
            elements = []
            for i, item_shape in enumerate(items):
                got = reader.ask(h, i, 2)  # (index, element)
                if got is None:
                    return Incomplete(f"{h}.{i}")
                elements.append(_decode(reader, got[1], item_shape))
            return ArrayRB(tuple(elements))
        case Tup(items):
            if not isinstance(value, NameT):
                return Incomplete("expected a tuple handle")
            h = value.name
            got = reader.ask(h, "tup", len(items))
            if got is None:
                return Incomplete(f"{h}.tup")
            return TupleRB(tuple(
                _decode(reader, t, item_shape) for t, item_shape in zip(got, items)))
    return Incomplete(f"unsupported shape {type(shape).__name__}")


def value_equal(v: Expr, r: ReadBack) -> bool:
    """Structural equality of a source value and a decoded process value."""
    match v, r:
        case Num(a), NumRB(b):
            return a == b
        case Array(items), ArrayRB(rbs):
            return len(items) == len(rbs) and all(
                value_equal(x, y) for x, y in zip(items, rbs))
        case Tup(items), TupleRB(rbs):
            return len(items) == len(rbs) and all(
                value_equal(x, y) for x, y in zip(items, rbs))
        case (Lam() | Builtin()), FunctionOpaque():
            return True
        case _:
            return False


# ------------------------------------------------------------- simulation

@dataclass
class RunReport:
    readback: ReadBack | None
    important_steps: int
    status: str  # ok | stuck-in-process | timeout | fault


def simulate_to_result(e: Expr, policy: str = "priority", seed: int = 0,
                       budget: int = 200_000,
                       opts: TranslationOptions | None = None,
                       shape: Expr | None = None,
                       config: Config | None = None) -> RunReport:
    """Translate, reduce to quiescence, and decode the delivered value.

    The run is not stopped at the first observable output: concurrent
    housekeeping (for example a map's dummy call) still fires, which keeps
    the important-step total schedule-independent.  Reading back afterwards
    fires nothing, and reads the run's own soup in place; the report keeps
    the value and counts, not the soup.  ``config``, when
    given, is ``e``'s normalized translation under ``opts``, so runs of one
    program can share it.
    """
    if shape is None:
        oracle = eval_expr(e)
        shape = oracle.value if isinstance(oracle, EvalResult) else None
    if config is None:
        config = normalize(translate(e, "o", opts))
    trace = run(config, policy=policy, seed=seed, budget=budget)
    important = trace.work
    if trace.status in ("timeout", "fault"):
        return RunReport(None, important, trace.status)
    value = read_output(trace.soup, shape)
    if value is None:
        return RunReport(None, important, "stuck-in-process")
    return RunReport(value, important, "ok")


def dummy_call_penalty(fn: Lam, opts: TranslationOptions | None = None,
                       budget: int = 200_000) -> int:
    """Important steps a map's dummy application of ``fn`` to ``0`` contributes.

    Measured by running ``fn 0``'s translation and discounting the
    application's own bullet, which the dummy call does not carry.  Its
    value is never read.
    """
    trace = run(normalize(translate(App(fn, Num(0)), "o", opts)), policy="priority",
                budget=budget)
    return max(trace.work - 1, 0)


# ------------------------------------------------------ program checking

@dataclass
class CorrespondenceReport:
    program: str
    mode: str
    status: str  # ok | value-mismatch | count-mismatch | oracle-stuck | oracle-diverged | process-error
    butf_steps: int | None = None
    butf_value: str | None = None
    important_per_run: dict[str, int] = field(default_factory=dict)
    important_min: int | None = None
    important_max: int | None = None
    adjusted_min: int | None = None
    adjusted_max: int | None = None
    dummy_penalty: int = 0
    expected_deficit: int = 0  # size/iota firings uncounted in paper-literal mode
    value_match: bool = False
    seeds_run: int = 0
    deviations: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "mode": self.mode,
            "status": self.status,
            "butf_steps": self.butf_steps,
            "butf_value": self.butf_value,
            "important": {
                "min": self.important_min,
                "max": self.important_max,
                "per_run": dict(sorted(self.important_per_run.items())),
            },
            "adjusted": {"min": self.adjusted_min, "max": self.adjusted_max},
            "dummy_penalty": self.dummy_penalty,
            "expected_deficit": self.expected_deficit,
            "value_match": self.value_match,
            "seeds_run": self.seeds_run,
            "deviations": list(self.deviations),
        }


def check_program(e: Expr, seeds: int = 20, budget: int = 200_000,
                  opts: TranslationOptions | None = None,
                  fuel: int = 1_000_000) -> CorrespondenceReport:
    """Evaluate ``e`` both ways and reconcile values and step counts.

    The translation is normalized once and run, then read back, under the
    priority schedule and ``seeds`` seeded random ones
    (``schedules.run_schedules``, which may run the seeded ones in forked
    processes when the priority run shows it pays; the report is the same
    either way).  The map dummy calls are measured first, here.
    """
    opts = opts or TranslationOptions()
    mode = "strict" if opts.strict_bullets else "paper-literal"
    report = CorrespondenceReport(program=pretty(e), mode=mode, status="ok")

    oracle = eval_expr(e, fuel=fuel)
    if isinstance(oracle, Stuck):
        report.status = "oracle-stuck"
        report.deviations.append(f"source evaluation stuck: {oracle.reason}")
        return report
    if isinstance(oracle, Diverged):
        report.status = "oracle-diverged"
        return report
    report.butf_steps = oracle.steps
    report.butf_value = pretty(oracle.value)
    report.expected_deficit = oracle.count("E-SIZE") + oracle.count("E-IOTA")

    penalty_cache: dict[Lam, int] = {}
    penalty = 0
    for fn in oracle.map_fns:
        if fn not in penalty_cache:
            penalty_cache[fn] = dummy_call_penalty(fn, opts, budget)
        penalty += penalty_cache[fn]
    report.dummy_penalty = penalty
    if penalty:
        report.deviations.append(
            f"map dummy calls contribute {penalty} bullets, subtracted in adjusted counts")
    if oracle.count("E-ARITH"):
        report.deviations.append(
            "arithmetic reduction rule and its single bullet are artifact-defined")
    if not opts.strict_bullets and report.expected_deficit:
        report.deviations.append(
            f"paper-literal mode: {report.expected_deficit} size/iota firings carry no bullet")

    config = normalize(translate(e, "o", opts))
    report.seeds_run = seeds

    def one(policy: str, seed: int) -> RunReport:
        # a report holds no soup: each run's soup is freed once read back
        return simulate_to_result(e, policy, seed, budget, opts, oracle.value,
                                  config=config)

    importants = []
    match_all = True
    for label, rr in run_schedules(one, seeds):
        report.important_per_run[label] = rr.important_steps
        if rr.status != "ok":
            report.status = "process-error"
            report.deviations.append(f"{label}: {rr.status}")
            match_all = False
            continue
        importants.append(rr.important_steps)
        if not value_equal(oracle.value, rr.readback):
            match_all = False
            report.deviations.append(
                f"{label}: read-back {render_readback(rr.readback)} != {report.butf_value}")
    report.value_match = match_all and report.status == "ok"
    if importants:
        report.important_min = min(importants)
        report.important_max = max(importants)
        report.adjusted_min = report.important_min - penalty
        report.adjusted_max = report.important_max - penalty
    if report.status == "ok" and not report.value_match:
        report.status = "value-mismatch"
    if report.status == "ok":
        target = report.butf_steps - (0 if opts.strict_bullets else report.expected_deficit)
        if not (report.adjusted_min == report.adjusted_max == target):
            report.status = "count-mismatch"
    return report


# --------------------------------------------------------- value barbs

def barb_before_important(e: Expr, policy: str = "priority", seed: int = 0,
                          budget: int = 200_000,
                          opts: TranslationOptions | None = None) -> bool:
    """Along one schedule: does the output barb appear before any important step?

    Runs with a stop-at-barb scheduler; the barb appearing with zero
    important steps fired is exactly the value-side of the barb lemma, per
    trace rather than per state space.
    """
    config = normalize(translate(e, "o", opts))
    trace = run(config, policy=policy, seed=seed, budget=budget, stop_barb="o")
    return trace.status == "barb" and trace.work == 0


def check_value_barb(e: Expr, opts: TranslationOptions | None = None,
                     state_bound: int = 20_000) -> bool | None:
    """Whether the translation reaches an output barb by administrative steps only.

    Mirrors the source value predicate: values gather without bullets;
    anything needing work hits a bullet first.  Searches the administrative
    fragment of the state space exhaustively; ``None`` means the search
    bound was exhausted (large programs -- fall back to per-trace checks).
    """
    start = normalize(translate(e, "o", opts))
    terminals, bound_hit, _states = explore(start, state_bound, admin_only=True,
                                            stop_barb="o")
    if any(("o", "out") in barbs(t) for t in terminals):
        return True
    return None if bound_hit else False
