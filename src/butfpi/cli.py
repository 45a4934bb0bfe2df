"""Command-line interface.

Subcommands::

    run        evaluate a source program, printing value, steps, and a trace
    translate  emit the pi-calculus translation as process text
    simulate   reduce a translated program (or raw process text) with a trace
    check      correspondence report: value agreement and step accounting
    cost       work/span measurement
    scale      scaling families against their predicted shapes
    explore    exhaustive state-space search for small programs

Exit codes: 0 success (and checks passed), 1 a check failed, 2 usage or
parse errors, 3 the input is too large or too deeply nested for the
interpreter's recursion limit.  JSON output is byte-stable for a fixed argv and seed; text
output is for humans and may change.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from butfpi.butf.eval import EvalResult, Stuck, eval_expr
from butfpi.butf.parse import parse
from butfpi.butf.pretty import pretty
from butfpi.butf.syntax import Expr
from butfpi.correspondence import check_program, read_output, value_equal
from butfpi.cost import FAMILIES, MIN_SIZES, fit_check, measure, scaling_experiment
from butfpi.epi.engine import EngineError, LiveSoup, explore, normalize, run
from butfpi.epi.parse import parse_process
from butfpi.epi.pretty import pretty_process
from butfpi.lexer import ParseError
from butfpi.translate import TranslationOptions, translate
from butfpi.ugrammar import diagnose


def _emit(data: dict) -> None:
    print(dumps(data))


def dumps(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=2)``, the same text.

    With an indent the standard library encodes through recursive closures,
    a reference cycle left for the cyclic collector on every call; this
    encoder is module functions, and strings go through the C escaper.
    """
    return _encode(data, "\n")


def _float(o: float) -> str:
    if o != o:
        return "NaN"
    if o == float("inf"):
        return "Infinity"
    if o == -float("inf"):
        return "-Infinity"
    return float.__repr__(o)


# the scalars by exact type; containers look their items up here inline,
# which spares a call per value
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _float,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda o: "null"}


def _encode(o, newline: str) -> str:
    """``o`` encoded, ``newline`` being a line break and the indent of the
    line ``o`` starts on."""
    scalar = _SCALARS.get(type(o))
    if scalar is not None:
        return scalar(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + "  "
        items = _rows(o, inner) if type(o[0]) is dict else None
        if items is None:
            items = [_SCALARS[type(v)](v) if type(v) in _SCALARS else _encode(v, inner)
                     for v in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = newline + "  "
        return ("{" + inner + ("," + inner).join(
            [(encode_basestring_ascii(k) if type(k) is str else _key(k)) + ": "
             + (_SCALARS[type(v)](v) if type(v) in _SCALARS else _encode(v, inner))
             for k, v in sorted(o.items())])
            + newline + "}")
    # subclasses of the scalar types, encoded as the standard library does
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _rows(o: list | tuple, newline: str) -> list[str] | None:
    """The items of ``o`` encoded through one row template, if each is a
    dict with the string keys of the first (in any order, as keys are
    sorted) and only scalar values, as ``simulate``'s steps are; None if
    one is not.

    The template is a row with a ``%s`` for each value.  The values are
    encoded a key at a time, so a row costs one ``%``.
    """
    first = o[0]
    n = len(first)
    if not n or any(type(k) is not str for k in first):
        return None
    if {*map(type, o)} != {dict} or {*map(len, o)} != {n}:
        return None
    order = sorted(first)
    inner = newline + "  "
    template = ("{" + inner + ("," + inner).join(
        [encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in order])
        + newline + "}")
    scalars = _SCALARS
    try:
        columns = [[scalars[type(v)](v) for v in map(itemgetter(k), o)] for k in order]
    except KeyError:  # a key missing, or a value of no scalar type
        return None
    return [template % row for row in zip(*columns)]


def _key(k) -> str:
    """A dict key as the standard library writes it: always a string."""
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if k is None or isinstance(k, (int, float)):  # bool is an int
        return '"' + _encode(k, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


class _UsageError(Exception):
    pass


def _count(text: str) -> int:
    """An argparse type: a non-negative integer."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _sizes(text: str) -> list[int]:
    """An argparse type: comma-separated non-negative integers."""
    return [_count(x) for x in text.split(",") if x]


def _read_file(path: str) -> str:
    """The text of the file at ``path``; one that cannot be read (missing,
    a directory, unreadable) is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(str(exc)) from None


def _read_program(args) -> Expr:
    if args.expr is not None:
        return parse(args.expr)
    if args.program is None:
        raise _UsageError("provide a program file or -e/--expr")
    return parse(_read_file(args.program))


def _options(args) -> TranslationOptions:
    return TranslationOptions(
        strict_bullets=not getattr(args, "paper_literal", False),
        paper_literal_repeat=getattr(args, "paper_literal_repeat", False),
    )


def _add_program_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("program", nargs="?", help="path to a .butf source file")
    sub.add_argument("-e", "--expr", help="inline program text instead of a file")


def _add_mode_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--paper-literal", action="store_true",
                     help="drop the size/iota bullets, as printed in the calculus")
    sub.add_argument("--paper-literal-repeat", action="store_true",
                     help="keep the >= 0 repeat guard that also emits (-1, -1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="butfpi",
        description="functional array programs, their pi-calculus translations, "
                    "and the accounting between them")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="evaluate a source program")
    _add_program_arg(p)
    p.add_argument("--fuel", type=_count, default=1_000_000, help="max reduction steps")
    p.add_argument("--trace", action="store_true", help="print one line per step")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("translate", help="emit the pi-calculus translation")
    _add_program_arg(p)
    _add_mode_flags(p)
    p.add_argument("--out", default="o", help="root output channel name")

    p = sub.add_parser("simulate", help="reduce a translation or raw process text")
    _add_program_arg(p)
    _add_mode_flags(p)
    p.add_argument("--raw", help="raw process text to reduce instead of a program")
    p.add_argument("--raw-file", help="path to a .epi process file")
    p.add_argument("--policy", choices=("priority", "random"), default="priority")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_count, default=1_000_000, help="max engine steps")
    p.add_argument("--gc", action="store_true", help="collect unreachable servers")
    p.add_argument("--permissive", action="store_true",
                   help="drop faulting threads instead of aborting")
    p.add_argument("--stop-barb", help="halt once this channel is observable")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="correspondence report for a program")
    _add_program_arg(p)
    _add_mode_flags(p)
    p.add_argument("--seeds", type=_count, default=20)
    p.add_argument("--budget", type=_count, default=200_000)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("cost", help="work/span measurement")
    _add_program_arg(p)
    _add_mode_flags(p)
    p.add_argument("--seeds", type=_count, default=0)
    p.add_argument("--budget", type=_count, default=500_000)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("scale", help="scaling families vs predicted shapes")
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--sizes", type=_sizes, required=True,
                   help="comma-separated strictly increasing sizes of at least 1, "
                        "e.g. 1,2,4,8")
    p.add_argument("--seeds", type=_count, default=0)
    p.add_argument("--budget", type=_count, default=500_000)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("explore", help="exhaustive exploration of small programs")
    _add_program_arg(p)
    _add_mode_flags(p)
    p.add_argument("--raw", help="raw process text instead of a program")
    p.add_argument("--state-bound", type=_count, default=100_000)
    p.add_argument("--depth-bound", type=_count, default=100_000)
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def cmd_run(args) -> int:
    e = _read_program(args)
    result = eval_expr(e, fuel=args.fuel, want_trace=args.trace)
    if isinstance(result, EvalResult):
        if args.format == "json":
            _emit({"status": "value", "value": pretty(result.value),
                   "steps": result.steps,
                   "trace": [{"idx": t.index, "rule": t.rule,
                              "path": list(t.path), "after": t.after}
                             for t in result.trace]})
        else:
            for t in result.trace:
                print(f"#{t.index} {t.rule}: {t.after}")
            print(f"{pretty(result.value)}")
            print(f"steps: {result.steps}", file=sys.stderr)
        return 0
    if isinstance(result, Stuck):
        _report_simple(args, {"status": "stuck", "reason": result.reason,
                              "steps": result.steps},
                       f"stuck after {result.steps} steps: {result.reason}")
        return 1
    _report_simple(args, {"status": "diverged", "steps": result.steps},
                   f"no value after {result.steps} steps")
    return 1


def _report_simple(args, data: dict, text: str) -> None:
    if getattr(args, "format", "text") == "json":
        _emit(data)
    else:
        print(text)


def cmd_translate(args) -> int:
    e = _read_program(args)
    opts = _options(args)
    process = translate(e, args.out, opts)
    print(f"-- {opts.header()} out={args.out} fresh=deterministic")
    print(pretty_process(process))
    problem = diagnose(process)
    if problem is not None:
        print(f"warning: not well-behaved: {problem}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    if args.raw is not None or args.raw_file is not None:
        text = args.raw if args.raw is not None else _read_file(args.raw_file)
        config = normalize(parse_process(text))
    else:
        e = _read_program(args)
        config = normalize(translate(e, "o", _options(args)))
    trace = run(config, policy=args.policy, seed=args.seed, budget=args.budget,
                stop_barb=args.stop_barb, permissive=args.permissive, gc=args.gc)
    data = trace.to_dict()
    if args.format == "json":
        _emit(data)
    else:
        for s in data["steps"]:
            chan = f" {s['channel']}" if s["channel"] else ""
            print(f"#{s['idx']} {s['rule']}{chan} [{s['kind']}] depth={s['depth']}")
        print(f"status: {data['status']}  work: {data['work']}  span: {data['span']}  "
              f"admin: {data['admin_steps']}")
        print(f"barbs: {', '.join(data['barbs']) or '(none)'}")
    return 0 if trace.status in ("terminated", "barb") else 1


def cmd_check(args) -> int:
    e = _read_program(args)
    report = check_program(e, seeds=args.seeds, budget=args.budget, opts=_options(args))
    if args.format == "json":
        _emit(report.to_dict())
    else:
        print(f"program:   {report.program}")
        print(f"mode:      {report.mode}")
        print(f"status:    {report.status}")
        print(f"butf:      steps={report.butf_steps} value={report.butf_value}")
        print(f"important: min={report.important_min} max={report.important_max} "
              f"adjusted={report.adjusted_min}..{report.adjusted_max} "
              f"(dummy penalty {report.dummy_penalty})")
        print(f"value_match: {report.value_match}")
        for d in report.deviations:
            print(f"note: {d}")
    return 0 if report.status == "ok" else 1


def cmd_cost(args) -> int:
    e = _read_program(args)
    report = measure(e, seeds=args.seeds, budget=args.budget, opts=_options(args))
    if args.format == "json":
        _emit(report.to_dict())
    else:
        print(f"work: {report.work}  span: {report.span}  "
              f"admin: {report.admin_steps}  status: {report.status}")
    return 0 if report.status == "ok" else 1


def cmd_scale(args) -> int:
    if len(args.sizes) < MIN_SIZES:
        raise _UsageError(f"need at least {MIN_SIZES} sizes for a shape check")
    table = scaling_experiment(args.family, args.sizes, seeds=args.seeds,
                               budget=args.budget)
    verdict = fit_check(table)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
    elif args.format == "json":
        _emit({"table": table.to_dict(), "verdict": verdict.to_dict()})
    else:
        for r in table.rows:
            print(f"n={r.n:4d}  work={r.work:5d}  span={r.span:4d}  admin={r.admin_steps}")
        if table.dropped:
            print(f"dropped: {', '.join(map(str, table.dropped))}")
        for name, ok, detail in verdict.checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if verdict.passed else 1


def cmd_explore(args) -> int:
    if args.raw is not None:
        config = normalize(parse_process(args.raw))
        oracle_value = None
    else:
        e = _read_program(args)
        config = normalize(translate(e, "o", _options(args)))
        oracle = eval_expr(e)
        oracle_value = oracle.value if isinstance(oracle, EvalResult) else None
    terminals, bound_hit, states = explore(config, args.state_bound, args.depth_bound)
    data = {"states": states, "terminals": len(terminals), "bound_hit": bound_hit}
    agree = None
    if oracle_value is not None and not bound_hit:
        # no delivery on o reads as None, which equals no value
        agree = all(value_equal(oracle_value, read_output(LiveSoup(t), oracle_value))
                    for t in terminals)
        data["all_terminals_agree"] = agree
        data["value"] = pretty(oracle_value)
    if args.format == "json":
        _emit(data)
    else:
        print(f"states: {states}  terminals: {len(terminals)}  bound_hit: {bound_hit}")
        if agree is not None:
            print(f"all terminals agree on {data['value']}: {agree}")
    if bound_hit:
        return 0
    return 0 if agree in (None, True) else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``dispatch`` in this process.

    Building it takes about 2 ms and leaves reference cycles for the
    cyclic collector; parsing leaves it as it was, so one serves every call.
    """
    return build_parser()


def dispatch(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler = {
        "run": cmd_run,
        "translate": cmd_translate,
        "simulate": cmd_simulate,
        "check": cmd_check,
        "cost": cmd_cost,
        "scale": cmd_scale,
        "explore": cmd_explore,
    }[args.command]
    try:
        return handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, ValueError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        print(f"error: input too large or too deeply nested: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
