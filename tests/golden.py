"""Golden CLI outputs: the byte-for-byte reports of ``simulate``, ``check``,
``cost``, ``explore``, ``translate`` and ``scale`` on the corpus, on
``programs/`` and on the scaling families.

Each case is one ``butfpi.cli.dispatch`` call; its exit code and captured
stdout are stored under ``tests/golden/<entry>.json``, and the other suites
under a directory each: ``explore``, ``translate`` (every translation
mode), ``literal`` (``check`` and ``cost`` under each paper-literal option)
and ``scale`` (``<family>.json``).  ``test_golden.py`` requires the same
bytes.  A golden file changes only together with a stated reason for
the new output (a fixed bug, a new field): a refactor or an optimization
must leave every file as it is.

Regenerate all files from the current source with::

    PYTHONPATH=src python tests/golden.py

or only the named suites (``golden``, ``explore``, ``translate``,
``literal``, ``scale``) with, for example::

    PYTHONPATH=src python tests/golden.py translate scale
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from butfpi.cli import dispatch
from butfpi.cost import FAMILIES
from corpus import CORPUS

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
EXPLORE_GOLDEN = GOLDEN / "explore"
TRANSLATE_GOLDEN = GOLDEN / "translate"
LITERAL_GOLDEN = GOLDEN / "literal"
SCALE_GOLDEN = GOLDEN / "scale"
PROGRAMS = TESTS.parent / "programs"

RANDOM_SEEDS = range(5)
CHECK_SEEDS = 20
COST_SEEDS = 4
EXPLORE_RUN = ("explore", "--format", "json")
LITERAL_MODES = ("--paper-literal", "--paper-literal-repeat")
LITERAL_SEEDS = 2
SCALE_SIZES = "1,2,4,8,16"
SCALE_SEEDS = 2
# programs whose state space exceeds 2 000 states: too slow for a golden
EXPLORE_SKIP = {"corpus-map-inc", "corpus-map-over-iota", "corpus-index-of-map",
                "corpus-concat", "corpus-reduce", "program-map_inc"}
# every operand shape in every operand position, each hole filled with the
# parenthesized operand: ``translate/operands.json`` pins the order of the
# fresh names where the corpus does not reach
OPERAND_CONTEXTS = ("iota □", "size □", "map (□, [1])", "map ((\\z. z), □)", "□[0]",
                    "[0][□]", "[□, □]", "(□, □)", "if □ then □ else □", "(\\w. w) □",
                    "(□) 1", "\\w. □")
OPERANDS = ("iota 2", "[1, 2]", "(3, 4)", "(\\y. y) 5", "[6][0]", "size [7]",
            "if 1 then 2 else 3", "map", "iota", "size", "(+)", "x")


def _program_runs() -> list[tuple[str, ...]]:
    runs = [("simulate", "--policy", "random", "--seed", str(k), "--format", "json")
            for k in RANDOM_SEEDS]
    runs += [
        ("simulate", "--gc", "--policy", "random", "--seed", "0", "--format", "json"),
        ("simulate", "--permissive", "--policy", "random", "--seed", "0",
         "--format", "json"),
        ("check", "--seeds", str(CHECK_SEEDS), "--format", "json"),
        ("cost", "--seeds", str(COST_SEEDS), "--format", "json"),
    ]
    return runs


def _sources(diverging: bool = False) -> list[tuple[str, str]]:
    """(golden file stem, source) of the corpus entries, the diverging ones
    only if asked, and of ``programs/*.butf``."""
    sources = [(f"corpus-{e.name}", e.source) for e in CORPUS
               if diverging or e.outcome != "diverges"]
    sources += [(f"program-{p.stem}", p.read_text(encoding="utf-8"))
                for p in sorted(PROGRAMS.glob("*.butf"))]
    return sources


def _on_sources(runs: list[tuple[str, ...]], diverging: bool = False
                ) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """Each source's stem -> ``runs`` on it, each labelled by its argv."""
    return {stem: [(" ".join(run), (run[0], "-e", source, *run[1:])) for run in runs]
            for stem, source in _sources(diverging)}


def cases() -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """Golden file stem -> [(case label, full argv)]."""
    out = _on_sources(_program_runs())
    for p in sorted(PROGRAMS.glob("*.epi")):
        text = p.read_text(encoding="utf-8")
        runs = [("simulate", "--policy", "random", "--seed", str(k), "--format", "json")
                for k in RANDOM_SEEDS]
        runs.append(("simulate", "--gc", "--format", "json"))
        out[f"program-{p.stem}"] = [(" ".join(run), (run[0], "--raw", text, *run[1:]))
                                    for run in runs]
    return out


def explore_cases() -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """Explore golden stem -> [(case label, full argv)]."""
    return {stem: runs for stem, runs in _on_sources([EXPLORE_RUN]).items()
            if stem not in EXPLORE_SKIP}


def translate_cases() -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """Translate golden stem -> the translation in each mode, of every entry."""
    runs = [("translate",)] + [("translate", mode) for mode in LITERAL_MODES]
    out = _on_sources(runs, diverging=True)
    sources = [context.replace("□", f"({operand})")
               for context in OPERAND_CONTEXTS for operand in OPERANDS]
    out["operands"] = [(" ".join((*run, "-e", source)), (run[0], "-e", source, *run[1:]))
                       for source in sources for run in runs]
    return out


def literal_cases() -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """Literal golden stem -> ``check`` and ``cost`` under each paper-literal
    option."""
    runs = [(command, mode, "--seeds", str(LITERAL_SEEDS), "--format", "json")
            for mode in LITERAL_MODES for command in ("check", "cost")]
    return _on_sources(runs)


def scale_cases() -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """Scale golden stem (the family) -> its JSON and CSV reports."""
    return {family: [(f"scale --format {fmt}",
                      ("scale", "--family", family, "--sizes", SCALE_SIZES,
                       "--seeds", str(SCALE_SEEDS), "--format", fmt))
                     for fmt in ("json", "csv")]
            for family in sorted(FAMILIES)}


def suites() -> dict[Path, dict[str, list[tuple[str, tuple[str, ...]]]]]:
    """Golden directory -> its cases."""
    return {GOLDEN: cases(), EXPLORE_GOLDEN: explore_cases(),
            TRANSLATE_GOLDEN: translate_cases(), LITERAL_GOLDEN: literal_cases(),
            SCALE_GOLDEN: scale_cases()}


def render(argv: tuple[str, ...]) -> dict:
    """Exit code and stdout of one CLI call."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(list(argv))
    return {"exit": code, "stdout": stdout.getvalue()}


def render_file(runs: list[tuple[str, tuple[str, ...]]]) -> str:
    data = {label: render(argv) for label, argv in runs}
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _write(directory: Path, files: dict[str, str]) -> None:
    directory.mkdir(exist_ok=True)
    for stale in directory.glob("*.json"):
        if stale.stem not in files:
            stale.unlink()
    for stem, text in files.items():
        (directory / f"{stem}.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(files)} golden files to {directory}")


def main(names: list[str]) -> None:
    """Rewrite the named suites, or every suite when none is named."""
    chosen = {directory.name: (directory, suite) for directory, suite in suites().items()}
    unknown = sorted(set(names) - set(chosen))
    if unknown:
        raise SystemExit(f"unknown suites {unknown}; pick from {sorted(chosen)}")
    for name, (directory, suite) in chosen.items():
        if not names or name in names:
            _write(directory, {stem: render_file(runs) for stem, runs in suite.items()})


if __name__ == "__main__":
    main(sys.argv[1:])
