"""Golden CLI outputs: the byte-for-byte reports of ``simulate``, ``check``,
``cost`` and ``explore`` on the corpus and on ``programs/``.

Each case is one ``butfpi.cli.dispatch`` call; its exit code and captured
stdout are stored under ``tests/golden/<entry>.json`` (``explore`` under
``tests/golden/explore/<entry>.json``) and ``test_golden.py`` requires the
same bytes.  A golden file changes only together with a stated reason for
the new output (a fixed bug, a new field): a refactor or an optimization
must leave every file as it is.

Regenerate all files from the current source with::

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from butfpi.cli import dispatch
from corpus import CORPUS

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
EXPLORE_GOLDEN = GOLDEN / "explore"
PROGRAMS = TESTS.parent / "programs"

RANDOM_SEEDS = range(5)
CHECK_SEEDS = 20
COST_SEEDS = 4
EXPLORE_RUN = ("explore", "--format", "json")
# programs whose state space exceeds 2 000 states: too slow for a golden
EXPLORE_SKIP = {"corpus-map-inc", "corpus-map-over-iota", "corpus-index-of-map",
                "corpus-concat", "corpus-reduce", "program-map_inc"}


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


def cases() -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """Golden file stem -> [(case label, full argv)]."""
    out: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    sources = [(f"corpus-{e.name}", e.source) for e in CORPUS
               if e.outcome != "diverges"]
    sources += [(f"program-{p.stem}", p.read_text(encoding="utf-8"))
                for p in sorted(PROGRAMS.glob("*.butf"))]
    for stem, source in sources:
        out[stem] = [(" ".join(run), (run[0], "-e", source, *run[1:]))
                     for run in _program_runs()]
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
    sources = [(f"corpus-{e.name}", e.source) for e in CORPUS
               if e.outcome != "diverges"]
    sources += [(f"program-{p.stem}", p.read_text(encoding="utf-8"))
                for p in sorted(PROGRAMS.glob("*.butf"))]
    label = " ".join(EXPLORE_RUN)
    return {stem: [(label, (EXPLORE_RUN[0], "-e", source, *EXPLORE_RUN[1:]))]
            for stem, source in sources if stem not in EXPLORE_SKIP}


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


def main() -> None:
    _write(GOLDEN, {stem: render_file(runs) for stem, runs in cases().items()})
    _write(EXPLORE_GOLDEN, {stem: render_file(runs)
                            for stem, runs in explore_cases().items()})


if __name__ == "__main__":
    main()
