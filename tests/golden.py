"""Golden CLI outputs: the byte-for-byte reports of ``simulate``, ``check``
and ``cost`` on the corpus and on ``programs/``.

Each case is one ``butfpi.cli.dispatch`` call; its exit code and captured
stdout are stored under ``tests/golden/<entry>.json`` and
``test_golden.py`` requires the same bytes.  A golden file changes only
together with a stated reason for the new output (a fixed bug, a new
field): a refactor or an optimization must leave every file as it is.

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
PROGRAMS = TESTS.parent / "programs"

RANDOM_SEEDS = range(5)
CHECK_SEEDS = 20
COST_SEEDS = 4


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


def render(argv: tuple[str, ...]) -> dict:
    """Exit code and stdout of one CLI call."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(list(argv))
    return {"exit": code, "stdout": stdout.getvalue()}


def render_file(runs: list[tuple[str, tuple[str, ...]]]) -> str:
    data = {label: render(argv) for label, argv in runs}
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    wanted = cases()
    for stale in GOLDEN.glob("*.json"):
        if stale.stem not in wanted:
            stale.unlink()
    for stem, runs in wanted.items():
        (GOLDEN / f"{stem}.json").write_text(render_file(runs), encoding="utf-8")
    print(f"wrote {len(wanted)} golden files to {GOLDEN}")


if __name__ == "__main__":
    main()
