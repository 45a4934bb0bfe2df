import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from butfpi import cli, cost
from butfpi.cli import build_parser, dispatch


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_value(capsys):
    code, out, _ = run_cli(capsys, "run", "-e", "(\\x. x) 5")
    assert code == 0 and out.strip() == "5"


def test_run_trace(capsys):
    code, out, _ = run_cli(capsys, "run", "-e", "(\\x. x + 1) 2", "--trace")
    assert code == 0
    assert "#1 E-BETA" in out and "#2 E-ARITH" in out


def test_run_stuck_exit_one(capsys):
    code, out, _ = run_cli(capsys, "run", "-e", "5[0]")
    assert code == 1 and "stuck" in out


def test_run_json(capsys):
    code, out, _ = run_cli(capsys, "run", "-e", "1 + 2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"status": "value", "value": "3", "steps": 1, "trace": []}


def test_parse_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "run", "-e", "5 +")
    assert code == 2 and "parse error" in err


def test_process_parse_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "simulate", "--raw", "a<1")
    assert code == 2 and err == "parse error: 1:4: expected '>', found 'end of input'\n"


def test_stack_exhaustion_exit_three(capsys, monkeypatch):
    # stands in for an input deep enough to exhaust the interpreter's stack
    def overflow(args):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(cli, "cmd_translate", overflow)
    code, out, err = run_cli(capsys, "translate", "-e", "5")
    assert code == 3 and out == ""
    assert err == ("error: input too large or too deeply nested: "
                   "maximum recursion depth exceeded\n")


def test_usage_error_exit_two(capsys):
    assert dispatch(["run"]) == 2
    capsys.readouterr()
    assert dispatch(["no-such-command"]) == 2
    capsys.readouterr()


def test_translate_number(capsys):
    code, out, _ = run_cli(capsys, "translate", "-e", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("--")  # options header
    assert lines[1] == "o<5>"


def test_simulate_raw_broadcast(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--raw", "c:<1> | c(x).0 | c(y).0")
    assert code == 0
    assert out.count("#") == 1  # exactly one step, atomically


def test_simulate_json_deterministic(capsys):
    args = ("simulate", "-e", "map ((\\x. x), [1, 2])", "--policy", "random",
            "--seed", "3", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    data = json.loads(out1)
    assert data["status"] == "terminated"
    assert set(data["steps"][0]) == {"idx", "kind", "rule", "channel", "depth"}


def test_check_pass(capsys, tmp_path):
    program = tmp_path / "beta.butf"
    program.write_text("(\\x. x) 5\n")
    code, out, _ = run_cli(capsys, "check", str(program), "--seeds", "5")
    assert code == 0
    assert "value_match: True" in out


def test_check_json(capsys):
    code, out, _ = run_cli(capsys, "check", "-e", "size [1,2]", "--seeds", "2",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["butf_steps"] == 1
    assert data["adjusted"]["min"] == 1


def test_check_paper_literal_mode(capsys):
    code, out, _ = run_cli(capsys, "check", "-e", "size [1,2]", "--seeds", "2",
                           "--paper-literal", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["important"]["min"] == 0 and data["expected_deficit"] == 1


def test_cost_json(capsys):
    code, out, _ = run_cli(capsys, "cost", "-e", "(\\x. x) 5", "--format", "json")
    assert code == 0
    assert json.loads(out)["work"] == 1


def test_scale_csv_and_exit(capsys):
    code, out, _ = run_cli(capsys, "scale", "--family", "nested-apps",
                           "--sizes", "1,2,3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "family,n,seed,work,span,admin_steps"


def test_scale_needs_three_sizes_before_running(capsys):
    code, out, err = run_cli(capsys, "scale", "--family", "nested-apps",
                             "--sizes", "1,2")
    assert code == 2 and out == "" and "at least 3 sizes" in err


@pytest.mark.parametrize("sizes, message", [
    ("0,1,2,3", "sizes must be at least 1"),
    ("1,4,2", "sizes must be strictly increasing"),
])
def test_scale_size_errors_are_usage_errors(capsys, sizes, message):
    # at 0, nested-apps builds one application and array-of-apps none
    for family in ("nested-apps", "array-of-apps"):
        code, out, err = run_cli(capsys, "scale", "--family", family, "--sizes", sizes)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_scale_too_few_sizes_left_prints_table_and_fails(capsys):
    # n = 3 and 4 need more than 8 steps, so only two sizes run
    argv = ("scale", "--family", "nested-apps", "--sizes", "1,2,3,4", "--budget", "8")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert [r["n"] for r in data["table"]["rows"]] == [1, 2]
    assert data["table"]["dropped"] == [3, 4]
    assert data["verdict"]["passed"] is False
    assert [c["name"] for c in data["verdict"]["checks"]] == ["sizes"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1 and "dropped: 3, 4" in out and "FAIL sizes" in out


def test_scale_drops_a_size_too_deep_for_the_stack(capsys, monkeypatch):
    # stands in for sizes deep enough to exhaust the interpreter's stack;
    # the sizes measured before them are kept
    def nested_apps_to_127(n):
        if n >= 128:
            raise RecursionError("maximum recursion depth exceeded")
        return cost.nested_apps(n)
    monkeypatch.setitem(cost.FAMILIES, "nested-apps", nested_apps_to_127)
    argv = ("scale", "--family", "nested-apps", "--format", "json")
    code, out, err = run_cli(capsys, *argv, "--sizes", "8,16,64,128")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert [r["n"] for r in data["table"]["rows"]] == [8, 16, 64]
    assert data["table"]["dropped"] == [128]
    assert data["verdict"]["passed"] is True
    code, out, _ = run_cli(capsys, *argv, "--sizes", "16,64,128,256")
    assert code == 1
    data = json.loads(out)
    assert [r["n"] for r in data["table"]["rows"]] == [16, 64]
    assert data["table"]["dropped"] == [128, 256]
    assert [c["name"] for c in data["verdict"]["checks"]] == ["sizes"]


@pytest.mark.parametrize("family", sorted(cost.FAMILIES))
def test_scale_runs_deep_sizes_without_dropping(capsys, family):
    code, out, err = run_cli(capsys, "scale", "--family", family,
                             "--sizes", "16,64,128", "--format", "json")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert [r["n"] for r in data["table"]["rows"]] == [16, 64, 128]
    assert data["table"]["dropped"] == []
    assert data["verdict"]["passed"] is True


@pytest.mark.parametrize("argv", [
    ("check", "-e", "5", "--seeds", "-1"),
    ("check", "-e", "5", "--budget", "-3"),
    ("cost", "-e", "5", "--seeds", "-2"),
    ("simulate", "-e", "5", "--budget", "-1"),
    ("scale", "--family", "nested-apps", "--sizes", "1,2,3", "--seeds", "-1"),
    ("explore", "-e", "5", "--state-bound", "-1"),
    ("explore", "-e", "5", "--depth-bound", "-5"),
    ("run", "-e", "5", "--fuel", "-5"),
    ("scale", "--family", "array-of-apps", "--sizes=-2,-1,0"),
])
def test_negative_counts_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "non-negative" in err


def test_explore_small(capsys):
    code, out, _ = run_cli(capsys, "explore", "-e", "(\\x. x) 5",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["all_terminals_agree"] is True and data["value"] == "5"


def test_every_subcommand_has_help():
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    assert set(subparsers) == {"run", "translate", "simulate", "check",
                               "cost", "scale", "explore"}
    for name, sub in subparsers.items():
        with pytest.raises(SystemExit) as exc:
            sub.parse_args(["--help"])
        assert exc.value.code == 0


def test_fuel_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BUTFPI_FUEL", "10")
    code, out, _ = run_cli(capsys, "run", "-e", "(\\x. x x) (\\x. x x)")
    assert code == 1 and "10 steps" in out


# one argv per command, a usage error and a help text among them
CONSECUTIVE = [
    ("run", "-e", "(\\x. x + 1) 2", "--trace"),
    ("translate", "-e", "[1, 2]"),
    ("simulate", "-e", "size [1, 2]", "--format", "json"),
    ("check", "-e", "size [1,2]", "--seeds", "2", "--format", "json"),
    ("explore", "--state-bound", "-1", "-e", "5"),
    ("cost", "-e", "(\\x. x) 5"),
    ("scale", "--family", "nested-apps", "--sizes", "1,2,3", "--format", "csv"),
    ("explore", "-e", "(\\x. x) 5", "--format", "json"),
    ("cost", "--help"),
    ("run", "-e", "5[0]"),
]


def test_consecutive_dispatches_print_what_single_calls_print(capsys, monkeypatch):
    # the parser is built once per process; every call must still see it
    # as a fresh process would
    monkeypatch.setenv("COLUMNS", "80")  # help and usage texts wrap to it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for argv in CONSECUTIVE:
        single = subprocess.run(
            [sys.executable, "-c", "import sys; from butfpi.cli import main; main()", *argv],
            env=env, capture_output=True, text=True, timeout=120)
        code = dispatch(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            single.returncode, single.stdout, single.stderr), argv


# ------------------------------------------------------------------ json

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_json_encoder_prints_what_the_standard_library_prints():
    # the files, and each case's JSON stdout, were written by json.dumps
    # with sort_keys and an indent of 2, and print adds a newline
    files = cases = 0
    for path in sorted(GOLDEN.rglob("*.json")):
        text = path.read_text(encoding="utf-8")
        data = json.loads(text)
        assert cli.dumps(data) + "\n" == text, path.name
        files += 1
        for label, case in data.items():
            if "--format json" not in label:
                continue
            stdout = case["stdout"]
            assert cli.dumps(json.loads(stdout)) + "\n" == stdout, (path.name, label)
            cases += 1
    assert files >= 90 and cases >= 400


def _random_json(rng, depth):
    kind = rng.randrange(9 if depth > 0 else 6)
    if kind == 0:
        return rng.choice(["", "plain", "üñï©ødé", "tab\tnew\nline", 'quo"te\\',
                           "\x00\x1f\x7f", "😀 astral", "  "])
    if kind == 1:
        return rng.choice([0, -1, 7, 2**70, -(2**65)])
    if kind == 2:
        return rng.choice([0.0, -0.0, 0.1, 1e300, -2.5e-300, 1e16, float("nan"),
                           float("inf"), float("-inf")])
    if kind == 3:
        return rng.choice([True, False, None])
    if kind == 4:
        return rng.choice([[], {}, ()])
    if kind == 5:
        return rng.choice(["x", 3, 1.5])
    if kind == 6:
        return [_random_json(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 7:
        return tuple(_random_json(rng, depth - 1) for _ in range(rng.randrange(4)))
    # keys of one kind per dict, as sorting needs comparable keys
    keys = rng.choice([["b", "a", "é", "", "a b"], [3, -1, 10**20],
                       [2.5, -0.0, float("inf")], [None], [True, False]])
    return {k: _random_json(rng, depth - 1) for k in keys[:rng.randrange(len(keys) + 1)]}


def _random_rows(rng):
    """A list of dicts with one key tuple and scalar values, as ``simulate``'s
    steps are, perhaps with one later item changed, and whether the row
    template takes the list: it does when that item only has another key
    order, and not when it has an extra key, lacks one, holds a nested
    value or is no dict."""
    keys = rng.sample(["idx", "kind", "channel", "a%sb", "é", "", "depth", 'q"'],
                      rng.randrange(1, 6))
    scalars = lambda: rng.choice([None, True, False, 0, -7, 2**70, 0.1, float("nan"),
                                  float("-inf"), "h3.7", "important", "tab\tq\"",
                                  "üñ%s", "😀"])
    rows = [{k: scalars() for k in keys} for _ in range(rng.randrange(1, 6))]
    change = rng.choice(["none", "none", "order", "extra", "missing", "nested",
                         "not a dict"])
    if change == "none" or len(rows) < 2:
        return rows, True
    i = rng.randrange(1, len(rows))
    row = rows[i]
    if change == "order":
        order = list(row)
        rng.shuffle(order)
        rows[i] = {k: row[k] for k in order}
        return rows, True
    if change == "extra":
        row["extra"] = scalars()
    elif change == "missing":
        del row[rng.choice(keys)]
    elif change == "nested":
        row[rng.choice(keys)] = rng.choice([[1], {"a": None}, (), []])
    else:
        rows[i] = list(row.items())
    return rows, False


def test_json_encoder_matches_the_standard_library_on_generated_data():
    rng = random.Random(61)
    for _ in range(2000):
        data = _random_json(rng, rng.randrange(5))
        assert cli.dumps(data) == json.dumps(data, sort_keys=True, indent=2), data
    templated = 0
    for _ in range(500):
        rows, same_shape = _random_rows(rng)
        for data in (rows, tuple(rows), {"steps": rows, "work": 3}):
            assert cli.dumps(data) == json.dumps(data, sort_keys=True, indent=2), data
        assert (cli._rows(rows, "\n") is not None) == same_shape, rows
        templated += same_shape
    assert templated > 200
    for bad in ({"a": object()}, [1, {2}], {(1, 2): 3}):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli.dumps(bad)
