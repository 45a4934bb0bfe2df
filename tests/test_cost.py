import pytest

from butfpi.butf.parse import parse
from butfpi.butf.pretty import pretty
from butfpi.cost import (
    FAMILIES,
    array_of_apps,
    fit_check,
    map_over_iota,
    map_square_over_iota,
    measure,
    nested_apps,
    scaling_experiment,
)
from butfpi.translate import translate


def test_measure_spec_examples():
    r = measure(parse("5"))
    assert (r.work, r.span) == (0, 0)
    r = measure(parse("(\\x. x) 5"))
    assert (r.work, r.span) == (1, 1)
    r = measure(parse("[(\\x.x) 1, (\\x.x) 2]"))
    assert (r.work, r.span) == (2, 1)


def test_measure_span_le_work():
    for src in ("5", "1 + 2", "iota 3", "map ((\\x. x + 1), [3, 4])",
                "(\\x. (\\y. y) x) 7", "size [1]"):
        r = measure(parse(src), seeds=3)
        assert r.span <= r.work
        if r.work == 0:
            assert r.span == 0


def test_family_generators():
    assert pretty(nested_apps(3)) == "(\\x1. (\\x2. (\\x3. x3) x2) x1) 0"
    assert pretty(array_of_apps(2)) == "[(\\x. x) 1, (\\x. x) 2]"
    assert pretty(map_over_iota(2)) == "map (\\x. x, iota 2)"
    assert map_square_over_iota(3) == parse("map ((\\x. x * x + 1), iota 3)")
    assert set(FAMILIES) == {"array-of-apps", "map-over-iota", "map-square-over-iota",
                             "nested-apps"}


def test_array_of_apps_scaling():
    table = scaling_experiment("array-of-apps", [1, 2, 4, 8])
    assert [(r.n, r.work, r.span) for r in table.rows] == [
        (1, 1, 1), (2, 2, 1), (4, 4, 1), (8, 8, 1)]
    verdict = fit_check(table)
    assert verdict.passed


def test_map_over_iota_span_flat():
    table = scaling_experiment("map-over-iota", [1, 2, 4])
    spans = [r.span for r in table.rows]
    assert max(spans) == min(spans)
    assert fit_check(table).passed


def test_map_square_over_iota_scaling():
    # each element adds a multiplication and an addition to the work
    table = scaling_experiment("map-square-over-iota", [1, 2, 4, 8])
    assert [(r.n, r.work, r.span, r.admin_steps) for r in table.rows] == [
        (n, 2 * n + 4, 4, 19 * n + 22) for n in (1, 2, 4, 8)]
    assert fit_check(table).passed


def test_nested_apps_chain():
    table = scaling_experiment("nested-apps", [1, 2, 3, 4])
    assert all(r.work == r.n and r.span == r.n for r in table.rows)
    assert fit_check(table).passed


def test_fit_check_flags_violations():
    table = scaling_experiment("map-over-iota", [1, 2, 4])
    table.rows[-1].span += 3  # corrupt: span growing with n must be flagged
    verdict = fit_check(table)
    assert not verdict.passed
    assert any(name == "span-constant" and not ok for name, ok, _ in verdict.checks)


def test_scaling_validates_inputs():
    with pytest.raises(ValueError):
        scaling_experiment("array-of-apps", [])
    with pytest.raises(ValueError):
        scaling_experiment("array-of-apps", [4, 2])
    with pytest.raises(ValueError, match="at least 1"):
        scaling_experiment("nested-apps", [0, 1, 2])
    with pytest.raises(ValueError):
        scaling_experiment("no-such-family", [1, 2])
    with pytest.raises(ValueError):
        fit_check(scaling_experiment("nested-apps", [1, 2]))


def test_csv_output():
    table = scaling_experiment("nested-apps", [1, 2, 3])
    csv = table.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "family,n,seed,work,span,admin_steps"
    assert lines[1].startswith("nested-apps,1,priority,1,1,")


def test_measure_translates_once(monkeypatch):
    import butfpi.cost as cost
    calls = []

    def counting(e, out, opts=None):
        calls.append(e)
        return translate(e, out, opts)

    monkeypatch.setattr(cost, "translate", counting)
    report = measure(parse("map ((\\x. x + 1), [1, 2])"), seeds=4)
    assert len(report.per_run) == 5 and len(calls) == 1
