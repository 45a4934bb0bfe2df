"""CLI reports stay byte-identical to the committed goldens (see golden.py)."""

import pytest

from golden import (
    EXPLORE_GOLDEN,
    GOLDEN,
    cases,
    explore_cases,
    render_file,
)

CASES = cases()
EXPLORE_CASES = explore_cases()


def test_golden_files_match_cases():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)
    assert (sorted(p.stem for p in EXPLORE_GOLDEN.glob("*.json"))
            == sorted(EXPLORE_CASES))


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_bytes(stem):
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert render_file(CASES[stem]) == expected


@pytest.mark.parametrize("stem", sorted(EXPLORE_CASES))
def test_explore_golden_bytes(stem):
    expected = (EXPLORE_GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert render_file(EXPLORE_CASES[stem]) == expected
