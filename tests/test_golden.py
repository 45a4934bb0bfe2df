"""CLI reports stay byte-identical to the committed goldens (see golden.py)."""

import pytest

from golden import (
    EXPLORE_GOLDEN,
    GOLDEN,
    cases,
    explore_cases,
    render_file,
    suites,
)

CASES = cases()
EXPLORE_CASES = explore_cases()
SUITES = suites()
# the suites other than ``simulate``/``check``/``cost`` and ``explore``
MORE = {directory: suite for directory, suite in SUITES.items()
        if directory not in (GOLDEN, EXPLORE_GOLDEN)}


def test_golden_files_match_cases():
    for directory, suite in SUITES.items():
        assert sorted(p.stem for p in directory.glob("*.json")) == sorted(suite), directory


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_bytes(stem):
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert render_file(CASES[stem]) == expected


@pytest.mark.parametrize("stem", sorted(EXPLORE_CASES))
def test_explore_golden_bytes(stem):
    expected = (EXPLORE_GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert render_file(EXPLORE_CASES[stem]) == expected


@pytest.mark.parametrize("directory, stem", [(d, stem) for d, suite in MORE.items()
                                             for stem in sorted(suite)],
                         ids=lambda x: getattr(x, "name", x))
def test_more_golden_bytes(directory, stem):
    expected = (directory / f"{stem}.json").read_text(encoding="utf-8")
    assert render_file(MORE[directory][stem]) == expected
