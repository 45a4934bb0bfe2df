"""CLI reports stay byte-identical to the committed goldens (see golden.py)."""

import pytest

from golden import GOLDEN, cases, render_file

CASES = cases()


def test_golden_files_match_cases():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_bytes(stem):
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert render_file(CASES[stem]) == expected
