"""A lean part of the run contract's case table, in the default test run:
one kalibre and one vanilla rerun across hash seeds, a small study with one
BLAS thread, an abort, and a script's toolkit error. The whole table runs
with `python -m pytest -q tests/contract.py`."""

import pytest

from contract import runs  # noqa: F401  (the table's fixture)

CASES = ["kalibre", "vanilla", "script-study", "abort-kalibre", "script-repeated-fraction"]


@pytest.mark.parametrize("name", CASES)
def test_case(name, runs):  # noqa: F811
    runs.check(name)
