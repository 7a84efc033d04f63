"""The CSV formatter writes the bytes of Python's `'%.17g' % value`, value
by value, and leaves every near tie it cannot round exactly to Python.
About 1.3 s in all."""

import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from quadmode import csvtext

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_csv_text.py"
_spec = importlib.util.spec_from_file_location("check_csv_text", TOOL)
check_csv_text = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_csv_text)

# the ties whose power of ten, 10^23 or 10^24, is not a double
INEXACT_TIES = [m * 2.0**-24 for m in range(3, 16, 2)] + [2.0**-25, 3 * 2.0**-25]


def python_rows(rows) -> str:
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)


def csv_text(columns) -> str:
    return b"".join(csvtext.csv_chunks(columns)).decode("ascii")


@given(st.integers(1, 4).flatmap(
    lambda width: st.lists(st.tuples(*[st.floats()] * width), min_size=1, max_size=12)))
def test_rows_match_python_formatting(rows):
    # NaN, ±inf, ±0 and subnormals included; ',' and '\n' between values
    assert csv_text([np.array(col) for col in zip(*rows)]) == python_rows(rows)


def test_random_bit_patterns_match():
    assert check_csv_text.mismatches(check_csv_text.random_patterns(200_000, 36)) == []


def test_structured_cases_match():
    # powers of 2 and 10 and their neighbours test the exponent correction,
    # and the exact ties 1 + i·2^-17 the half-even rounding
    assert check_csv_text.mismatches(check_csv_text.structured_cases()) == []


def test_near_ties_flagged_where_the_power_of_ten_is_inexact():
    t = csvtext._tables()
    ties = np.array(INEXACT_TIES)
    exact_ties = 1.0 + np.arange(1, 2000, 2) * 2.0**-17
    assert csvtext._digits(ties, t)[2].all()
    assert not csvtext._digits(exact_ties, t)[2].any()
    values = np.abs(check_csv_text.random_patterns(10_000, 3))
    assert not csvtext._digits(values[np.isfinite(values) & (values > 0)], t)[2].any()


def test_flagged_values_take_python_formatting(monkeypatch):
    # the vectorized digits of a flagged value are never written: spoil them
    real = csvtext._digits

    def spoiled(a, t):
        d, ki, tie = real(a, t)
        return np.where(tie, d + 1, d), ki, tie
    monkeypatch.setattr(csvtext, "_digits", spoiled)
    values = np.array(INEXACT_TIES + [-v for v in INEXACT_TIES] + [np.nan, -np.inf, 0.1])
    assert csv_text([values, values[::-1]]) == python_rows(zip(values, values[::-1]))
