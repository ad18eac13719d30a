"""Float tables written as CSV text parse back to the same bits."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from sipr._io import _float_rows, _write_csv

# Values whose shortest decimal is not 17 digits, or that sit at the edges of
# binary64: signed zero, the smallest subnormal, the largest finite value, an
# integer above 2**53, a decimal-looking input, and the non-finite values.
# float() parses "nan" to the canonical quiet NaN, so only that NaN is drawn.
SPECIAL = [
    -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    2.0**53 + 2, 0.1, math.nan, math.inf, -math.inf,
]
TABLES = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(allow_nan=False) | st.sampled_from(SPECIAL),
)


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


@given(table=TABLES)
@example(table=np.array([SPECIAL, SPECIAL[::-1]]))
@settings(max_examples=200, deadline=None)
def test_csv_parses_back_bit_for_bit(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    header = [f"c{j}" for j in range(table.shape[1])]
    _write_csv(str(path), header, table, comment="# seed=1")
    comment, head, *rows = path.read_text().splitlines()
    assert comment == "# seed=1" and head.split(",") == header
    back = np.array([[float(v) for v in row.split(",")] for row in rows])
    np.testing.assert_array_equal(bits(back), bits(table))


def test_csv_writes_seventeen_significant_digits(tmp_path):
    path = tmp_path / "table.csv"
    _write_csv(str(path), ["a", "b", "c"], [[0.1, 0.0, -0.0]])
    assert path.read_text().splitlines()[1] == "0.10000000000000001,0,-0"


def test_leading_zeros_are_the_text_of_each_value():
    # A row's leading +0.0 run is written without formatting; the text is the
    # same as one "%.17g" per value: on a staircase, after a -0.0 lead, on an
    # all-zero row and around interior zeros.
    staircase = np.triu(np.random.default_rng(3).standard_normal((6, 6)))
    table = np.vstack([
        staircase[::-1],
        [-0.0, 0.0, 0.0, 1.5, 0.0, 0.0],
        [0.0, -0.0, 0.0, 0.0, 0.0, 0.1],
        np.zeros(6),
        [0.0, 0.0, 2.0, 0.0, 0.0, -0.0],
        [math.nan, 0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    assert _float_rows(table) == [",".join("%.17g" % v for v in row) for row in table]
    assert _float_rows(np.zeros((3, 0))) == ["", "", ""]
