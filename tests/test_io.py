"""Float tables written as CSV text parse back to the same bits."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from sipr._io import _float_text, _write_csv, atomic_write
from sipr.errors import IOError_

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
    # Zeros, a row's leading +0.0 run among them, go through the same kernel
    # as every other value; the text is the same as one "%.17g" per value: on
    # a staircase, after a -0.0 lead, on an all-zero row and around interior
    # zeros.
    staircase = np.triu(np.random.default_rng(3).standard_normal((6, 6)))
    table = np.vstack([
        staircase[::-1],
        [-0.0, 0.0, 0.0, 1.5, 0.0, 0.0],
        [0.0, -0.0, 0.0, 0.0, 0.0, 0.1],
        np.zeros(6),
        [0.0, 0.0, 2.0, 0.0, 0.0, -0.0],
        [math.nan, 0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    assert float_text(table) == percent_text(table)
    assert float_text(np.zeros((3, 0))) == b"\n\n\n"


def float_text(table) -> bytes:
    return b"".join(_float_text(table))


def percent_text(table) -> bytes:
    """The reference text: one Python "%.17g" per value, each row ending in a newline."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table).encode("ascii")


def bit_patterns():
    # every sign, exponent and mantissa, including subnormals, inf and nan payloads
    bits = np.random.default_rng(23).integers(0, 2**64, 10**6, dtype=np.uint64)
    return bits.view(np.float64).reshape(-1, 100)


def scaled_mantissas():
    rng = np.random.default_rng(24)
    exps = np.arange(-6, 19)
    values = rng.uniform(1.0, 10.0, (exps.size, 400)) * 10.0 ** exps[:, None]
    return np.vstack([values, -values])


def short_decimals():
    rng = np.random.default_rng(25)
    decimals = rng.integers(0, 10**6, 4000) / 10.0 ** rng.integers(0, 7, 4000)
    integers = rng.integers(0, 2**60, 4000, dtype=np.int64) >> rng.integers(0, 60, 4000)
    return np.concatenate([decimals, integers.astype(float), np.arange(-500.0, 500.0)]).reshape(-1, 9)


def powers_of_ten():
    # the exponent of a value just below a power of ten comes from its exact
    # product, not from its rounded digits: 9.9999999999999997e-305, not 1e-304
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.stack([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p], axis=1)


def powers_of_two():
    normal = np.ldexp(1.0, np.arange(-1022, 1024))
    subnormal = np.ldexp(1.0, np.arange(-1074, -1022))
    smallest_normal = 2.2250738585072014e-308
    edges = [5e-324, smallest_normal, np.nextafter(smallest_normal, 0.0), 1.7976931348623157e308]
    odd = np.arange(1, 4001) * 5e-324  # the first 4000 subnormals
    return np.concatenate([normal, -normal, subnormal, edges, odd]).reshape(-1, 4)


def exact_ties():
    # 18 significant digits ending in 5: %.17g rounds them half to even
    return np.array([[1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, 1e14 + 0.375],
                     [-(1e15 + 0.75), -(1e14 + 0.375), 2.0**56 + 16.0, 2.0**57 + 32.0]])


def signed_zeros_and_non_finite():
    return np.array([[0.0, -0.0, math.nan, math.inf, -math.inf], [-math.inf, math.nan, -0.0, 0.0, 1.0]])


def several_chunks():
    # rows that span blocks, one row wider than a block, and a column that ends each row
    rng = np.random.default_rng(26)
    return [rng.standard_normal((1000, 102)), rng.standard_normal((3, 9000)), rng.standard_normal((9000, 1))]


TABLES = {
    "bit_patterns": lambda: [bit_patterns()],
    "scaled_mantissas": lambda: [scaled_mantissas()],
    "short_decimals": lambda: [short_decimals()],
    "powers_of_ten": lambda: [powers_of_ten()],
    "powers_of_two": lambda: [powers_of_two()],
    "exact_ties": lambda: [exact_ties()],
    "signed_zeros_and_non_finite": lambda: [signed_zeros_and_non_finite()],
    "several_chunks": several_chunks,
    "empty": lambda: [np.zeros((0, 4)), np.zeros((0, 0)), np.zeros((5, 0))],
}


@pytest.mark.parametrize("name", TABLES)
def test_float_rows_write_the_percent_text_of_every_value(name):
    for table in TABLES[name]():
        assert float_text(table) == percent_text(table)


def test_write_csv_peak_memory_does_not_grow_with_the_table(tmp_path):
    # the text is made and written one block of rows at a time, so the peak
    # while a table is written is one bound at 1000 and at 8000 rows of trace
    # draws (the whole text of 8000 rows is about 18 MB)
    rng = np.random.default_rng(27)
    header = [f"state_{j}" for j in range(102)]
    _write_csv(str(tmp_path / "first.csv"), ["a"], np.ones((1, 1)))
    for rows in (1000, 8000):
        table = rng.standard_normal((rows, 102))
        tracemalloc.start()
        try:
            _write_csv(str(tmp_path / "table.csv"), header, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, rows
        assert (tmp_path / "table.csv").read_bytes().endswith(percent_text(table[-1:]))


def test_atomic_write_keeps_the_target_when_a_block_fails(tmp_path):
    target = tmp_path / "t.csv"
    target.write_bytes(b"old\n")

    def blocks():
        yield b"new,"
        raise RuntimeError("block failed")

    with pytest.raises(RuntimeError, match="block failed"):
        atomic_write(str(target), blocks())
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]  # no .tmp-* file left behind


def test_atomic_write_into_a_missing_directory_is_an_io_error(tmp_path):
    with pytest.raises(IOError_, match="cannot write"):
        atomic_write(str(tmp_path / "missing" / "b.csv"), [b"x\n"])
    assert list(tmp_path.iterdir()) == []


def test_import_builds_no_float_table():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = "import sipr.cli, sipr._io as io; assert io._tables.cache_info().currsize == 0"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
