"""Atomic file writes, and the exact text of float tables.

Everything lands via rename so readers never see partial output.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .errors import IOError_


def atomic_write_text(path: str, content: str) -> None:
    """Write content to path through a temp file + rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(content)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IOError_(f"cannot write {path}: {exc}") from exc


def _float_rows(table) -> list[str]:
    """The rows of a 2-D float table as comma-separated text, exact to the bit.

    Every value is written with 17 significant digits ("%.17g"), which
    round-trip every binary64 value through float(), so the text parses back
    to the same bits; -0.0, nan and +-inf print as -0, nan and +-inf. Each
    row is one C-level % format instead of one repr per value, and only one
    row at a time is held as Python floats. A row's leading run of +0.0 (a
    staircase basis is about half such zeros) is written as the text 0 without
    formatting.
    """
    table = np.asarray(table, dtype=float)
    n = table.shape[1]
    zeros = np.logical_and.accumulate((table == 0.0) & ~np.signbit(table), axis=1).sum(axis=1)
    formats: dict[int, str] = {}
    rows = []
    for values, k in zip(table, zeros.tolist()):
        if k not in formats:
            formats[k] = ",".join(["0"] * k + ["%.17g"] * (n - k))
        rows.append(formats[k] % tuple(values[k:].tolist()))
    return rows


def _write_csv(path: str, header: list[str], table, comment: str | None = None) -> None:
    """Write a 2-D float table as CSV: an optional comment line, the header, then exact rows."""
    lines = ([] if comment is None else [comment]) + [",".join(header)] + _float_rows(table)
    atomic_write_text(path, "\n".join([*lines, ""]))
