"""Atomic file writes: everything lands via rename so readers never see partial output."""

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


def _write_csv(path: str, header: list[str], table, comment: str | None = None) -> None:
    """Write a 2-D float table as CSV: an optional comment line, the header, then repr rows."""
    lines = ([] if comment is None else [comment]) + [",".join(header)]
    lines += [",".join(map(repr, row)) for row in np.asarray(table, dtype=float).tolist()]
    atomic_write_text(path, "\n".join(lines) + "\n")
