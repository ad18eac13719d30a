"""Datasets: CSV loading, min-max scaling, a synthetic generator, folds.

The experiment protocol scales every feature to [0, 1] (recording the
transform so probes and predictions stay in original units) and evaluates
fits by k-fold cross-validated RMSE.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConstantFeature,
    DimensionMismatch,
    IOError_,
    KTooLarge,
    MissingValue,
    ParseError,
    ValidationError,
)
from .geometry import AffineMap


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus target, with the scaling transform if one was applied."""

    X: np.ndarray  # (N, D)
    y: np.ndarray  # (N,)
    feature_names: tuple[str, ...]
    target_name: str = "y"
    scaling: AffineMap | None = None  # per-feature min-max map onto [0, 1]

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.ndim != 1 or self.X.shape[0] != self.y.shape[0]:
            raise DimensionMismatch(
                f"X has shape {self.X.shape}, y has shape {self.y.shape}"
            )
        if len(self.feature_names) != self.X.shape[1]:
            raise DimensionMismatch(
                f"{len(self.feature_names)} feature names for {self.X.shape[1]} columns"
            )

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and non-blank data rows of a CSV file."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IOError_(f"cannot read {path}: {exc}") from exc
    rows = [r for r in rows if r and not (len(r) == 1 and not r[0].strip())]
    if len(rows) < 2:
        raise ValidationError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise ValidationError(f"{path}: repeated column name(s) in the header: {', '.join(repeated)}")
    return header, rows[1:]


def _parse_columns(path: str, header: list[str], data_rows: list[list[str]], columns) -> np.ndarray:
    """The given columns (header indices) of every data row as floats, shape (rows, columns).

    Row by row, each row's length is checked against the header before its
    cells are parsed in the given order; the first bad row or cell raises.
    """
    out = np.empty((len(data_rows), len(columns)))
    for r, row in enumerate(data_rows, start=1):
        if len(row) != len(header):
            raise ParseError(f"{path}: data row {r} has {len(row)} cells, header has {len(header)}")
        for j, i in enumerate(columns):
            cell, col = row[i].strip(), header[i]
            if not cell:
                raise MissingValue(f"{path}: empty cell at data row {r}, column {col!r}")
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(f"{path}: cannot parse {cell!r} at data row {r}, column {col!r}") from None
            if not math.isfinite(v):
                raise ParseError(f"{path}: non-finite value at data row {r}, column {col!r}")
            out[r - 1, j] = v
    return out


def load_csv(path: str, target: str) -> Dataset:
    """Read a headered numeric CSV; all non-target columns become features."""
    header, data_rows = _read_rows(path)
    if target not in header:
        raise ValidationError(
            f"{path}: target column {target!r} not found; available columns: {', '.join(header)}"
        )
    t_idx = header.index(target)
    feature_names = tuple(h for i, h in enumerate(header) if i != t_idx)
    if not feature_names:
        raise ValidationError(f"{path}: no feature columns besides the target")

    table = _parse_columns(path, header, data_rows, range(len(header)))
    X = np.delete(table, t_idx, axis=1)
    return Dataset(X=X, y=table[:, t_idx].copy(), feature_names=feature_names, target_name=target)


def load_probe_csv(path: str, feature_names) -> np.ndarray:
    """Read probe locations, selecting the named columns in training order.

    Extra columns (a target, say, when probing a labeled test file) are
    ignored; missing ones are an error.
    """
    feature_names = list(feature_names)
    header, data_rows = _read_rows(path)
    missing = [n for n in feature_names if n not in header]
    if missing:
        raise ValidationError(
            f"{path}: probe file is missing feature column(s): {', '.join(missing)}"
        )
    return _parse_columns(path, header, data_rows, [header.index(n) for n in feature_names])


def minmax_scale(dataset: Dataset) -> Dataset:
    """Scale every feature to span exactly [0, 1], recording the transform."""
    mins = dataset.X.min(axis=0)
    ranges = dataset.X.max(axis=0) - mins
    for j, r in enumerate(ranges):
        if r <= 0.0:
            raise ConstantFeature(
                f"feature {dataset.feature_names[j]!r} is constant and cannot be scaled"
            )
    scaling = AffineMap(shift=mins, scale=ranges)
    return replace(dataset, X=scaling.apply(dataset.X), scaling=scaling)


# --- synthetic benchmark ---------------------------------------------------


def higdon_truth(x) -> np.ndarray:
    """Two-frequency sinusoid sin(2 pi x / 10) + 0.2 sin(2 pi x / 2.5)."""
    x = np.asarray(x, dtype=float)
    return np.sin(2.0 * np.pi * x / 10.0) + 0.2 * np.sin(2.0 * np.pi * x / 2.5)


def higdon(n: int, sigma_y: float, seed: int = 0, x_range: tuple[float, float] = (0.0, 10.0)) -> Dataset:
    """n equispaced points on x_range with Gaussian noise of sd sigma_y."""
    if n < 2:
        raise ValidationError(f"need at least 2 points, got {n}")
    if sigma_y < 0:
        raise ValidationError(f"sigma_y must be >= 0, got {sigma_y}")
    x = np.linspace(x_range[0], x_range[1], n)
    rng = np.random.default_rng(seed)
    y = higdon_truth(x) + sigma_y * rng.standard_normal(n)
    return Dataset(X=x[:, None], y=y, feature_names=("x",), target_name="y")


# --- evaluation -------------------------------------------------------------


def kfold(n: int, k: int, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffle 0..n-1 and deal round-robin into k folds; returns (train, test) pairs."""
    if k < 2:
        raise ValidationError(f"need at least 2 folds, got {k}")
    if k > n:
        raise KTooLarge(f"{k} folds for {n} datapoints")
    order = np.random.default_rng(seed).permutation(n)
    folds = [np.sort(order[j::k]) for j in range(k)]
    out = []
    for j in range(k):
        test = folds[j]
        train = np.sort(np.concatenate([folds[i] for i in range(k) if i != j]))
        out.append((train, test))
    return out


def rmse(predicted, actual) -> float:
    """Root mean squared error between two equal-length vectors."""
    p = np.asarray(predicted, dtype=float).reshape(-1)
    a = np.asarray(actual, dtype=float).reshape(-1)
    if p.shape != a.shape:
        raise DimensionMismatch(f"length mismatch: {p.shape[0]} vs {a.shape[0]}")
    if p.size == 0:
        raise ValidationError("rmse of empty vectors")
    return float(np.sqrt(np.mean((p - a) ** 2)))
