"""Kernel geometry: the radial basis, its polynomial nullspace, and the norm constant.

Everything downstream is built from two arrays computed here for a point set
X (N x D) and a regularity exponent eta,

    G[n, m] = ||x_n - x_m||^(2 eta)        (symmetric, zero diagonal)
    M[v, n] = x_n^v                        (one row per multi-index |v| < eta)

and the constant that turns the quadratic form a^T G a into a squared norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.special import gammaln

from .errors import DimensionMismatch, DuplicatePoints, IntegerEta

# Tolerance for "two points coincide", applied in unit-box coordinates.
DUPLICATE_TOL = 1e-12


@dataclass(frozen=True)
class Regularity:
    """Validated regularity exponent.

    value must be positive and non-integer; floor(value) is the number of
    guaranteed derivatives and value - floor(value) the Hurst-type exponent
    of the roughest derivative.
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v) or v <= 0.0:
            raise IntegerEta(f"regularity exponent must be positive and finite, got {self.value!r}")
        if abs(v - round(v)) <= 1e-6:
            raise IntegerEta(
                f"regularity exponent must not be an integer (got {self.value!r}); "
                "the kernel family is undefined at integer values"
            )
        object.__setattr__(self, "value", v)

    @property
    def floor(self) -> int:
        return int(math.floor(self.value))

    @property
    def hurst(self) -> float:
        return self.value - self.floor


def as_regularity(eta) -> Regularity:
    """Accept a float or an existing Regularity."""
    if isinstance(eta, Regularity):
        return eta
    return Regularity(float(eta))


def as_points(X) -> np.ndarray:
    """Coerce to a float (N, D) array; 1-D input is treated as D = 1."""
    A = np.asarray(X, dtype=float)
    if A.ndim == 1:
        A = A[:, None]
    if A.ndim != 2:
        raise DimensionMismatch(f"point array must be 1- or 2-dimensional, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise DimensionMismatch("point array contains non-finite entries")
    return A


def multi_indices(dim: int, eta) -> list[tuple[int, ...]]:
    """All multi-indices v with |v| < eta, graded lexicographic.

    Degree-0 first; within a degree, descending lexicographic, e.g. for
    dim=2, eta=1.5: [(0,0), (1,0), (0,1)].
    """
    reg = as_regularity(eta)
    if dim < 1:
        raise DimensionMismatch(f"dim must be >= 1, got {dim}")
    idx = [t for t in product(range(reg.floor + 1), repeat=dim) if sum(t) <= reg.floor]
    idx.sort(key=lambda t: (sum(t), tuple(-e for e in t)))
    return idx


def nullspace_dim(dim: int, eta) -> int:
    """Dimension of the polynomial nullspace, binom(floor(eta) + dim, floor(eta))."""
    reg = as_regularity(eta)
    return math.comb(reg.floor + dim, reg.floor)


def eta_norm_constant(dim: int, eta) -> float:
    """Constant relating a^T G a to the squared norm of the interpolant.

        C = (-1)^ceil(eta) * Gamma(eta + 1/2) * pi^((dim+1)/2)
            / (Gamma(eta + dim/2) * Gamma(2 eta + 1))

    Worked values: (dim=1, eta=0.5) -> -pi; (dim=1, eta=1.5) -> pi/6;
    (dim=3, eta=0.5) -> -pi^2.
    """
    reg = as_regularity(eta)
    e = reg.value
    sign = -1.0 if math.ceil(e) % 2 else 1.0
    log_mag = (
        gammaln(e + 0.5)
        + 0.5 * (dim + 1) * math.log(math.pi)
        - gammaln(e + dim / 2.0)
        - gammaln(2.0 * e + 1.0)
    )
    return sign * math.exp(log_mag)


# --- matrices -----------------------------------------------------------


def pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of A and rows of B."""
    diff = A[:, None, :] - B[None, :, :]
    return np.einsum("nmd,nmd->nm", diff, diff)


def check_distinct(X: np.ndarray) -> None:
    """Raise DuplicatePoints if two rows coincide within tolerance in unit-box coords."""
    X = as_points(X)
    span = unit_box_map(X)
    U = span.forward(X)
    d2 = pairwise_sq_dists(U, U)
    np.fill_diagonal(d2, np.inf)
    if d2.min() < DUPLICATE_TOL**2:
        n, m = np.unravel_index(int(np.argmin(d2)), d2.shape)
        raise DuplicatePoints(f"points {n} and {m} coincide within tolerance {DUPLICATE_TOL:g}")


def greens_matrix(X, eta) -> np.ndarray:
    """G[n, m] = ||x_n - x_m||^(2 eta) with an exactly zero diagonal."""
    reg = as_regularity(eta)
    X = as_points(X)
    check_distinct(X)
    d2 = pairwise_sq_dists(X, X)
    np.fill_diagonal(d2, 0.0)
    G = d2**reg.value
    np.fill_diagonal(G, 0.0)
    return G


def monomial_matrix(X, eta) -> np.ndarray:
    """M[v, n] = x_n^v over the multi-indices with |v| < eta (N0 x N)."""
    X = as_points(X)
    idx = multi_indices(X.shape[1], eta)
    M = np.empty((len(idx), X.shape[0]))
    for i, v in enumerate(idx):
        M[i] = np.prod(X ** np.asarray(v, dtype=float), axis=1)
    return M


# --- conditioning transform ----------------------------------------------


@dataclass(frozen=True)
class UnitBoxMap:
    """Scalar affine map x -> (x - shift) / scale used to condition solves.

    A single scale (the widest feature range) keeps the map isotropic, so the
    kernel model is exactly covariant under it and results can be mapped back
    without approximation.
    """

    shift: np.ndarray  # (D,)
    scale: float

    def forward(self, X: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(X) - self.shift) / self.scale


def unit_box_map(X) -> UnitBoxMap:
    """Translate to the feature minima and divide by the largest feature range.

    Degenerate spreads (all points equal in every feature) fall back to
    scale 1 so the map stays invertible; duplicate detection rejects that
    case later anyway.
    """
    X = as_points(X)
    lo = X.min(axis=0)
    span = float((X.max(axis=0) - lo).max())
    if not np.isfinite(span) or span <= 0.0:
        span = 1.0
    return UnitBoxMap(shift=lo, scale=span)
