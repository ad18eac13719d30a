"""The basis orthonormality identity written with numpy alone, sharing no code with sipr.

A basis of the data-spanned subspace with coefficient columns H over points
X is orthonormal in the eta-norm when C H^T G H = I, with G[n, m] =
||x_n - x_m||^(2 eta) and C the norm constant of the kernel.
"""

from __future__ import annotations

import math

import numpy as np


def norm_constant(dim: int, eta: float) -> float:
    """C with ||f||^2 = C a^T G a for the kernel |x|^(2 eta) in `dim` dimensions."""
    sign = -1.0 if math.ceil(eta) % 2 else 1.0
    return sign * (
        math.gamma(eta + 0.5)
        * math.pi ** ((dim + 1) / 2)
        / (math.gamma(eta + dim / 2) * math.gamma(2 * eta + 1))
    )


def kernel(A: np.ndarray, B: np.ndarray, eta: float) -> np.ndarray:
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    return d2**eta


def orthonormality_residual(X, H, eta: float) -> float:
    """max |C H^T G H - I| for basis coefficient columns H over points X."""
    X = np.asarray(X, dtype=float)
    H = np.asarray(H, dtype=float)
    gram = norm_constant(X.shape[1], eta) * (H.T @ kernel(X, X, eta) @ H)
    return float(np.abs(gram - np.eye(H.shape[1])).max())
