"""Orthonormal coordinates for the data-spanned function subspace.

The N datapoints span an (N - N0)-dimensional space of kernel combinations
satisfying the growth constraint, plus the N0-dimensional polynomial
nullspace. This module builds a norm-orthonormal basis H for the kernel part
(in datapoint order: each new point contributes its test function against the
points before it, giving H a staircase zero pattern). Coordinates h* = (h,
c_u) give the function with kernel coefficients H h and coefficients c_u over
the unit-box monomials M_u of the points' geometry, whose values at the
datapoints are

    E* h* = [G H, M_u^T] h* = G H h + M_u^T c_u,

and at probes evaluation_matrix(basis, P) h*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cholesky, null_space, solve_triangular
from scipy.linalg.lapack import dtrtri

from .errors import SingularSystem, TooFewPoints
from .geometry import Regularity, _Geometry, eta_norm_constant


@dataclass(eq=False)
class SubspaceBasis:
    """Kernel columns H on one point set: coordinates h* = (h, c_u) give the function H h, c_u.

    c_u weighs the unit-box monomials of the geometry (see _Geometry).

    build_orthonormal_basis gives the norm-orthonormal basis of the
    data-spanned subspace (C H^T G H = I, Nh = N - N0 columns); a pole fit's
    map has one column (the interpolant) or none (see RegressionFit).
    """

    geometry: _Geometry = field(repr=False)  # the points, eta, G and M_u
    H: np.ndarray  # (N, k) coefficient columns, M_u H = 0

    @property
    def X(self) -> np.ndarray:
        return self.geometry.X

    @property
    def eta(self) -> Regularity:
        return self.geometry.eta

    @property
    def n_points(self) -> int:
        return self.geometry.n_points

    @property
    def n_null(self) -> int:
        return self.geometry.n_null

    @property
    def n_basis(self) -> int:
        return self.H.shape[1]

    @cached_property
    def GH(self) -> np.ndarray:
        """The kernel block of E*: the basis columns' values at the datapoints.

        G H is computed as (H^T G)^T, the product build_orthonormal_basis's
        orthonormality check reads from here; on the staircase basis its
        largest rounding error measured 2-3 times smaller than G H's.
        """
        return (self.H.T @ self.geometry.G).T

    def spline_coefficients(self, h_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Kernel and unit-box polynomial coefficients (a, c_u) of the function at h*."""
        h_star = np.asarray(h_star, dtype=float).reshape(-1)[: self.n_points]
        return self.H @ h_star[: self.n_basis], h_star[self.n_basis :]


def _orthonormalize(Z: np.ndarray, G: np.ndarray, C: float) -> np.ndarray:
    """Z R^-1, where R^T R = C Z^T G Z is the Cholesky factor of the Gram matrix.

    R is upper triangular with a positive diagonal, so column j of the result
    mixes only columns 0..j of Z: this is Gram-Schmidt in column order.
    Raises LinAlgError when C Z^T G Z is not numerically positive definite.
    """
    R = cholesky(C * (Z.T @ G @ Z))
    return solve_triangular(R.T, Z.T, lower=True).T


def _staircase_top(M_u: np.ndarray) -> np.ndarray:
    """The first N0 + 1 rows of the staircase Z (see build_orthonormal_basis); the rest is [0 | I]."""
    N0 = M_u.shape[0]
    lead = M_u[:, : N0 + 1]
    ker = null_space(lead)
    if ker.shape[1] != 1:
        raise SingularSystem(
            "the first N0 + 1 points do not span a one-dimensional subspace "
            "(their monomial matrix is rank-deficient)"
        )
    Z_top = np.empty((N0 + 1, M_u.shape[1] - N0))
    Z_top[:, 0] = ker[:, 0] if ker[N0, 0] > 0 else -ker[:, 0]
    Z_top[:, 1:] = -np.linalg.pinv(lead) @ M_u[:, N0 + 1 :]
    return Z_top


def _orthonormalize_staircase(Z_top: np.ndarray, G: np.ndarray, C: float) -> np.ndarray:
    """_orthonormalize of the staircase Z = [[Z_top], [0 | I]], read off its structure.

    The Gram matrix costs O(N^2 N0) instead of two N^3 products. With k =
    N0 + 1 rows in Z_top, G Z = G[:, :k] Z_top + [0 | G[:, k:]], and
    Z^T (G Z) is Z_top^T times its first k rows plus, from row 1 on, its
    remaining rows. Z R^-1 is [Z_top R^-1; rows 1.. of R^-1], upper
    triangular below Z_top, so the staircase's zeros stay exact.
    """
    k = Z_top.shape[0]
    GZ = G[:, :k] @ Z_top
    GZ[:, 1:] += G[:, k:]
    gram = Z_top.T @ GZ[:k]
    gram[1:] += GZ[k:]
    R_inv = dtrtri(cholesky(C * gram), lower=0)[0]  # R's diagonal is positive: trtri cannot fail
    return np.vstack([Z_top @ R_inv, R_inv[1:]])


def build_orthonormal_basis(X, eta) -> SubspaceBasis:
    """Orthonormalize the data's constrained kernel combinations in datapoint order.

    Column j of the staircase Z = [z_0, z_1, ...] lives on the first N0 + 1
    points and point N0 + j: z_0 spans the one-dimensional kernel of the
    first N0 + 1 points' monomial matrix (signed positive at point N0), and
    z_j (j >= 1) is 1 at point N0 + j plus the minimum-norm correction on the
    first N0 + 1 points that restores M_u z_j = 0. H = Z R^-1 is Gram-Schmidt
    of Z in the eta-norm, so column j of H is the normalized test function of
    point N0 + j against all earlier points, last entry positive. The first
    pass reads Z's structure (_orthonormalize_staircase); one more pass
    against the computed Gram matrix removes the rounding the first Cholesky
    leaves at large N (CholeskyQR2, Fukaya et al. 2014). A Gram matrix
    that is not numerically positive definite, or a basis that is still not
    orthonormal to 1e-6, raises SingularSystem naming eta, N and the Gram
    matrix's condition number. The check's H^T G is the basis's cached GH,
    transposed, which a regression fit reuses.

    X may also be the _Geometry of the points already assembled (a fit's
    every stage shares one); eta is then the geometry's own.
    """
    geometry = X if isinstance(X, _Geometry) else _Geometry(X, eta)
    N, N0 = geometry.n_points, geometry.n_null
    if N < N0 + 1:
        raise TooFewPoints(f"need at least {N0 + 1} points, got {N}")
    G = geometry.G
    C = eta_norm_constant(geometry.dim, geometry.eta)
    Nh = N - N0

    Z_top = _staircase_top(geometry.M_u)
    try:
        H = _orthonormalize(_orthonormalize_staircase(Z_top, G, C), G, C)
    except np.linalg.LinAlgError:
        raise _ill_conditioned(geometry, "basis Gram matrix lost positive definiteness") from None
    basis = SubspaceBasis(geometry=geometry, H=H)
    resid = float(np.abs(C * (basis.GH.T @ H) - np.eye(Nh)).max())
    if not resid <= 1e-6:
        raise _ill_conditioned(geometry, f"basis is not orthonormal (max |C H^T G H - I| = {resid:.3e})")
    return basis


def _ill_conditioned(geometry: _Geometry, failure: str) -> SingularSystem:
    """The basis gate's error: what failed, eta, N and the condition number of the Gram matrix.

    The Gram matrix is Z^T G Z, the kernel on the constrained subspace (Z an
    orthonormal basis of the null space of M_u). It costs one more N^3 pass,
    which only a failed fit pays.
    """
    Z = null_space(geometry.M_u)
    kappa = np.linalg.cond(Z.T @ geometry.G @ Z)
    return SingularSystem(
        f"{failure}: the points' kernel system is too ill-conditioned at eta={geometry.eta.value:g} "
        f"for N={geometry.n_points} points (Gram matrix condition estimate {kappa:.1e}); "
        "use fewer or more widely spaced points, or a smaller eta"
    )


def evaluation_matrix(basis: SubspaceBasis, probes) -> np.ndarray:
    """Rows e(x) with e(x) . h* = value at probe x of the function with coordinates h*.

    Shape (P, k + N0): the kernel block g(x)^T H, then the monomials of the
    probe mapped into the geometry's unit box, which the coordinates' last N0
    entries weigh.
    """
    g, m = basis.geometry.probe_rows(probes)
    return np.hstack([g @ basis.H, m.T])
