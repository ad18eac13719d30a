"""Minimum-norm interpolation and the pointwise t-posterior built on it.

The interpolant through (X, y) is

    f(x) = sum_n a_n ||x - x_n||^(2 eta) + sum_v c_u[v] u(x)^v,   M_u a = 0,

with u(x) the unit-box map of the points' geometry, obtained from the saddle
system [[G, M_u^T], [M_u, 0]] [a; c_u] = [y; 0]. Among all functions of finite
norm that hit the data it minimizes the norm, and the posterior of the
function value at any other point is a Student-t centered on it, and its
values on any finite grid are jointly multivariate t. The points' geometry
solves the saddle in unit-box coordinates for conditioning, from its one
factorization, and maps a back to the caller's units; c reads the polynomial
over the caller's monomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, TooFewPoints
from .geometry import Regularity, _Geometry, as_points, as_regularity, nullspace_dim

# An interpolant whose squared norm falls below this fraction of ||y||^2 is
# treated as exactly polynomial data: the posterior collapses to a point mass.
POLYNOMIAL_TOL = 1e-12


def t_part(geometry: _Geometry, norm_sq: float, y: np.ndarray, probes: np.ndarray, dof: float):
    """The t part of a posterior at probe points (P, D) of a geometry: scale, sd, spread and border.

    The spread is ||f||^2, or 0 for exactly polynomial data (||f||^2 at most
    POLYNOMIAL_TOL ||y||^2), whose t part is a point mass. Otherwise the
    probes border the saddle once and the ratio ||f||^2 / ||t_x||^2 is the
    spread times the power function. The t scale is sqrt(ratio / dof); the
    sd, sqrt(ratio / (dof - 2)), exists only for dof > 2 and is NaN below
    that, except at point masses (ratio 0), where it is 0. The border
    (Q, B, W, power) serves the sample paths; it is None with spread 0.
    """
    spread = norm_sq if norm_sq > POLYNOMIAL_TOL * float(y @ y) else 0.0
    ratio, border = np.zeros(probes.shape[0]), None
    if spread:
        Q, B, W = geometry.border(probes)
        power = geometry.power_function(B, W)
        ratio, border = spread * power, (Q, B, W, power)
    sd = np.sqrt(ratio / (dof - 2)) if dof > 2 else np.where(ratio == 0.0, 0.0, np.nan)
    return np.sqrt(ratio / dof), sd, spread, border


@dataclass(eq=False)
class InterpolationModel:
    """Fitted interpolant in original coordinates, on the kernel geometry of its points."""

    geometry: _Geometry = field(repr=False)  # the points, eta and the factored saddle
    y: np.ndarray  # (N,) values
    a: np.ndarray  # (N,) kernel coefficients, M_u a = 0
    c_u: np.ndarray  # (N0,) polynomial coefficients over the unit-box monomials

    @property
    def c(self) -> np.ndarray:
        """Polynomial coefficients over the caller's monomials x^v, v in multi_indices(D, eta)."""
        return self.geometry.caller_polynomial(self.c_u)

    @property
    def X(self) -> np.ndarray:
        return self.geometry.X

    @property
    def eta(self) -> Regularity:
        return self.geometry.eta

    @cached_property
    def norm_sq(self) -> float:
        """Squared norm C a^T G a of the interpolant (_Geometry.norm_sq of its coefficients)."""
        return self.geometry.norm_sq(self.a)

    def evaluate(self, probes) -> np.ndarray:
        """Interpolant values at probe points, shape (P,)."""
        g, m = self.geometry.probe_rows(probes)
        # row by row, so a probe's value does not depend on the other probes
        return np.einsum("pn,n->p", g, self.a) + np.einsum("vp,v->p", m, self.c_u)

    __call__ = evaluate

    @property
    def dof(self) -> int:
        """Degrees of freedom of the pointwise t posteriors, N - N0."""
        return self.geometry.n_points - self.geometry.n_null

    def posterior(self, probes, seeds=()) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Mean, t scale and sd of the exact-data posterior at each probe, and joint sample paths.

        The t scale is sqrt(||f||^2 / (||t_x||^2 dof)); sd exists only for
        dof > 2 (NaN otherwise). Probes on a datapoint and exactly polynomial
        data give point masses: scale 0 and sd 0.

        The paths have shape (P, len(seeds)), one column per seed, and come
        from the same border solve. The exact-data posterior is a t-process,
        so its values on the probes are jointly multivariate t (Shah, Wilson
        & Ghahramani, AISTATS 2014): a path is mean + sqrt(||f||^2 / u) R xi
        with u ~ chi^2(dof), xi ~ N(0, I) and R R^T = K_c, the probes' kernel
        conditioned on the data,

            K_c = (Phi - B^T K^-1 B) scale^(2 eta) / C,   Phi[p, q] = ||q_p - q_q||^(2 eta),

        in unit-box coordinates; its diagonal is the power function. R = V
        sqrt(lam) V^T is the symmetric root from one eigendecomposition of K_c
        for every seed (negative rounding eigenvalues clamped to 0); it is
        continuous in K_c, so seeded paths do not jump under rounding. Probes
        on a datapoint (power function 0) and exactly polynomial data
        reproduce the mean. Deterministic for fixed seeds.
        """
        P = as_points(probes)
        mean = self.evaluate(P)
        seeds = list(seeds)
        paths = np.repeat(mean[:, None], len(seeds), axis=1)
        scale, sd, spread, border = t_part(self.geometry, self.norm_sq, self.y, P, self.dof)
        if seeds and border is not None:
            Q, B, W, power = border
            free = power > 0.0
            K_c = self.geometry.conditioned_kernel(Q[free], B[:, free], W[:, free])
            lam, V = np.linalg.eigh(0.5 * (K_c + K_c.T))
            R = (V * np.sqrt(np.maximum(lam, 0.0))) @ V.T
            for j, seed in enumerate(seeds):
                rng = np.random.default_rng(seed)
                u = rng.chisquare(self.dof)
                paths[free, j] += math.sqrt(spread / u) * (R @ rng.standard_normal(R.shape[1]))
        return mean, scale, sd, paths


def _checked_geometry(X, y, eta) -> tuple[_Geometry, np.ndarray]:
    """The geometry of the points X at eta and the values y, checked for a fit.

    Raises DimensionMismatch for a value count other than the point count or
    a non-finite value, and TooFewPoints below N0 + 1 points.
    """
    reg = as_regularity(eta)
    X = as_points(X)
    y = np.asarray(y, dtype=float).reshape(-1)
    N, D = X.shape
    if y.shape[0] != N:
        raise DimensionMismatch(f"{N} points but {y.shape[0]} values")
    if not np.all(np.isfinite(y)):
        raise DimensionMismatch("values contain non-finite entries")
    N0 = nullspace_dim(D, reg)
    if N < N0 + 1:
        raise TooFewPoints(
            f"need at least {N0 + 1} points for eta={reg.value:g} in {D} dimension(s), got {N}"
        )
    return _Geometry(X, reg), y


def solve_interpolation(X, y, eta) -> InterpolationModel:
    """Fit the minimum-norm interpolant through (X, y)."""
    geometry, y = _checked_geometry(X, y, eta)
    a, c_u = geometry.interpolant(y)
    return InterpolationModel(geometry=geometry, y=y, a=a, c_u=c_u)


# --- pointwise posterior --------------------------------------------------


@dataclass(frozen=True)
class PointwisePosterior:
    """Student-t posterior of the function value at one probe point.

    scale is the t scale parameter; sd is the standard deviation and exists
    only for dof > 2 (NaN otherwise). scale == 0 marks a point mass (probe at
    a datapoint, or data that is exactly polynomial).
    """

    mean: float
    scale: float
    dof: int
    sd: float


def pointwise_posterior(X, y, eta, x_t) -> PointwisePosterior:
    """Posterior of f(x_t) given exact observations (X, y).

    dof = N - N0. InterpolationModel.posterior does a whole probe set at
    once against one fitted model.
    """
    model = solve_interpolation(X, y, eta)
    mean, scale, sd, _ = model.posterior(np.reshape(np.asarray(x_t, dtype=float), (1, -1)))
    return PointwisePosterior(
        mean=float(mean[0]), scale=float(scale[0]), dof=model.dof, sd=float(sd[0])
    )
