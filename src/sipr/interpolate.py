"""Minimum-norm interpolation and the pointwise t-posterior built on it.

The interpolant through (X, y) is

    f(x) = sum_n a_n ||x - x_n||^(2 eta) + sum_v c_u[v] u(x)^v,   M_u a = 0,

with u(x) the unit-box map of the points' geometry, obtained from the saddle
system [[G, M_u^T], [M_u, 0]] [a; c_u] = [y; 0]. Among all functions of finite
norm that hit the data it minimizes the norm, and the posterior of the
function value at any other point is a Student-t centered on it, and its
values on any finite grid are jointly multivariate t. Solves run in unit-box
coordinates for conditioning, from the one factorization of the saddle that
the points' geometry holds; a is mapped back to the caller's units, and c
reads the polynomial over the caller's monomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, TooFewPoints
from .geometry import (
    Regularity,
    _Geometry,
    as_points,
    as_regularity,
    eta_norm_constant,
    nullspace_dim,
    pairwise_sq_dists,
)

# An interpolant whose squared norm falls below this fraction of ||y||^2 is
# treated as exactly polynomial data: the posterior collapses to a point mass.
POLYNOMIAL_TOL = 1e-12


def t_scale_and_sd(ratio: np.ndarray, dof: float) -> tuple[np.ndarray, np.ndarray]:
    """Scale and sd of t posteriors with dof degrees of freedom and ratios ||f||^2 / ||t_x||^2.

    The sd exists only for dof > 2; below that it is NaN, except at point
    masses (ratio 0), where it is 0.
    """
    scale = np.sqrt(ratio / dof)
    if dof > 2:
        return scale, np.sqrt(ratio / (dof - 2))
    return scale, np.where(ratio == 0.0, 0.0, np.nan)


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
        """Squared norm of the interpolant, eta_norm_sq of its coefficients."""
        return self.geometry.norm_sq(self.a)

    @property
    def _spread(self) -> float:
        """||f||^2, or 0 for exactly polynomial data, whose posterior is a point mass."""
        return self.norm_sq if self.norm_sq > POLYNOMIAL_TOL * float(self.y @ self.y) else 0.0

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

    def posterior(self, probes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mean, t scale and sd of the exact-data posterior at each probe.

        The t scale is sqrt(||f||^2 / (||t_x||^2 dof)); sd exists only for
        dof > 2 (NaN otherwise). Probes on a datapoint and exactly polynomial
        data give point masses: scale 0 and sd 0.
        """
        return self._posterior_and_paths(probes, ())[:3]

    def sample_paths(self, grid, seeds) -> np.ndarray:
        """Joint posterior sample paths over grid points, one column per seed, shape (G, S).

        The exact-data posterior is a t-process, so its values on a grid are
        jointly multivariate t (Shah, Wilson & Ghahramani, AISTATS 2014): a
        path is mean + sqrt(||f||^2 / u) R xi with u ~ chi^2(dof), xi ~ N(0, I)
        and R R^T = K_c, the grid's kernel conditioned on the data,

            K_c = (Phi - B^T K^-1 B) scale^(2 eta) / C,   Phi[p, q] = ||q_p - q_q||^(2 eta),

        in unit-box coordinates; its diagonal is the power function. R = V
        sqrt(lam) V^T is the symmetric root from one eigendecomposition of K_c
        for every seed (negative rounding eigenvalues clamped to 0); it is
        continuous in K_c, so seeded paths do not jump under rounding. Grid
        points on a datapoint (power function 0) and exactly polynomial data
        reproduce the mean. Deterministic for fixed seeds.
        """
        return self._posterior_and_paths(grid, seeds)[3]

    def _posterior_and_paths(self, probes, seeds):
        """posterior(probes) and sample_paths(probes, seeds), from one border solve."""
        P = as_points(probes)
        mean = self.evaluate(P)
        seeds = list(seeds)
        paths = np.repeat(mean[:, None], len(seeds), axis=1)
        ratio = np.zeros_like(mean)
        if self._spread:
            geo = self.geometry
            Q, B, W = geo.border(P)
            power = geo.power_function(B, W)
            ratio = self._spread * power
            if seeds:
                free = power > 0.0
                Q, B, W = Q[free], B[:, free], W[:, free]
                C = eta_norm_constant(geo.dim, self.eta)
                K_c = (pairwise_sq_dists(Q, Q) ** self.eta.value - B.T @ W) * (
                    geo.box.scale ** (2.0 * self.eta.value) / C
                )
                lam, V = np.linalg.eigh(0.5 * (K_c + K_c.T))
                R = (V * np.sqrt(np.maximum(lam, 0.0))) @ V.T
                for j, seed in enumerate(seeds):
                    rng = np.random.default_rng(seed)
                    u = rng.chisquare(self.dof)
                    paths[free, j] += math.sqrt(self._spread / u) * (R @ rng.standard_normal(R.shape[1]))
        return (mean, *t_scale_and_sd(ratio, self.dof), paths)


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
    N = geometry.n_points
    sol = geometry.saddle.solve(np.concatenate([y, np.zeros(geometry.n_null)]))
    a = sol[:N] * geometry.box.scale ** (-2.0 * geometry.eta.value)
    return InterpolationModel(geometry=geometry, y=y, a=a, c_u=sol[N:])


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

    @property
    def is_point_mass(self) -> bool:
        return self.scale == 0.0


def pointwise_posterior(X, y, eta, x_t, model: InterpolationModel | None = None) -> PointwisePosterior:
    """Posterior of f(x_t) given exact observations (X, y).

    dof = N - N0. Pass a pre-fitted model to avoid re-solving when probing
    many points against the same data; InterpolationModel.posterior does a
    whole probe set at once.
    """
    if model is None:
        model = solve_interpolation(X, y, eta)
    mean, scale, sd = model.posterior(np.reshape(np.asarray(x_t, dtype=float), (1, -1)))
    return PointwisePosterior(
        mean=float(mean[0]), scale=float(scale[0]), dof=model.dof, sd=float(sd[0])
    )
