"""Reference implementations the tests compare the library against.

They build their objects the slow, literal way, straight from the
definitions, one dense solve per probe, per basis column or per iteration:

* ``test_function`` -- the minimum-norm function that is 1 at a probe and 0 at
  every datapoint, as the interpolant through the augmented point set. The
  library reads its squared norm off the power function instead.
* ``loop_orthonormal_basis`` -- the staircase basis column by column: column j
  is the test function of point N0 + j against all earlier points, scaled to
  unit norm and sign-fixed, then re-orthonormalized once. The library builds
  the same basis from one Cholesky factor.
* ``map_estimate`` -- the MAP fixed point with one dense solve of
  Sigma_inv + lam P per iteration. The library iterates elementwise in the
  coordinates that diagonalise both quadratic forms.
* ``laplace_precondition`` -- the Cholesky factor of the dense negative
  Hessian at a state, with a diagonal fallback. The library applies the same
  metric as a diagonal and one rank-one term in those coordinates.
* ``sigma_inv_at``, ``hessian``, ``initial_state`` and ``draw_log_sigma`` --
  the dense precision, the analytic Hessian, the state layout and the exact
  log-sigma draw of a ``PosteriorDensity`` in its original coordinates.
* ``sequential_sample_path`` -- a sample path drawn one grid point at a time,
  each value from its pointwise t posterior and then added to the data by a
  refit. The library draws the whole grid jointly from one factored saddle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cholesky, null_space, solve_triangular

from sipr.basis import SubspaceBasis
from sipr._linalg import SymmetricFactor
from sipr.errors import (
    CoincidesWithDatapoint,
    DimensionMismatch,
    DomainError,
    NoConvergence,
    PoleCollapse,
    SingularSystem,
    TooFewPoints,
)
from sipr.geometry import (
    DUPLICATE_TOL,
    _Geometry,
    as_points,
    as_regularity,
    eta_norm_constant,
    greens_matrix,
    monomial_matrix,
    nullspace_dim,
    unit_box_map,
)
from sipr.interpolate import InterpolationModel, pointwise_posterior, solve_interpolation
from sipr.posterior import _log_sigma_draw


@dataclass(eq=False)
class TestFunction:
    """Minimum-norm function with value 1 at x_t and 0 at every datapoint.

    Internally just the interpolant through the augmented points [x_t; X]
    with values [1, 0, ..., 0]; a_t is the coefficient on the probe's kernel.
    """

    x_t: np.ndarray
    model: InterpolationModel  # over augmented points, probe first

    @property
    def a_t(self) -> float:
        return float(self.model.a[0])

    @property
    def a(self) -> np.ndarray:
        return self.model.a[1:]

    @property
    def c(self) -> np.ndarray:
        return self.model.c

    @cached_property
    def norm_sq(self) -> float:
        return self.model.norm_sq

    def evaluate(self, probes) -> np.ndarray:
        return self.model.evaluate(probes)

    __call__ = evaluate


def _nearest_datapoint(X: np.ndarray, x_t: np.ndarray) -> tuple[int, float]:
    """Index and unit-box distance of the datapoint closest to x_t."""
    box = unit_box_map(X)
    du = box.forward(X) - box.forward(x_t[None, :])
    d = np.sqrt(np.einsum("nd,nd->n", du, du))
    n = int(np.argmin(d))
    return n, float(d[n])


def test_function(X, x_t, eta) -> TestFunction:
    """Build the test function of probe x_t against datapoints X."""
    X = as_points(X)
    x_t = np.asarray(x_t, dtype=float).reshape(-1)
    if x_t.shape[0] != X.shape[1]:
        raise DimensionMismatch(f"probe has {x_t.shape[0]} features, data has {X.shape[1]}")
    n, dist = _nearest_datapoint(X, x_t)
    if dist < DUPLICATE_TOL:
        raise CoincidesWithDatapoint(f"probe coincides with datapoint {n}")
    X_aug = np.vstack([x_t[None, :], X])
    y_aug = np.zeros(X_aug.shape[0])
    y_aug[0] = 1.0
    model = solve_interpolation(X_aug, y_aug, eta)
    return TestFunction(x_t=x_t, model=model)


def _fix_sign(h: np.ndarray) -> np.ndarray:
    """Flip the column so its last nonzero entry is positive."""
    mag = np.abs(h)
    tol = 1e-12 * mag.max(initial=0.0)
    nz = np.nonzero(mag > tol)[0]
    if nz.size and h[nz[-1]] < 0:
        return -h
    return h


def loop_orthonormal_basis(X, eta) -> SubspaceBasis:
    """Construct the basis column by column in datapoint order.

    Column 0 spans the one-dimensional subspace of the first N0 + 1 points
    (the kernel of their monomial matrix); column j is the test function of
    point N0 + 1 + j against all earlier points. Each column is scaled to
    unit norm and sign-fixed so the construction is deterministic.
    """
    reg = as_regularity(eta)
    X = as_points(X)
    N, D = X.shape
    N0 = nullspace_dim(D, reg)
    if N < N0 + 1:
        raise TooFewPoints(f"need at least {N0 + 1} points, got {N}")
    G = greens_matrix(X, reg)
    M = monomial_matrix(X, reg)
    C = eta_norm_constant(D, reg)
    Nh = N - N0

    H = np.zeros((N, Nh))
    ker = null_space(M[:, : N0 + 1])
    if ker.shape[1] != 1:
        raise SingularSystem(
            "the first N0 + 1 points do not span a one-dimensional subspace "
            "(their monomial matrix is rank-deficient)"
        )
    H[: N0 + 1, 0] = ker[:, 0]
    for j in range(1, Nh):
        i = N0 + j  # 0-based index of the point this column adds
        tf = test_function(X[:i], X[i], reg)
        H[i, j] = tf.a_t
        H[:i, j] = tf.a

    for j in range(Nh):
        q = C * float(H[:, j] @ G @ H[:, j])
        if not np.isfinite(q) or q <= 0.0:
            raise SingularSystem(f"basis column {j} has non-positive squared norm ({q:.3e})")
        H[:, j] = _fix_sign(H[:, j] / np.sqrt(q))

    # The column solves leave O(eps * cond) cross terms at large N and high
    # eta, so re-orthonormalize once against the computed Gram matrix. R is
    # upper triangular with a positive diagonal: H @ inv(R) only mixes
    # earlier columns into later ones, which keeps the staircase pattern and
    # the sign convention intact.
    gram = C * (H.T @ G @ H)
    try:
        R = cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("basis Gram matrix lost positive definiteness") from exc
    H = solve_triangular(R.T, H.T, lower=True).T

    return SubspaceBasis(geometry=_Geometry(X, reg), H=H)


def map_estimate(density, tol: float = 1e-10, max_iter: int = 200) -> np.ndarray:
    """Fixed point of (Sigma_inv + (Nh/||h||^2) P) h* = Sigma_inv h*_mu.

    P projects onto the kernel block. Starts at h*_mu; in unknown-noise mode
    the precision is evaluated at the initial sigma. Returns the MAP h*
    (length n_points, without the log-sigma entry). Raises PoleCollapse when
    the iterate's kernel block collapses below 1e-10 of the interpolant's.
    """
    Nh = density.n_basis
    h_mu = density.h_mu_star
    norm_mu = density.h_mu_norm
    if norm_mu == 0.0:
        raise PoleCollapse("interpolant is exactly polynomial; no kernel component to fit")
    Sigma_inv = sigma_inv_at(density, 0.0 if density.noise.is_known else math.log(density.noise.sigma_init))
    rhs = Sigma_inv @ h_mu
    state = h_mu.copy()
    rel = math.inf
    for _ in range(max_iter):
        lam = Nh / float(state[:Nh] @ state[:Nh])
        A = Sigma_inv.copy()
        A[np.arange(Nh), np.arange(Nh)] += lam
        new = SymmetricFactor(A).solve(rhs)
        if np.linalg.norm(new[:Nh]) < 1e-10 * norm_mu:
            raise PoleCollapse("MAP iteration collapsed onto the nullspace pole")
        rel = float(np.linalg.norm(new - state) / max(np.linalg.norm(new), 1e-300))
        state = new
        if rel < tol:
            return state
    raise NoConvergence(
        f"MAP iteration did not reach tol={tol:g} in {max_iter} steps (last change {rel:.3e})",
        last_iterate=state,
        residual=rel,
    )


def laplace_precondition(h_map, density) -> np.ndarray:
    """Lower-triangular L with L L^T = -Hessian of the log posterior at h_map.

    Preconditioned coordinates are z = L^T h*; near the MAP the density is
    approximately a unit Gaussian there. When the negative Hessian is not
    positive definite, falls back to a diagonal preconditioner from the
    positive part of its diagonal.
    """
    state = initial_state(density, np.asarray(h_map, dtype=float).reshape(-1))
    negH = -hessian(density, state)
    noise = getattr(density, "noise", None)
    if noise is not None and not noise.is_known:
        # The sigma-coordinate cross terms hold only at the MAP residual and
        # shear the whitened space badly away from it; the block-diagonal
        # metric mixes the coefficient block an order of magnitude faster.
        negH[:-1, -1] = 0.0
        negH[-1, :-1] = 0.0
    try:
        return np.linalg.cholesky(negH)
    except np.linalg.LinAlgError:
        d = np.diag(negH).copy()
        floor = max(float(np.abs(d).max(initial=0.0)) * 1e-12, 1e-12)
        d[~np.isfinite(d) | (d <= 0.0)] = 1.0
        d = np.maximum(d, floor)
        return np.diag(np.sqrt(d))


def sigma_inv_at(density, log_sigma: float) -> np.ndarray:
    if density.noise.is_known:
        return density.Sigma_inv
    return density.base_quad * math.exp(-2.0 * log_sigma)


def hessian(density, state) -> np.ndarray:
    """Analytic Hessian of the log posterior (the Laplace metric is tested against it)."""
    h_star, log_sigma = density._split(state)
    n2 = density._h_norm_sq(h_star)
    h = h_star[: density.n_basis]
    Hm = np.zeros((density.dim, density.dim))
    Nh = density.n_basis
    Hm[:Nh, :Nh] = -density.n_basis * (np.eye(Nh) / n2 - 2.0 * np.outer(h, h) / n2**2)
    N = density.n_points
    if density.noise.is_known:
        Hm[:N, :N] -= density.Sigma_inv
        return Hm
    w = math.exp(-2.0 * log_sigma)
    r = h_star - density.h_mu_star
    Ar = density.base_quad @ r
    Hm[:N, :N] -= w * density.base_quad
    Hm[:N, -1] = 2.0 * w * Ar
    Hm[-1, :N] = Hm[:N, -1]
    Hm[-1, -1] = -2.0 * w * float(r @ Ar)
    return Hm


def initial_state(density, h_star: np.ndarray) -> np.ndarray:
    """Append the initial log sigma in unknown-noise mode."""
    h_star = np.asarray(h_star, dtype=float).reshape(-1)
    if density.noise.is_known:
        return h_star.copy()
    if h_star.shape[0] == density.dim:
        return h_star.copy()
    return np.append(h_star, math.log(density.noise.sigma_init))


def draw_log_sigma(density, h_star: np.ndarray, rng: np.random.Generator) -> float:
    """Exact draw of log sigma from its conditional at fixed coordinates.

    In u = sigma^-2 the conditional is Gamma(N/2, rate q/2) with q the
    squared data misfit, so the noise scale can be resampled in one move.
    Leapfrog steps alone crawl down the interpolation-pole funnel far too
    slowly for the pole to show up within any reasonable budget.
    """
    if density.noise.is_known:
        raise DomainError("the noise scale is fixed; there is nothing to draw")
    r = np.asarray(h_star, dtype=float).reshape(-1) - density.h_mu_star
    return _log_sigma_draw(density.n_points, float(r @ density.base_quad @ r), rng)


def sequential_sample_path(X, y, eta, grid, seed) -> tuple[np.ndarray, int]:
    """One posterior sample path over grid points, drawn sequentially.

    Each grid value is drawn from its pointwise t-posterior and then added to
    the conditioning set, so later grid points see earlier draws. Grid points
    that land on existing points are point masses: they reproduce the value
    there and add nothing. Deterministic for a fixed seed.

    Returns the path and the number of grid points that kept their mean
    because the grown conditioning set was too ill-conditioned to refit.
    """
    reg = as_regularity(eta)
    grid = as_points(grid)
    rng = np.random.default_rng(seed)
    out = np.empty(grid.shape[0])
    kept_mean = 0
    model = solve_interpolation(X, y, reg)
    for i, g in enumerate(grid):
        pp = pointwise_posterior(None, None, reg, g, model=model)
        out[i] = pp.mean
        if pp.is_point_mass:
            continue
        value = pp.mean + pp.scale * rng.standard_t(pp.dof)
        try:
            model = solve_interpolation(
                np.vstack([model.X, g[None, :]]), np.append(model.y, value), reg
            )
        except SingularSystem:
            # The grid has packed the conditioning set past what the saddle
            # solve resolves: the scale here is below working precision, so
            # the point keeps its coincident limit, the mean, and adds nothing.
            kept_mean += 1
            continue
        out[i] = value
    return out, kept_mean
