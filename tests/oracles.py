"""Reference implementations the tests compare the library against.

They build their objects the slow, literal way, straight from the
definitions, one dense solve per probe, per basis column or per iteration:

* ``kernel_matrix`` and ``to_unit_box`` -- the kernel ||x_n - x_m||^(2 eta)
  and the unit-box map written out in numpy, so no reference reuses the
  geometry it is compared with.
* ``test_function`` -- the minimum-norm function that is 1 at a probe and 0 at
  every datapoint, as the interpolant through the augmented point set. The
  library reads its squared norm off the power function instead.
* ``loop_orthonormal_basis`` -- the staircase basis column by column: column j
  is the test function of point N0 + j against all earlier points, scaled to
  unit norm and sign-fixed, then re-orthonormalized once. The library builds
  the same basis from one Cholesky factor.
* ``map_estimate`` -- the MAP fixed point, bracketed on its norm equation
  with one dense solve of Sigma0 + lam P per trial norm. The library
  evaluates the same equation elementwise in the coordinates that
  diagonalise both quadratic forms.
* ``laplace_precondition`` -- the Cholesky factor of the dense negative
  Hessian at a state, with a diagonal fallback. ``_laplace_metric`` below
  applies the same metric as a diagonal and one rank-one term in those
  coordinates.
* ``dense_density`` -- a ``PosteriorDensity`` that also holds E* = [G H, M^T]
  and the misfit's precision E*^T E*, built as dense matrices. The library
  reads the misfit off one eigendecomposition and forms neither.
* ``sigma_inv_at``, ``hessian``, ``initial_state`` and ``draw_log_sigma`` --
  the dense precision, the analytic Hessian, the state layout and the exact
  log-sigma draw of a ``dense_density`` in its original coordinates.
* ``hmc_posterior`` -- the regression posterior sampled by HMC in those
  coordinates, with the Laplace metric at the MAP (``_laplace_metric``,
  ``_Diagonalised``), an exact log-sigma draw between trajectories and the
  regime read off the traces (``detect_poles``). The library computes the
  same posterior exactly as a one-dimensional scale mixture.
* ``brentq_sigma_quantiles`` and ``bisected_sigma_quantiles`` -- the sigma_y
  quantiles of the exact posterior, each found by Brent's method on the
  mixture's CDF from its own bracket, or by bisecting the three brackets
  together to 1e-14. The library takes safeguarded Newton steps instead.
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
from scipy.optimize import brentq
from scipy.special import gammaincc, gammainccinv

from sipr.basis import SubspaceBasis
from sipr.geometry import SymmetricFactor
from sipr.errors import (
    DimensionMismatch,
    DomainError,
    NoConvergence,
    PoleCollapse,
    SingularSystem,
    TooFewPoints,
    ValidationError,
)
from sipr.geometry import (
    DUPLICATE_TOL,
    _Geometry,
    as_points,
    as_regularity,
    eta_norm_constant,
    monomial_matrix,
    nullspace_dim,
)
from sipr.interpolate import InterpolationModel, solve_interpolation
from sipr import sampler
from sipr.posterior import PosteriorDensity, _largest_root, _map_coordinates, build_density
from sipr.sampler import (
    INTERPOLATION_POLE_TOL,
    NULLSPACE_POLE_TOL,
    Diagnostics,
    Regime,
    RegressionPosterior,
    SamplerConfig,
    _find_initial_step,
    _split_rhat,
    posterior_moments,
)


class CoincidesWithDatapoint(ValidationError):
    """A probe point coincides with a datapoint where a test function is undefined."""


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


def kernel_matrix(A, eta) -> np.ndarray:
    """||a_n - a_m||^(2 eta) between the rows of A, with a zero diagonal."""
    A = as_points(A)
    G = ((A[:, None, :] - A[None, :, :]) ** 2).sum(axis=2) ** as_regularity(eta).value
    np.fill_diagonal(G, 0.0)
    return G


def to_unit_box(X, P=None) -> np.ndarray:
    """P (default X) shifted by X's feature minima and divided by X's widest feature range (1 if none)."""
    X = as_points(X)
    lo = X.min(axis=0)
    return ((X if P is None else as_points(P)) - lo) / ((X.max(axis=0) - lo).max() or 1.0)


def _nearest_datapoint(X: np.ndarray, x_t: np.ndarray) -> tuple[int, float]:
    """Index and unit-box distance of the datapoint closest to x_t."""
    du = to_unit_box(X) - to_unit_box(X, x_t[None, :])
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
    G = kernel_matrix(X, reg)
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
    """Fixed point of (Sigma0 + (Nh/||h||^2) P) h* = Sigma0 h*_mu, with dense solves.

    P projects onto the kernel block; in unknown-noise mode the precision is
    evaluated at the initial sigma. For each trial r = ||h||^2 one dense
    solve gives h(Nh/r), and the fixed point is the largest root below
    ||h_mu||^2 of log ||h(Nh/r)||^2 - log r, bracketed and bisected as the
    library does. Raises PoleCollapse when there is no root above 1e-10 of
    the interpolant's norm.
    """
    Nh = density.n_basis
    norm_mu = density.h_mu_norm
    if norm_mu == 0.0:
        raise PoleCollapse("interpolant is exactly polynomial; no kernel component to fit")
    Sigma_inv = sigma_inv_at(density, 0.0 if density.noise.is_known else math.log(density.noise.sigma_init))
    rhs = Sigma_inv @ density.h_mu_star

    def solve(log_r: float, gated: bool = True) -> np.ndarray:
        A = Sigma_inv.copy()
        A[np.arange(Nh), np.arange(Nh)] += Nh * math.exp(-log_r)
        # the scan's trial norms reach far past the rcond gate; only the answer is gated
        return SymmetricFactor(A).solve(rhs) if gated else np.linalg.solve(A, rhs)

    def residual(u):
        out = []
        for v in u:
            h = solve(v, gated=False)
            out.append(math.log(float(h[:Nh] @ h[:Nh])) - v)
        return np.array(out)

    found = _largest_root(residual, 2.0 * math.log(norm_mu), tol, max_iter)
    if found is None:
        raise PoleCollapse("MAP collapses onto the nullspace pole")
    u, _, width = found
    if width > tol:
        raise NoConvergence(f"MAP bisection did not reach tol={tol:g}", last_iterate=solve(u), residual=width)
    return solve(u)


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


@dataclass(eq=False)
class DenseDensity(PosteriorDensity):
    """A library density with its dense E* and misfit precision E*^T E* (see dense_density)."""

    Estar: np.ndarray  # (N, N)
    quad: np.ndarray  # (N, N) E*^T E*, the misfit's precision at unit noise sd


def dense_density(basis: SubspaceBasis, y, noise) -> DenseDensity:
    """build_density's density, plus E* = [G H, M_u^T] and E*^T E* as dense matrices.

    G H is formed as (H^T G)^T, the order in which the library computes the
    basis's kernel block: the two products differ at rounding level, which
    the conditioning of E* amplifies to about 1e-9 of the solution at N = 400.
    """
    d = build_density(basis, y, noise)
    E = np.hstack([(basis.H.T @ basis.geometry.G).T, basis.geometry.M_u.T])
    return DenseDensity(T=d.T, s=d.s, t_mu=d.t_mu, poly_rows=d.poly_rows, noise=d.noise, Estar=E, quad=E.T @ E)


def sigma_inv_at(density, log_sigma: float) -> np.ndarray:
    if density.noise.is_known:
        return density.quad / density.noise.sigma**2
    return density.quad * math.exp(-2.0 * log_sigma)


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
        Hm[:N, :N] -= density.quad / density.noise.sigma**2
        return Hm
    w = math.exp(-2.0 * log_sigma)
    r = h_star - density.h_mu_star
    Ar = density.quad @ r
    Hm[:N, :N] -= w * density.quad
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
    return _log_sigma_draw(density.n_points, float(r @ density.quad @ r), rng)


def brentq_sigma_quantiles(Q: np.ndarray, w: np.ndarray, n_basis: int) -> tuple[float, float, float]:
    """q05, median and q95 of sigma for the mixture of 1/sigma^2 ~ Gamma(Nh/2, rate Q/2) with weights w."""
    shape = 0.5 * n_basis

    def excess_cdf(log_sigma, q):
        return float(w @ gammaincc(shape, 0.5 * Q * math.exp(-2.0 * log_sigma))) - q

    out = []
    for q in (0.05, 0.5, 0.95):
        per_node = 0.5 * np.log(0.5 * Q / gammainccinv(shape, q))
        lo, hi = per_node.min(), per_node.max()
        out.append(math.exp(lo if hi - lo < 1e-12 else brentq(excess_cdf, lo, hi, args=(q,), xtol=1e-14)))
    return tuple(out)


def bisected_sigma_quantiles(Q: np.ndarray, w: np.ndarray, n_basis: int) -> tuple[float, float, float]:
    """The quantiles of brentq_sigma_quantiles, by bisecting the three per-node brackets to 1e-14."""
    shape = 0.5 * n_basis
    q = np.array([0.05, 0.5, 0.95])
    per_node = 0.5 * np.log(0.5 * Q[:, None] / gammainccinv(shape, q))
    lo, hi = per_node.min(axis=0), per_node.max(axis=0)
    for _ in range(200):
        if np.all(hi - lo <= 1e-14):
            break
        mid = 0.5 * (lo + hi)
        below = w @ gammaincc(shape, 0.5 * Q[:, None] * np.exp(-2.0 * mid)) <= q
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return tuple(math.exp(v) for v in 0.5 * (lo + hi))


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
        mean, scale, _, _ = model.posterior(g[None, :])
        out[i] = mean[0]
        if scale[0] == 0.0:
            continue
        value = mean[0] + scale[0] * rng.standard_t(model.dof)
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


# --- the regression sampler: HMC in pencil coordinates --------------------


def _log_sigma_draw(n_points: int, q: float, rng: np.random.Generator) -> float:
    """log sigma drawn from its conditional given the squared data misfit q.

    u = sigma^-2 is Gamma(N/2, rate q/2); u is clamped to the float range so
    a perfect fit gives a very small finite sigma rather than zero.
    """
    q = max(q, np.finfo(float).tiny)
    u = float(rng.gamma(0.5 * n_points, 2.0 / q))
    u = min(max(u, np.finfo(float).tiny), 1e300)
    return -0.5 * math.log(u)


@dataclass(frozen=True)
class _LaplaceMetric:
    """The negative Hessian at a state, in pencil coordinates scaled by sqrt(d).

    In t the kernel-block curvature is diag(d) - k (rho t)(rho t)^T, with rho
    1 on the first Nh coordinates and 0 on the rest, d = c rho + w s,
    c = Nh/||h||^2 and k = 2c/||h||^2; after scaling by sqrt(d) it is
    I - k u u^T with u = (rho t)/sqrt(d). Where that is not
    positive definite (k ||u||^2 >= 1) the radial term is dropped (k = 0),
    leaving diag(d), which is positive definite by construction. ell is the
    log-sigma curvature sqrt(2 w q) (the cross terms with the coefficients
    are dropped), or 1 where that is not positive; None for known noise.
    """

    sqrt_d: np.ndarray
    u: np.ndarray
    k: float
    ell: float | None

    @property
    def name(self) -> str:
        return "laplace" if self.k > 0.0 else "laplace_without_radial_term"


def pencil_coordinates(density: PosteriorDensity, h_star: np.ndarray) -> np.ndarray:
    """t = T^-1 h*, as t_mu + T^-1 (h* - h*_mu): the misfit t - t_mu is exactly 0 at h*_mu."""
    return density.t_mu + density.coordinates(h_star - density.h_mu_star)


def _laplace_metric(density: PosteriorDensity, t: np.ndarray, log_sigma: float | None) -> _LaplaceMetric:
    """The Laplace metric at pencil coordinates t (and log sigma when unknown)."""
    rho = (np.arange(density.n_points) < density.n_basis).astype(float)
    w = 1.0 if log_sigma is None else math.exp(-2.0 * log_sigma)
    n2 = float(rho @ (t * t))
    if not np.isfinite(n2) or n2 == 0.0:
        raise DomainError("no Laplace metric at ||h|| = 0 (nullspace pole)")
    c = density.n_basis / n2
    k = 2.0 * c / n2
    sqrt_d = np.sqrt(c * rho + w * density.s)
    u = rho * t / sqrt_d
    if not k * float(u @ u) < 1.0:
        k = 0.0
    ell = None
    if log_sigma is not None:
        r = t - density.t_mu
        curv = 2.0 * w * float(density.s @ (r * r))
        ell = math.sqrt(curv) if math.isfinite(curv) and curv > 0.0 else 1.0
    return _LaplaceMetric(sqrt_d=sqrt_d, u=u, k=k, ell=ell)


class _Diagonalised:
    """A regression density in its pencil coordinates, scaled by its Laplace metric.

    z = sqrt(d) * t with t = T^-1 h*, so both quadratic forms of the density
    are diagonal: ||h||^2 = sum(a z^2) and the misfit q = sum(b (z - z_mu)^2),
    with a = rho / d and b = s / d.
    The mass matrix is the metric I - k u u^T, applied through its inverse
    I + g u u^T and its inverse square root I + beta u u^T, so every leapfrog
    step is a few elementwise operations per chain and no array here is
    larger than N. log sigma is carried as ell * log sigma with unit mass.
    """

    def __init__(self, density: PosteriorDensity, metric):
        self.n = density.n_points
        self.nh = density.n_basis
        self.draws_noise = not density.noise.is_known
        self.ell = metric.ell
        self.sqrt_d = metric.sqrt_d
        d = metric.sqrt_d**2
        rho = (np.arange(self.n) < self.nh).astype(float)
        self.ab = np.concatenate([rho / d, density.s / d])  # [a | b]
        self.z_mu = metric.sqrt_d * density.t_mu
        self.k = metric.k
        self.u = metric.u
        u2 = float(self.u @ self.u)
        self.gu = self.k / (1.0 - self.k * u2) * self.u
        # (1 + beta u2)^2 = 1 / (1 - k u2), kept accurate for small k u2
        self.beta_u = (math.expm1(-0.5 * math.log1p(-self.k * u2)) / u2 if self.k else 0.0) * self.u

    def start(self, t: np.ndarray, log_sigma: float | None) -> np.ndarray:
        z = self.sqrt_d * t
        return z if log_sigma is None else np.append(z, self.ell * log_sigma)

    def to_x(self, Z: np.ndarray, T: np.ndarray) -> np.ndarray:
        """States x = (T t, log sigma) of the rows of Z, given the pencil's T."""
        X = np.empty(Z.shape)
        X[..., : self.n] = (Z[..., : self.n] / self.sqrt_d) @ T.T
        if self.draws_noise:
            X[..., -1] = Z[..., -1] / self.ell
        return X

    def evaluate(self, Z: np.ndarray) -> np.ndarray:
        """[z | z - z_mu | a z | b (z - z_mu)] of every row."""
        N = self.n
        Zh = Z[:, :N]
        P = np.empty((Z.shape[0], 4 * N))
        P[:, :N] = Zh
        np.subtract(Zh, self.z_mu, out=P[:, N : 2 * N])
        np.multiply(self.ab, P[:, : 2 * N], out=P[:, 2 * N :])
        return P

    def _norm_misfit(self, P):
        """P as (chains, 4, N) and the (chains, 2) columns ||h||^2 and misfit q."""
        Q = P.reshape(P.shape[0], 4, self.n)
        return Q, np.einsum("ikn,ikn->ik", Q[:, :2], Q[:, 2:])

    def drift(self, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
        """M^-1 grad log p of every row."""
        N = self.n
        Q, nq = self._norm_misfit(P)
        # the gradient's coefficient block is -(Nh/||h||^2) a z - w b (z - z_mu)
        coef = np.empty((Z.shape[0], 1, 2))
        coef[:, 0, 0] = -self.nh / nq[:, 0]
        G = np.empty_like(Z)
        if self.draws_noise:
            w = np.exp(-2.0 / self.ell * Z[:, -1])
            coef[:, 0, 1] = -w
            G[:, -1] = (w * nq[:, 1] - N) / self.ell
        else:
            coef[:, 0, 1] = -1.0
        Gh = G[:, :N]
        np.matmul(coef, Q[:, 2:], out=Gh[:, None, :])
        if self.k:
            Gh += (Gh @ self.u)[:, None] * self.gu
        return G

    def kinetic(self, V: np.ndarray) -> np.ndarray:
        """(1/2) v^T M v of every velocity row."""
        ke = 0.5 * np.einsum("ij,ij->i", V, V)
        if self.k:
            ke -= 0.5 * self.k * (V[:, : self.n] @ self.u) ** 2
        return ke

    def velocity(self, Xi: np.ndarray) -> np.ndarray:
        """M^-1/2 xi of every standard normal row, in place."""
        if self.k:
            Xi[:, : self.n] += (Xi[:, : self.n] @ self.u)[:, None] * self.beta_u
        return Xi

    def log_density(self, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
        _, nq = self._norm_misfit(P)
        n2, q = nq[:, 0], nq[:, 1]
        lp = -0.5 * self.nh * np.log(n2)
        if self.draws_noise:
            log_sigma = Z[:, -1] / self.ell
            lp -= self.n * log_sigma + 0.5 * np.exp(-2.0 * log_sigma) * q
        else:
            lp -= 0.5 * q
        return np.where(np.isfinite(lp), lp, -math.inf)  # ||h|| = 0 gives +inf

    def draw_noise(self, Z: np.ndarray, P: np.ndarray, rngs) -> None:
        """Redraw every chain's log sigma from its exact conditional, in place."""
        _, nq = self._norm_misfit(P)
        for c, rng in enumerate(rngs):
            Z[c, -1] = self.ell * _log_sigma_draw(self.n, nq[c, 1], rng)



def detect_poles(
    h_norms,
    sigma_draws,
    h_mu_norm: float,
    y_sd: float | None = None,
) -> Regime:
    """Classify the run from trace statistics over each chain's last quarter.

    h_norms / sigma_draws are sequences of per-chain traces (sigma_draws may
    be None in known-noise mode). Collapse of ||h|| relative to the
    interpolant's flags the nullspace pole; collapse of sigma_y relative to
    the data spread flags the interpolation pole. A single collapsed chain is
    enough: the pole is a property of the posterior, and chains fall into it
    at different speeds, so pooling medians across chains would let a slow
    chain mask one that already sits on the pole.
    """

    def tail_medians(chains_arr) -> list[float]:
        out = []
        for t in chains_arr:
            t = np.asarray(t, dtype=float)
            k = max(1, t.shape[0] // 4)
            out.append(float(np.median(t[-k:])))
        return out

    if h_mu_norm > 0 and any(m < NULLSPACE_POLE_TOL * h_mu_norm for m in tail_medians(h_norms)):
        return Regime.NULLSPACE_POLE
    if sigma_draws is not None and y_sd is not None and y_sd > 0:
        if any(m < INTERPOLATION_POLE_TOL * y_sd for m in tail_medians(sigma_draws)):
            return Regime.INTERPOLATION_POLE
    return Regime.NORMAL



def hmc_posterior(density: PosteriorDensity, config: SamplerConfig, init=None) -> RegressionPosterior:
    """Sample a regression density by HMC: the same law as the library's exact mixture.

    The chains run in the density's pencil coordinates with the Laplace
    metric at init, which defaults to the MAP point (plus the initial log
    sigma in unknown-noise mode); log sigma gets an exact conditional draw
    between trajectories. The regime comes from the traces (detect_poles).
    The diagnostics' evidence records the metric and the MAP's bisection steps.
    """
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(config.chains)]
    map_iterations = None
    if init is None:
        t0, map_iterations = _map_coordinates(density)
        log_sigma0 = None if density.noise.is_known else math.log(density.noise.sigma_init)
    else:
        h0, log_sigma0 = density._split(init)
        t0 = pencil_coordinates(density, h0)
    metric = _laplace_metric(density, t0, log_sigma0)
    target = _Diagonalised(density, metric)
    z0 = target.start(t0, log_sigma0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eps0 = [_find_initial_step(target, z0, rng) for rng in rngs]
        kept_z, kept_lp, stats = sampler._run_chains(target, z0, eps0, rngs, config)

    draws = target.to_x(kept_z, density.T)
    samples = draws.reshape(-1, z0.shape[0])
    known = density.noise.is_known
    regime = detect_poles(
        [np.linalg.norm(c[:, : density.n_basis], axis=1) for c in draws],
        None if known else [np.exp(c[:, -1]) for c in draws],
        density.h_mu_norm,
        float(np.std(density.Estar @ density.h_mu_star)),  # sd of the data
    )
    h_hat, Sigma_hat = posterior_moments(samples[:, : density.n_points])
    return RegressionPosterior(
        draw=lambda: (samples, kept_lp.reshape(-1), None if known else np.exp(samples[:, -1])),
        h_hat=h_hat,
        Sigma_hat=Sigma_hat,
        regime=regime,
        diagnostics=Diagnostics(
            chains=stats,
            rhat_max=_split_rhat(list(draws)),
            evidence={"metric": metric.name, "map_iterations": map_iterations},
        ),
        sigma_y_quantiles=None if known else tuple(np.quantile(np.exp(samples[:, -1]), [0.05, 0.5, 0.95])),
        config=config,
    )
