"""The regression posterior over subspace coordinates.

With y = E* h*_mu and Gaussian noise, the unnormalized log posterior over the
state h* (plus log sigma_y when the noise level is unknown) is

    log p = -Nh log ||h||  -  (1/2) (h* - h*_mu)^T Sigma_inv (h* - h*_mu)

where h is the first Nh entries of h* (the kernel part; the polynomial block
carries no penalty). In unknown-noise mode Sigma_inv = E*^T E* / sigma^2 and
the Gaussian normalization contributes an extra -N log sigma; parametrized in
log sigma the scale prior 1/sigma is absorbed by the Jacobian, so no explicit
prior term appears. The MAP point is the fixed point of a ridge-like
iteration, and its negative Hessian Cholesky factor preconditions the
sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import solve_symmetric
from .basis import SubspaceBasis, to_subspace
from .errors import DomainError, NoConvergence, PoleCollapse

__all__ = [
    "KnownNoise",
    "UnknownNoise",
    "PosteriorDensity",
    "build_density",
    "map_estimate",
    "laplace_precondition",
]


@dataclass(frozen=True)
class KnownNoise:
    """Fixed observation noise; sigma may be a positive scalar sd or an SPD covariance."""

    sigma: object

    @property
    def is_known(self) -> bool:
        return True


@dataclass(frozen=True)
class UnknownNoise:
    """Noise sd treated as unknown with a 1/sigma prior, sampled as log sigma."""

    sigma_init: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma_init) and self.sigma_init > 0):
            raise DomainError(f"initial sigma must be positive, got {self.sigma_init!r}")

    @property
    def is_known(self) -> bool:
        return False


@dataclass(eq=False)
class PosteriorDensity:
    """Differentiable unnormalized log posterior in subspace coordinates.

    State layout: the first n_points entries are h*; unknown-noise mode
    appends log sigma_y as the last entry.
    """

    h_mu_star: np.ndarray  # (N,)
    Estar: np.ndarray  # (N, N)
    n_basis: int  # Nh
    n_null: int  # N0
    noise: KnownNoise | UnknownNoise
    Sigma_inv: np.ndarray | None = None  # known mode: E*^T Sigma_y^-1 E*

    def __post_init__(self):
        if self.Sigma_inv is None and self.noise.is_known:
            raise DomainError("known-noise density requires a precomputed precision")

    @property
    def n_points(self) -> int:
        return self.h_mu_star.shape[0]

    @property
    def dim(self) -> int:
        return self.n_points + (0 if self.noise.is_known else 1)

    @cached_property
    def base_quad(self) -> np.ndarray:
        """E*^T E*, the sigma-free part of the precision in unknown mode."""
        return self.Estar.T @ self.Estar

    @cached_property
    def h_mu_norm(self) -> float:
        """Norm of the kernel block of the interpolant's coordinates."""
        return float(np.linalg.norm(self.h_mu_star[: self.n_basis]))

    @cached_property
    def y(self) -> np.ndarray:
        """Observed values implied by the interpolant coordinates."""
        return self.Estar @ self.h_mu_star

    def sigma_inv_at(self, log_sigma: float) -> np.ndarray:
        if self.noise.is_known:
            return self.Sigma_inv
        return self.base_quad * math.exp(-2.0 * log_sigma)

    def _split(self, state: np.ndarray) -> tuple[np.ndarray, float | None]:
        state = np.asarray(state, dtype=float).reshape(-1)
        if state.shape[0] != self.dim:
            raise DomainError(f"state has length {state.shape[0]}, expected {self.dim}")
        if self.noise.is_known:
            return state, None
        return state[:-1], float(state[-1])

    def _h_norm_sq(self, h_star: np.ndarray) -> float:
        h = h_star[: self.n_basis]
        n2 = float(h @ h)
        if not np.isfinite(n2) or n2 == 0.0:
            raise DomainError("log posterior undefined at ||h|| = 0 (nullspace pole)")
        return n2

    # --- density interface used by the sampler ---------------------------

    def log_density(self, state) -> float:
        h_star, log_sigma = self._split(state)
        n2 = self._h_norm_sq(h_star)
        r = h_star - self.h_mu_star
        lp = -0.5 * self.n_basis * math.log(n2)
        if self.noise.is_known:
            return lp - 0.5 * float(r @ self.Sigma_inv @ r)
        q = float(r @ self.base_quad @ r)
        return lp - self.n_points * log_sigma - 0.5 * math.exp(-2.0 * log_sigma) * q

    def grad(self, state) -> np.ndarray:
        h_star, log_sigma = self._split(state)
        n2 = self._h_norm_sq(h_star)
        r = h_star - self.h_mu_star
        g = np.zeros(self.dim)
        g[: self.n_basis] = -self.n_basis * h_star[: self.n_basis] / n2
        if self.noise.is_known:
            g[: self.n_points] -= self.Sigma_inv @ r
            return g
        w = math.exp(-2.0 * log_sigma)
        Ar = self.base_quad @ r
        g[: self.n_points] -= w * Ar
        g[-1] = -self.n_points + w * float(r @ Ar)
        return g

    def hessian(self, state) -> np.ndarray:
        """Analytic Hessian of the log posterior (used for preconditioning)."""
        h_star, log_sigma = self._split(state)
        n2 = self._h_norm_sq(h_star)
        h = h_star[: self.n_basis]
        Hm = np.zeros((self.dim, self.dim))
        Nh = self.n_basis
        Hm[:Nh, :Nh] = -self.n_basis * (np.eye(Nh) / n2 - 2.0 * np.outer(h, h) / n2**2)
        N = self.n_points
        if self.noise.is_known:
            Hm[:N, :N] -= self.Sigma_inv
            return Hm
        w = math.exp(-2.0 * log_sigma)
        r = h_star - self.h_mu_star
        Ar = self.base_quad @ r
        Hm[:N, :N] -= w * self.base_quad
        Hm[:N, -1] = 2.0 * w * Ar
        Hm[-1, :N] = Hm[:N, -1]
        Hm[-1, -1] = -2.0 * w * float(r @ Ar)
        return Hm

    def initial_state(self, h_star: np.ndarray) -> np.ndarray:
        """Append the initial log sigma in unknown-noise mode."""
        h_star = np.asarray(h_star, dtype=float).reshape(-1)
        if self.noise.is_known:
            return h_star.copy()
        if h_star.shape[0] == self.dim:
            return h_star.copy()
        return np.append(h_star, math.log(self.noise.sigma_init))

    def draw_log_sigma(self, h_star: np.ndarray, rng: np.random.Generator) -> float:
        """Exact draw of log sigma from its conditional at fixed coordinates.

        In u = sigma^-2 the conditional is Gamma(N/2, rate q/2) with q the
        squared data misfit, so the noise scale can be resampled in one move.
        Leapfrog steps alone crawl down the interpolation-pole funnel far too
        slowly for the pole to show up within any reasonable budget.
        """
        if self.noise.is_known:
            raise DomainError("the noise scale is fixed; there is nothing to draw")
        r = np.asarray(h_star, dtype=float).reshape(-1) - self.h_mu_star
        return _log_sigma_draw(self.n_points, float(r @ self.base_quad @ r), rng)


def _log_sigma_draw(n_points: int, q: float, rng: np.random.Generator) -> float:
    """log sigma drawn from its conditional given the squared data misfit q.

    u = sigma^-2 is Gamma(N/2, rate q/2); u is clamped to the float range so
    a perfect fit gives a very small finite sigma rather than zero.
    """
    q = max(q, np.finfo(float).tiny)
    u = float(rng.gamma(0.5 * n_points, 2.0 / q))
    u = min(max(u, np.finfo(float).tiny), 1e300)
    return -0.5 * math.log(u)


def build_density(basis: SubspaceBasis, y, noise: KnownNoise | UnknownNoise) -> PosteriorDensity:
    """Assemble the posterior density for observations y under a noise model."""
    if noise.is_known:
        h_mu, Sigma_inv = to_subspace(basis, y, noise.sigma)
    else:
        h_mu, _ = to_subspace(basis, y, noise.sigma_init)
        Sigma_inv = None
    return PosteriorDensity(
        h_mu_star=h_mu,
        Estar=basis.Estar,
        n_basis=basis.n_basis,
        n_null=basis.n_null,
        noise=noise,
        Sigma_inv=Sigma_inv,
    )


def map_estimate(density: PosteriorDensity, tol: float = 1e-10, max_iter: int = 200) -> np.ndarray:
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
    Sigma_inv = density.sigma_inv_at(0.0 if density.noise.is_known else math.log(density.noise.sigma_init))
    rhs = Sigma_inv @ h_mu
    state = h_mu.copy()
    rel = math.inf
    for _ in range(max_iter):
        lam = Nh / float(state[:Nh] @ state[:Nh])
        A = Sigma_inv.copy()
        A[np.arange(Nh), np.arange(Nh)] += lam
        new = solve_symmetric(A, rhs)
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


def laplace_precondition(h_map, density: PosteriorDensity) -> np.ndarray:
    """Lower-triangular L with L L^T = -Hessian of the log posterior at h_map.

    Preconditioned coordinates are z = L^T h*; near the MAP the density is
    approximately a unit Gaussian there. When the negative Hessian is not
    positive definite, falls back to a diagonal preconditioner from the
    positive part of its diagonal.
    """
    state = density.initial_state(np.asarray(h_map, dtype=float).reshape(-1))
    negH = -density.hessian(state)
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
