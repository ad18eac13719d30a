"""The regression posterior over subspace coordinates.

With y = E* h*_mu and Gaussian noise, the unnormalized log posterior over the
state h* (plus log sigma_y when the noise level is unknown) is

    log p = -Nh log ||h||  -  (1/2) (h* - h*_mu)^T Sigma_inv (h* - h*_mu)

where h is the first Nh entries of h* (the kernel part; the polynomial block
carries no penalty). In unknown-noise mode Sigma_inv = E*^T E* / sigma^2 and
the Gaussian normalization contributes an extra -N log sigma; parametrized in
log sigma the scale prior 1/sigma is absorbed by the Jacobian, so no explicit
prior term appears.

Both quadratic forms of the density, ||h||^2 = h*^T P h* and the misfit with
precision Sigma0 (Sigma_inv, or E*^T E* when the noise is unknown), are
diagonal in the coordinates t = T^-1 h* of one generalized eigendecomposition
of the pencil (P, Sigma0), computed once per density
(``PosteriorDensity.pencil``). In t the MAP fixed point is an elementwise
iteration, and the negative Hessian is a diagonal minus one rank-one term;
the sampler runs its chains there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

from ._linalg import cholesky
from .basis import SubspaceBasis, to_subspace
from .errors import DomainError, NoConvergence, PoleCollapse

__all__ = [
    "KnownNoise",
    "UnknownNoise",
    "PosteriorDensity",
    "build_density",
    "map_estimate",
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


class _Pencil:
    """One generalized eigendecomposition of (P, Sigma0): T^T P T = diag(rho), T^T Sigma0 T = diag(s).

    The first Nh columns of T span the Sigma0-orthogonal complement of the
    polynomial block and are orthonormal in their kernel block (rho = 1, s =
    the eigenvalues of the Schur complement of Sigma0's polynomial block);
    the last N0 columns are the polynomial block, Sigma0-orthonormal (rho =
    0, s = 1). So the kernel block h of T t is exactly 0 where the first Nh
    entries of t are, and ||h|| = ||t[:Nh]||. The polynomial block's Cholesky
    factor is rcond-gated (SingularSystem).
    """

    def __init__(self, Sigma0: np.ndarray, n_basis: int, h_mu_star: np.ndarray):
        N, Nh = Sigma0.shape[0], n_basis
        T = np.zeros((N, N))
        schur = Sigma0[:Nh, :Nh]
        if Nh < N:
            L = cholesky(Sigma0[Nh:, Nh:])
            F = solve_triangular(L, Sigma0[Nh:, :Nh], lower=True)
            schur = schur - F.T @ F
            T[Nh:, Nh:] = solve_triangular(L.T, np.eye(N - Nh), lower=False)
            T[Nh:, :Nh] = -solve_triangular(L.T, F, lower=False)  # -Sigma_cc^-1 Sigma_ch
        sigma, U = np.linalg.eigh(schur)
        T[:Nh, :Nh] = U
        T[Nh:, :Nh] = T[Nh:, :Nh] @ U
        self.T = T
        self.rho = np.zeros(N)
        self.rho[:Nh] = 1.0
        self.s = np.ones(N)
        self.s[:Nh] = np.maximum(sigma, 0.0)
        self._Sigma0 = Sigma0
        self.t_mu = self.coordinates(h_mu_star)

    def coordinates(self, h_star: np.ndarray) -> np.ndarray:
        """t = T^-1 h*, from T^T (Sigma0 + P) T = diag(rho + s)."""
        Bh = self._Sigma0 @ h_star
        Bh += self.rho * h_star
        return (self.T.T @ Bh) / (self.rho + self.s)


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

    @cached_property
    def pencil(self) -> _Pencil:
        """The eigendecomposition of (P, Sigma0) with Sigma0 = Sigma_inv, or E*^T E* for unknown noise."""
        return _Pencil(self.Sigma_inv if self.noise.is_known else self.base_quad, self.n_basis, self.h_mu_star)

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
    t, _ = _map_coordinates(density, tol, max_iter)
    return density.pencil.T @ t


def _map_coordinates(density: PosteriorDensity, tol: float = 1e-10, max_iter: int = 200):
    """The MAP in pencil coordinates and the number of iterations it took.

    In t the fixed point decouples: t = w s t_mu / (w s + lam rho) with
    lam = Nh / ||h||^2 and w = sigma^-2 (1 when the noise is known), so each
    iteration is O(N). The polynomial coordinates (rho = 0) stay at t_mu, and
    ||h|| = ||t[:Nh]||, so the iteration runs on the kernel coordinates and
    its relative change is that of h.
    """
    Nh = density.n_basis
    norm_mu = density.h_mu_norm
    if norm_mu == 0.0:
        raise PoleCollapse("interpolant is exactly polynomial; no kernel component to fit")
    p = density.pencil
    w = 1.0 if density.noise.is_known else density.noise.sigma_init**-2
    ws = w * p.s[:Nh]
    rhs = ws * p.t_mu[:Nh]
    th = p.t_mu[:Nh]
    rel = math.inf
    for it in range(1, max_iter + 1):
        new = rhs / (ws + Nh / float(th @ th))
        norm = math.sqrt(float(new @ new))
        if norm < 1e-10 * norm_mu:
            raise PoleCollapse("MAP iteration collapsed onto the nullspace pole")
        rel = float(np.linalg.norm(new - th)) / norm
        th = new
        if rel < tol:
            return np.concatenate([th, p.t_mu[Nh:]]), it
    raise NoConvergence(
        f"MAP iteration did not reach tol={tol:g} in {max_iter} steps (last change {rel:.3e})",
        last_iterate=p.T @ np.concatenate([th, p.t_mu[Nh:]]),
        residual=rel,
    )


@dataclass(frozen=True)
class _LaplaceMetric:
    """The negative Hessian at a state, in pencil coordinates scaled by sqrt(d).

    In t the kernel-block curvature is diag(d) - k (rho t)(rho t)^T with
    d = c rho + w s, c = Nh/||h||^2 and k = 2c/||h||^2; after scaling by
    sqrt(d) it is I - k u u^T with u = (rho t)/sqrt(d). Where that is not
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


def _laplace_metric(density: PosteriorDensity, t: np.ndarray, log_sigma: float | None) -> _LaplaceMetric:
    """The Laplace metric at pencil coordinates t (and log sigma when unknown)."""
    p = density.pencil
    w = 1.0 if log_sigma is None else math.exp(-2.0 * log_sigma)
    n2 = float(p.rho @ (t * t))
    if not np.isfinite(n2) or n2 == 0.0:
        raise DomainError("no Laplace metric at ||h|| = 0 (nullspace pole)")
    c = density.n_basis / n2
    k = 2.0 * c / n2
    sqrt_d = np.sqrt(c * p.rho + w * p.s)
    u = p.rho * t / sqrt_d
    if not k * float(u @ u) < 1.0:
        k = 0.0
    ell = None
    if log_sigma is not None:
        r = t - p.t_mu
        curv = 2.0 * w * float(p.s @ (r * r))
        ell = math.sqrt(curv) if math.isfinite(curv) and curv > 0.0 else 1.0
    return _LaplaceMetric(sqrt_d=sqrt_d, u=u, k=k, ell=ell)
