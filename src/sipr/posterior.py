"""The regression posterior over subspace coordinates.

With y = E* h*_mu and i.i.d. Gaussian noise of sd sigma, the unnormalized log
posterior over the state h* (plus log sigma when the noise level is unknown)
is

    log p = -Nh log ||h||  -  (1/2) (h* - h*_mu)^T quad (h* - h*_mu) / sigma^2

where h is the first Nh entries of h* (the kernel part; the polynomial block
carries no penalty) and quad = E*^T E*. In unknown-noise mode the Gaussian
normalization contributes an extra -N log sigma; parametrized in log sigma
the scale prior 1/sigma is absorbed by the Jacobian, so no explicit prior
term appears.

Both quadratic forms of the density, ||h||^2 = h*^T P h* and the misfit with
precision Sigma0 (quad / sigma^2, or quad when the noise is unknown), are
diagonal in the coordinates t = T^-1 h* of one generalized eigendecomposition
of the pencil (P, Sigma0), computed once per density
(``PosteriorDensity.pencil``). In t the MAP reduces to one scalar equation
in ||h||^2, and given the scale of the norm prior the posterior is a diagonal
Gaussian, so ``sampler.run_mcmc`` computes it as a one-dimensional mixture.
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


def _check_sd(value, what: str) -> None:
    if not (np.ndim(value) == 0 and math.isfinite(value) and value > 0):
        raise DomainError(f"{what} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class KnownNoise:
    """Fixed observation noise sd."""

    sigma: float

    def __post_init__(self):
        _check_sd(self.sigma, "noise sd")

    @property
    def is_known(self) -> bool:
        return True


@dataclass(frozen=True)
class UnknownNoise:
    """Noise sd treated as unknown with a 1/sigma prior, sampled as log sigma."""

    sigma_init: float

    def __post_init__(self):
        _check_sd(self.sigma_init, "initial sigma")

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
    quad: np.ndarray  # (N, N) E*^T E*, the misfit's precision at unit noise sd

    @property
    def n_points(self) -> int:
        return self.h_mu_star.shape[0]

    @property
    def dim(self) -> int:
        return self.n_points + (0 if self.noise.is_known else 1)

    @cached_property
    def h_mu_norm(self) -> float:
        """Norm of the kernel block of the interpolant's coordinates."""
        return float(np.linalg.norm(self.h_mu_star[: self.n_basis]))

    @cached_property
    def pencil(self) -> _Pencil:
        """The eigendecomposition of (P, Sigma0) with Sigma0 = quad / sigma^2, or quad for unknown noise."""
        Sigma0 = self.quad / self.noise.sigma**2 if self.noise.is_known else self.quad
        return _Pencil(Sigma0, self.n_basis, self.h_mu_star)

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

    def _precision_scale(self, log_sigma: float | None) -> float:
        """sigma^-2: the fixed sd's when the noise is known, else at log_sigma."""
        return self.noise.sigma**-2 if log_sigma is None else math.exp(-2.0 * log_sigma)

    # --- density interface used by the sampler ---------------------------

    def log_density(self, state) -> float:
        h_star, log_sigma = self._split(state)
        n2 = self._h_norm_sq(h_star)
        r = h_star - self.h_mu_star
        misfit = self._precision_scale(log_sigma) * float(r @ self.quad @ r)
        lp = -0.5 * self.n_basis * math.log(n2) - 0.5 * misfit
        return lp if log_sigma is None else lp - self.n_points * log_sigma

    def grad(self, state) -> np.ndarray:
        h_star, log_sigma = self._split(state)
        n2 = self._h_norm_sq(h_star)
        r = h_star - self.h_mu_star
        w = self._precision_scale(log_sigma)
        Ar = self.quad @ r
        g = np.zeros(self.dim)
        g[: self.n_basis] = -self.n_basis * h_star[: self.n_basis] / n2
        g[: self.n_points] -= w * Ar
        if log_sigma is not None:
            g[-1] = -self.n_points + w * float(r @ Ar)
        return g


def build_density(basis: SubspaceBasis, y, noise: KnownNoise | UnknownNoise) -> PosteriorDensity:
    """Assemble the posterior density for observations y under a noise model."""
    return _density(basis, *to_subspace(basis, y), noise)


def _density(basis: SubspaceBasis, h_mu_star: np.ndarray, quad: np.ndarray,
             noise: KnownNoise | UnknownNoise) -> PosteriorDensity:
    """The density from to_subspace's coordinates and precision E*^T E*."""
    return PosteriorDensity(h_mu_star=h_mu_star, Estar=basis.Estar, n_basis=basis.n_basis,
                            n_null=basis.n_null, noise=noise, quad=quad)


def map_estimate(density: PosteriorDensity, tol: float = 1e-10, max_iter: int = 200) -> np.ndarray:
    """Fixed point of (Sigma0 + (Nh/||h||^2) P) h* = Sigma0 h*_mu, Sigma0 = quad / sigma^2.

    P projects onto the kernel block; in unknown-noise mode the precision is
    evaluated at the initial sigma. Of the fixed points, this is the one that
    iterating from h*_mu converges to: the one with the largest ||h|| below
    the interpolant's. Returns the MAP h* (length n_points, without the
    log-sigma entry). Raises PoleCollapse when no fixed point has ||h|| above
    1e-10 of the interpolant's, and NoConvergence when max_iter bisection
    steps do not resolve log ||h||^2 to tol.
    """
    t, _ = _map_coordinates(density, tol, max_iter)
    return density.pencil.T @ t


# How far below log ||h_mu||^2 the MAP's log ||h||^2 is searched: a fixed
# point further down has ||h|| < 1e-10 ||h_mu||, which counts as collapse.
_COLLAPSE_LOG = 2.0 * math.log(1e10)
_SCAN_STEP = 0.25


def _bisect(g, lo: np.ndarray, hi: np.ndarray, tol: float, max_iter: int):
    """Bisect every bracket lo < hi of g, with g(lo) >= 0 > g(hi), until each is at most tol wide.

    g maps an array of points, one per bracket, to their values, so all
    brackets advance together with one call per step, for at most max_iter
    steps. Returns (midpoints, steps, final widths).
    """
    steps = 0
    while np.any(hi - lo > tol) and steps < max_iter:
        mid = 0.5 * (lo + hi)
        up = g(mid) >= 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        steps += 1
    return 0.5 * (lo + hi), steps, hi - lo


def _largest_root(g, top: float, tol: float, max_iter: int):
    """The largest root below top of g(u) = log S(Nh e^-u) - u, or None if g < 0 down to the collapse.

    g maps an array of log ||h||^2 values to their residuals, and g(top) < 0.
    Because |g'| < 1, a stretch where g > 0 either holds a point of a scan
    with _SCAN_STEP spacing, or has its maximum within half a step of a scan
    point that is a local maximum of the scan above -_SCAN_STEP / 2; a bounded
    maximisation around such points finds it. The root is then bisected.
    Returns (root, bisection steps, final bracket width).
    """
    u = top - _SCAN_STEP * np.arange(int(_COLLAPSE_LOG / _SCAN_STEP) + 2)
    v = g(u)
    lo = None
    for j in range(1, u.shape[0]):
        if v[j] >= 0.0:
            lo = u[j]
        elif j + 1 < u.shape[0] and v[j] > -0.5 * _SCAN_STEP and v[j] >= max(v[j - 1], v[j + 1]):
            from scipy.optimize import minimize_scalar  # rare, and off every CLI path: import on use

            best = minimize_scalar(lambda x: -g(np.array([x]))[0], bounds=(u[j + 1], u[j - 1]),
                                   method="bounded", options={"xatol": tol})
            lo = best.x if -best.fun >= 0.0 else None
        if lo is not None:
            hi = u[j - 1]
            break
    else:
        return None
    root, steps, width = _bisect(g, np.array([lo]), np.array([hi]), tol, max_iter)
    return float(root[0]), steps, float(width[0])


def _map_coordinates(density: PosteriorDensity, tol: float = 1e-10, max_iter: int = 200):
    """The MAP in pencil coordinates and the number of bisection steps it took.

    In t the fixed point decouples: t = w s t_mu / (w s + c) on the kernel
    coordinates, with c = Nh / ||h||^2 and w = sigma^-2 (1 when the noise is
    known), and the polynomial coordinates stay at t_mu. So ||h||^2 = r
    solves the scalar equation r = S(Nh / r), S(c) = sum (w s t_mu / (w s +
    c))^2. Iterating from r = ||h_mu||^2 decreases r to the largest root
    below it, which is bracketed and bisected in log r, O(N) per evaluation.
    """
    Nh = density.n_basis
    norm_mu = density.h_mu_norm
    if norm_mu == 0.0:
        raise PoleCollapse("interpolant is exactly polynomial; no kernel component to fit")
    p = density.pencil
    ws = (1.0 if density.noise.is_known else density.noise.sigma_init**-2) * p.s[:Nh]
    rhs = ws * p.t_mu[:Nh]

    def residual(u):
        c = Nh * np.exp(-u)[:, None]
        return np.log(((rhs / (ws + c)) ** 2).sum(axis=1)) - u

    found = _largest_root(residual, 2.0 * math.log(norm_mu), tol, max_iter)
    if found is None:
        raise PoleCollapse("the MAP collapses onto the nullspace pole: no fixed point above 1e-10 ||h_mu||")
    u, steps, width = found
    t = np.concatenate([rhs / (ws + Nh * math.exp(-u)), p.t_mu[Nh:]])
    if width > tol:
        raise NoConvergence(
            f"MAP bisection did not reach tol={tol:g} in {max_iter} steps (bracket {width:.3e})",
            last_iterate=p.T @ t,
            residual=width,
        )
    return t, steps
