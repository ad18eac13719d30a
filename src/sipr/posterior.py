"""The regression posterior over subspace coordinates.

With values E* h* at the datapoints, E* = [G H, M_u^T], and i.i.d. Gaussian
noise of sd sigma, the unnormalized log posterior over the state h* (plus
log sigma when the noise level is unknown) is

    log p = -Nh log ||h||  -  (1/2) ||E* (h* - h*_mu)||^2 / sigma^2

where h is the first Nh entries of h* (the kernel part; the polynomial block
carries no penalty) and h*_mu are the interpolant's coordinates, E* h*_mu =
y. In unknown-noise mode the Gaussian normalization contributes an extra
-N log sigma; parametrized in log sigma the scale prior 1/sigma is absorbed
by the Jacobian, so no explicit prior term appears.

Both quadratic forms of the density, ||h||^2 and the misfit, are diagonal in
the coordinates t = T^-1 h* of one eigendecomposition built straight from the
basis, the pencil, which ``PosteriorDensity`` holds. In t the MAP reduces to
one scalar equation in ||h||^2, and given the scale of the norm prior the
posterior is a diagonal Gaussian, so ``sampler.run_mcmc`` computes it as a
one-dimensional mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import SubspaceBasis
from .errors import DimensionMismatch, DomainError, NoConvergence, PoleCollapse, SingularSystem
from .geometry import RCOND_MIN

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


def _pencil(basis: SubspaceBasis, y: np.ndarray, sigma: float):
    """The pencil (T, s, t_mu, poly_rows) of ||h||^2 and the misfit ||E* (h* - h*_mu)||^2 / sigma^2.

    With the thin QR M_u^T = Q1 R of the unit-box monomials and A = G H, the
    misfit's Schur complement on the kernel block is S = A^T A - F^T F, F =
    Q1^T A, and one eigh S = U diag(e) U^T gives t = (U^T h, (R c_u + F h) /
    sigma), where c_u is the polynomial block h*[Nh:]. Then E* T = [(I - Q1
    Q1^T) A U, sigma Q1] has orthogonal columns, so s = (e / sigma^2, 1). The interpolant's t_mu
    solves E* T t = y by the semi-normal equations, which lose accuracy by
    squaring the condition number; refinement on the residual recovers it
    (Bjorck 1987). Against an SVD solve, ||h_mu||^2 is off by 5.5e-11 after
    one step and 5e-12 after two on 1-D Higdon data at N = 800, eta = 1.5,
    and by 7.9e-10 and 3e-12 at kappa(S) = 7.8e9 (N = 100, eta = 2.5); a
    dense LU of E* is off by 1e-12 and 5e-12 there. Raises SingularSystem
    when e's smallest value is not above RCOND_MIN times its largest.
    """
    geometry = basis.geometry
    Nh, A = basis.n_basis, basis.GH
    Q1, R = np.linalg.qr(geometry.M_u.T)
    F = Q1.T @ A
    S = A.T @ A
    S -= F.T @ F
    e, U = np.linalg.eigh(S)
    if not e[0] > RCOND_MIN * e[-1]:
        raise SingularSystem(f"misfit too ill-conditioned to diagonalise (eigenvalues {e[0]:.3e} to {e[-1]:.3e})")
    W = np.linalg.inv(R)
    T = np.zeros((basis.n_points, basis.n_points))
    T[:Nh, :Nh] = U
    T[Nh:, :Nh] = -W @ (F @ U)
    T[Nh:, Nh:] = sigma * W

    def semi_normal(r):  # t with E* T t = r for r in the range of E*
        qr = Q1.T @ r
        return np.concatenate([(r @ A - qr @ F) @ U / e, qr / sigma])

    t_mu = semi_normal(y)
    for _ in range(2):
        h = U @ t_mu[:Nh]
        t_mu += semi_normal(y - A @ h - Q1 @ (sigma * t_mu[Nh:] - F @ h))
    return T, np.concatenate([e / sigma**2, np.ones(geometry.n_null)]), t_mu, np.hstack([F, R]) / sigma


@dataclass(eq=False)
class PosteriorDensity:
    """Differentiable unnormalized log posterior in subspace coordinates.

    State layout: the first n_points entries are h* = (h, c_u), c_u the
    polynomial block over the geometry's unit-box monomials; unknown-noise
    mode appends log sigma_y as the last entry. The density holds its pencil
    (see _pencil), coordinates t = T^-1 h* in which ||h||^2 = ||t[:Nh]||^2
    and the misfit is sum(s (t - t_mu)^2), at the known sd, or at unit sd
    when the noise is unknown. The first Nh columns of T are orthonormal in
    their kernel block U (misfit weights s there); the last N0 are the
    polynomial block, with no kernel part (s = 1). T^-1 is read off the same
    blocks: its first Nh rows are [U^T, 0], its last N0 rows poly_rows.
    """

    T: np.ndarray  # (N, N)
    s: np.ndarray  # (N,) misfit weights
    t_mu: np.ndarray  # (N,) the interpolant's coordinates
    poly_rows: np.ndarray  # (N0, N) the last N0 rows of T^-1
    noise: KnownNoise | UnknownNoise

    @property
    def n_points(self) -> int:
        return self.T.shape[0]

    @property
    def n_basis(self) -> int:
        return self.n_points - self.n_null

    @property
    def n_null(self) -> int:
        return self.poly_rows.shape[0]

    @property
    def dim(self) -> int:
        return self.n_points + (0 if self.noise.is_known else 1)

    @cached_property
    def h_mu_star(self) -> np.ndarray:
        """The interpolant's coordinates."""
        return self.T @ self.t_mu

    @cached_property
    def h_mu_norm(self) -> float:
        """Norm of the kernel block of the interpolant's coordinates."""
        return float(np.linalg.norm(self.h_mu_star[: self.n_basis]))

    def coordinates(self, h_star: np.ndarray) -> np.ndarray:
        """t = T^-1 h*."""
        Nh = self.n_basis
        return np.concatenate([h_star[:Nh] @ self.T[:Nh, :Nh], self.poly_rows @ h_star])

    def pull_back(self, v: np.ndarray) -> np.ndarray:
        """T^-T v, which carries a gradient in t back to h*."""
        Nh = self.n_basis
        out = v[Nh:] @ self.poly_rows
        out[:Nh] += self.T[:Nh, :Nh] @ v[:Nh]
        return out

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

    def _misfit_terms(self, h_star: np.ndarray, log_sigma: float | None) -> tuple[float, np.ndarray, np.ndarray]:
        """w = sigma^-2 relative to the pencil's sd, t = T^-1 (h* - h*_mu) and s t."""
        w = 1.0 if log_sigma is None else math.exp(-2.0 * log_sigma)
        t = self.coordinates(h_star - self.h_mu_star)
        return w, t, self.s * t

    # --- density interface used by the sampler ---------------------------

    def log_density(self, state) -> float:
        h_star, log_sigma = self._split(state)
        n2 = self._h_norm_sq(h_star)
        w, t, st = self._misfit_terms(h_star, log_sigma)
        lp = -0.5 * self.n_basis * math.log(n2) - 0.5 * w * float(t @ st)
        return lp if log_sigma is None else lp - self.n_points * log_sigma

    def grad(self, state) -> np.ndarray:
        h_star, log_sigma = self._split(state)
        n2 = self._h_norm_sq(h_star)
        w, t, st = self._misfit_terms(h_star, log_sigma)
        g = np.zeros(self.dim)
        g[: self.n_basis] = -self.n_basis * h_star[: self.n_basis] / n2
        g[: self.n_points] -= w * self.pull_back(st)
        if log_sigma is not None:
            g[-1] = -self.n_points + w * float(t @ st)
        return g


def build_density(basis: SubspaceBasis, y, noise: KnownNoise | UnknownNoise) -> PosteriorDensity:
    """Assemble the posterior density for observations y under a noise model."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != basis.n_points:
        raise DimensionMismatch(f"{basis.n_points} points but {y.shape[0]} values")
    return PosteriorDensity(*_pencil(basis, y, noise.sigma if noise.is_known else 1.0), noise=noise)


def map_estimate(density: PosteriorDensity, tol: float = 1e-10, max_iter: int = 200) -> np.ndarray:
    """Fixed point of (Sigma0 + (Nh/||h||^2) P) h* = Sigma0 h*_mu, Sigma0 = E*^T E* / sigma^2.

    P projects onto the kernel block; in unknown-noise mode the precision is
    evaluated at the initial sigma. Of the fixed points, this is the one that
    iterating from h*_mu converges to: the one with the largest ||h|| below
    the interpolant's. Returns the MAP h* (length n_points, without the
    log-sigma entry). Raises PoleCollapse when no fixed point has ||h|| above
    1e-10 of the interpolant's, and NoConvergence when max_iter bisection
    steps do not resolve log ||h||^2 to tol.
    """
    t, _ = _map_coordinates(density, tol, max_iter)
    return density.T @ t


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
    ws = (1.0 if density.noise.is_known else density.noise.sigma_init**-2) * density.s[:Nh]
    rhs = ws * density.t_mu[:Nh]

    def residual(u):
        c = Nh * np.exp(-u)[:, None]
        return np.log(((rhs / (ws + c)) ** 2).sum(axis=1)) - u

    found = _largest_root(residual, 2.0 * math.log(norm_mu), tol, max_iter)
    if found is None:
        raise PoleCollapse("the MAP collapses onto the nullspace pole: no fixed point above 1e-10 ||h_mu||")
    u, steps, width = found
    t = np.concatenate([rhs / (ws + Nh * math.exp(-u)), density.t_mu[Nh:]])
    if width > tol:
        raise NoConvergence(
            f"MAP bisection did not reach tol={tol:g} in {max_iter} steps (bracket {width:.3e})",
            last_iterate=density.T @ t,
            residual=width,
        )
    return t, steps
