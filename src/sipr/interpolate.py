"""Minimum-norm interpolation and the pointwise t-posterior built on it.

The interpolant through (X, y) is

    f(x) = sum_n a_n ||x - x_n||^(2 eta) + sum_v c_v x^v,   M a = 0,

obtained from the saddle system [[G, M^T], [M, 0]] [a; c] = [y; 0]. Among all
functions of finite norm that hit the data it minimizes the norm, and the
posterior of the function value at any other point is a Student-t centered on
it, and its values on any finite grid are jointly multivariate t. Solves run
in unit-box coordinates for conditioning, from one factorization of the
saddle per fit; coefficients are mapped back, so everything reported here is
in the caller's original units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from ._linalg import RCOND_MIN, SymmetricFactor, solve_symmetric
from .errors import ConstraintViolated, DimensionMismatch, TooFewPoints
from .geometry import (
    Regularity,
    UnitBoxMap,
    as_points,
    as_regularity,
    check_distinct,
    eta_norm_constant,
    greens_matrix,
    monomial_matrix,
    multi_indices,
    nullspace_dim,
    pairwise_sq_dists,
    unit_box_map,
)

# An interpolant whose squared norm falls below this fraction of ||y||^2 is
# treated as exactly polynomial data: the posterior collapses to a point mass.
POLYNOMIAL_TOL = 1e-12


def _rebase_polynomial(
    c: np.ndarray, indices: list[tuple[int, ...]], shift: np.ndarray, scale: float
) -> np.ndarray:
    """Re-express sum_v c_v ((x - shift)/scale)^v over plain monomials x^v.

    The substitution is affine, so the result lives on the same index set
    (every sub-index of an admissible index is admissible).
    """
    pos = {v: i for i, v in enumerate(indices)}
    out = np.zeros_like(c)
    for v, cv in zip(indices, c):
        if cv == 0.0:
            continue
        base = cv * scale ** (-sum(v))
        # expand prod_d (x_d - u_d)^(v_d) term by term
        per_dim = [
            [(k, math.comb(vd, k) * (-shift[d]) ** (vd - k)) for k in range(vd + 1)]
            for d, vd in enumerate(v)
        ]
        for combo in product(*per_dim):
            target = tuple(k for k, _ in combo)
            coeff = base
            for _, w in combo:
                coeff *= w
            out[pos[target]] += coeff
    return out


def _saddle(U: np.ndarray, reg: Regularity) -> np.ndarray:
    """The data saddle [[G, M^T], [M, 0]] of points U, shape (N + N0, N + N0)."""
    G, M = greens_matrix(U, reg), monomial_matrix(U, reg)
    N0 = M.shape[0]
    return np.block([[G, M.T], [M, np.zeros((N0, N0))]])


def _border(U: np.ndarray, Q: np.ndarray, reg: Regularity) -> np.ndarray:
    """Columns b = [g(q); m(q)] that border the saddle of U, one per probe q, shape (N + N0, P)."""
    return np.vstack([pairwise_sq_dists(U, Q) ** reg.value, monomial_matrix(Q, reg)])


@dataclass(eq=False)
class InterpolationModel:
    """Fitted interpolant in original coordinates, with its factored unit-box saddle."""

    X: np.ndarray  # (N, D) datapoint locations
    y: np.ndarray  # (N,) values
    eta: Regularity
    a: np.ndarray  # (N,) kernel coefficients, M a = 0
    c: np.ndarray  # (N0,) polynomial coefficients over `indices`
    indices: list[tuple[int, ...]] = field(repr=False)
    box: UnitBoxMap = field(repr=False)  # the unit-box map the saddle was built in
    saddle: SymmetricFactor = field(repr=False)

    @property
    def n_points(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def n_null(self) -> int:
        return len(self.indices)

    @cached_property
    def norm_sq(self) -> float:
        """Squared norm of the interpolant, eta_norm_sq of its coefficients."""
        G, M = greens_matrix(self.X, self.eta), monomial_matrix(self.X, self.eta)
        return eta_norm_sq(self.a, G, self.eta, self.dim, M=M)

    @property
    def _spread(self) -> float:
        """||f||^2, or 0 for exactly polynomial data, whose posterior is a point mass."""
        return self.norm_sq if self.norm_sq > POLYNOMIAL_TOL * float(self.y @ self.y) else 0.0

    def evaluate(self, probes) -> np.ndarray:
        """Interpolant values at probe points, shape (P,)."""
        P = as_points(probes)
        if P.shape[1] != self.dim:
            raise DimensionMismatch(f"probes have {P.shape[1]} features, data has {self.dim}")
        d2 = pairwise_sq_dists(P, self.X)
        vals = (d2**self.eta.value) @ self.a
        for v, cv in zip(self.indices, self.c):
            vals += cv * np.prod(P ** np.asarray(v, dtype=float), axis=1)
        return vals

    __call__ = evaluate

    @property
    def dof(self) -> int:
        """Degrees of freedom of the pointwise t posteriors, N - N0."""
        return self.n_points - self.n_null

    def posterior(self, probes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mean, t scale and sd of the exact-data posterior at each probe.

        The t scale is sqrt(||f||^2 / (||t_x||^2 dof)); sd exists only for
        dof > 2 (NaN otherwise). Probes on a datapoint and exactly polynomial
        data give point masses: scale 0 and sd 0.
        """
        P = as_points(probes)
        mean = self.evaluate(P)
        ratio = np.zeros_like(mean)
        if self._spread:
            _, B, W = self._bordered(P)
            ratio = self._spread * _power_sq(B, W, self.dim, self.eta, self.box.scale)
        scale = np.sqrt(ratio / self.dof)
        if self.dof > 2:
            sd = np.sqrt(ratio / (self.dof - 2))
        else:
            sd = np.where(ratio == 0.0, 0.0, np.nan)
        return mean, scale, sd

    def sample_paths(self, grid, seeds) -> np.ndarray:
        """Joint posterior sample paths over grid points, one column per seed, shape (G, S).

        The exact-data posterior is a t-process, so its values on a grid are
        jointly multivariate t (Shah, Wilson & Ghahramani, AISTATS 2014): a
        path is mean + sqrt(||f||^2 / u) R xi with u ~ chi^2(dof), xi ~ N(0, I)
        and R R^T = K_c, the grid's kernel conditioned on the data,

            K_c = (Phi - B^T K^-1 B) scale^(2 eta) / C,   Phi[p, q] = ||q_p - q_q||^(2 eta),

        in unit-box coordinates; its diagonal is the power function. R = V
        sqrt(lam) comes from one eigendecomposition of K_c for every seed,
        with negative rounding eigenvalues clamped to 0. Grid points on a
        datapoint (power function 0) and exactly polynomial data reproduce
        the mean. Deterministic for fixed seeds.
        """
        P = as_points(grid)
        mean = self.evaluate(P)
        seeds = list(seeds)
        paths = np.repeat(mean[:, None], len(seeds), axis=1)
        if not (seeds and self._spread):
            return paths
        Q, B, W = self._bordered(P)
        free = _power_sq(B, W, self.dim, self.eta, self.box.scale) > 0.0
        Q, B, W = Q[free], B[:, free], W[:, free]
        C = eta_norm_constant(self.dim, self.eta)
        K_c = (pairwise_sq_dists(Q, Q) ** self.eta.value - B.T @ W) * (
            self.box.scale ** (2.0 * self.eta.value) / C
        )
        lam, V = np.linalg.eigh(0.5 * (K_c + K_c.T))
        R = V * np.sqrt(np.maximum(lam, 0.0))
        for j, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            u = rng.chisquare(self.dof)
            paths[free, j] += math.sqrt(self._spread / u) * (R @ rng.standard_normal(R.shape[1]))
        return paths

    def _bordered(self, P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unit-box probes Q, their saddle border B and W = K^-1 B from the fit's factor."""
        Q = self.box.forward(P)
        B = _border(self.box.forward(self.X), Q, self.eta)
        return Q, B, self.saddle.solve(B)


def solve_interpolation(X, y, eta) -> InterpolationModel:
    """Fit the minimum-norm interpolant through (X, y)."""
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
    check_distinct(X)

    box = unit_box_map(X)
    saddle = SymmetricFactor(_saddle(box.forward(X), reg))
    sol = saddle.solve(np.concatenate([y, np.zeros(N0)]))
    a_u, c_u = sol[:N], sol[N:]

    indices = multi_indices(D, reg)
    a = a_u * box.scale ** (-2.0 * reg.value)
    c = _rebase_polynomial(c_u, indices, box.shift, box.scale)
    return InterpolationModel(
        X=X, y=y, eta=reg, a=a, c=c, indices=indices, box=box, saddle=saddle
    )


def eta_norm_sq(a, G, eta, dim: int, M=None) -> float:
    """Squared norm of the function with kernel coefficients a on matrix G.

    Requires the growth-rate constraint M a = 0; pass M to have it checked
    (violations beyond 1e-6 raise ConstraintViolated, since the quadratic
    form has no norm meaning off the constraint set).
    """
    reg = as_regularity(eta)
    a = np.asarray(a, dtype=float).reshape(-1)
    G = np.asarray(G, dtype=float)
    if G.shape != (a.shape[0], a.shape[0]):
        raise DimensionMismatch(f"G has shape {G.shape}, coefficients have length {a.shape[0]}")
    if M is not None:
        resid = np.abs(np.asarray(M) @ a)
        scale = max(float(np.abs(a).max(initial=0.0)), 1.0)
        if resid.size and resid.max() > 1e-6 * scale:
            raise ConstraintViolated(
                f"coefficients violate the growth-rate constraint (|M a| up to {resid.max():.3e})"
            )
    return eta_norm_constant(dim, reg) * float(a @ G @ a)


# --- power function --------------------------------------------------------


def power_function_sq(X, eta, probes) -> np.ndarray:
    """Squared power function 1 / ||t_x||^2 at each probe x, shape (P,).

    t_x is the test function of x: the minimum-norm function that is 1 at x
    and 0 at every datapoint. Bordering the data saddle K with the probe's
    column b = [g(x); m(x)] gives ||t_x||^2 = C / s with s = -b^T K^-1 b, the
    Schur complement (Schaback; Wendland, Scattered Data Approximation,
    ch. 11), so one factorization of K in unit-box coordinates serves every
    probe. s falls continuously to 0 at a datapoint, where it bottoms out at
    rounding level; below RCOND_MIN relative to |b| |K^-1 b| the probe is
    taken to sit on a datapoint and the result is exactly 0.
    """
    reg = as_regularity(eta)
    X = as_points(X)
    P = as_points(probes)
    if P.shape[1] != X.shape[1]:
        raise DimensionMismatch(f"probes have {P.shape[1]} features, data has {X.shape[1]}")
    box = unit_box_map(X)
    U = box.forward(X)
    B = _border(U, box.forward(P), reg)
    W = solve_symmetric(_saddle(U, reg), B)
    return _power_sq(B, W, X.shape[1], reg, box.scale)


def _power_sq(B: np.ndarray, W: np.ndarray, dim: int, reg: Regularity, scale: float) -> np.ndarray:
    """The power function in original units from the unit-box border B and W = K^-1 B."""
    C = eta_norm_constant(dim, reg)
    s = -math.copysign(1.0, C) * np.einsum("ip,ip->p", B, W)
    floor = RCOND_MIN * np.linalg.norm(B, axis=0) * np.linalg.norm(W, axis=0)
    return np.where(s > floor, s * scale ** (2.0 * reg.value) / abs(C), 0.0)


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


def draw_sample_path(X, y, eta, grid, seed) -> np.ndarray:
    """One posterior sample path over grid points; see InterpolationModel.sample_paths."""
    return solve_interpolation(X, y, eta).sample_paths(grid, [seed])[:, 0]
