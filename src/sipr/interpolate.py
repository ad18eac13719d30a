"""Minimum-norm interpolation and the pointwise t-posterior built on it.

The interpolant through (X, y) is

    f(x) = sum_n a_n ||x - x_n||^(2 eta) + sum_v c_v x^v,   M a = 0,

obtained from the saddle system [[G, M^T], [M, 0]] [a; c] = [y; 0]. Among all
functions of finite norm that hit the data it minimizes the norm, and the
posterior of the function value at any other point is a Student-t centered on
it. Solves run in unit-box coordinates for conditioning; coefficients are
mapped back, so everything reported here is in the caller's original units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from ._linalg import RCOND_MIN, solve_symmetric
from .errors import ConstraintViolated, DimensionMismatch, SingularSystem, TooFewPoints
from .geometry import (
    KernelMatrices,
    Regularity,
    as_points,
    as_regularity,
    check_distinct,
    eta_norm_constant,
    kernel_system,
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


@dataclass(eq=False)
class InterpolationModel:
    """Fitted interpolant in original coordinates."""

    X: np.ndarray  # (N, D) datapoint locations
    y: np.ndarray  # (N,) values
    eta: Regularity
    a: np.ndarray  # (N,) kernel coefficients, M a = 0
    c: np.ndarray  # (N0,) polynomial coefficients over `indices`
    indices: list[tuple[int, ...]] = field(repr=False)

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
    def kernels(self) -> KernelMatrices:
        return kernel_system(self.X, self.eta)

    @cached_property
    def norm_sq(self) -> float:
        """Squared norm of the interpolant, eta_norm_sq of its coefficients."""
        return eta_norm_sq(self.a, self.kernels.G, self.eta, self.dim, M=self.kernels.M)

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
        if self.norm_sq > POLYNOMIAL_TOL * float(self.y @ self.y):
            ratio = self.norm_sq * power_function_sq(self.X, self.eta, P)
        scale = np.sqrt(ratio / self.dof)
        if self.dof > 2:
            sd = np.sqrt(ratio / (self.dof - 2))
        else:
            sd = np.where(ratio == 0.0, 0.0, np.nan)
        return mean, scale, sd


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
    U = box.forward(X)
    sys = kernel_system(U, reg)
    rhs = np.concatenate([y, np.zeros(N0)])
    sol = solve_symmetric(sys.saddle, rhs)
    a_u, c_u = sol[:N], sol[N:]

    indices = multi_indices(D, reg)
    a = a_u * box.scale ** (-2.0 * reg.value)
    c = _rebase_polynomial(c_u, indices, box.shift, box.scale)
    return InterpolationModel(X=X, y=y, eta=reg, a=a, c=c, indices=indices)


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
    U, Q = box.forward(X), box.forward(P)
    B = np.vstack([pairwise_sq_dists(U, Q) ** reg.value, monomial_matrix(Q, reg)])
    W = solve_symmetric(kernel_system(U, reg).saddle, B)
    C = eta_norm_constant(X.shape[1], reg)
    s = -math.copysign(1.0, C) * np.einsum("ip,ip->p", B, W)
    floor = RCOND_MIN * np.linalg.norm(B, axis=0) * np.linalg.norm(W, axis=0)
    return np.where(s > floor, s * box.scale ** (2.0 * reg.value) / abs(C), 0.0)


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


def draw_sample_path(X, y, eta, grid, seed) -> tuple[np.ndarray, int]:
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
