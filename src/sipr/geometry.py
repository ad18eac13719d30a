"""Kernel geometry: the radial basis, its polynomial nullspace, and the norm constant.

Everything downstream is built from two arrays of a point set X (N x D) at a
regularity exponent eta,

    G[n, m]   = ||x_n - x_m||^(2 eta)      (symmetric, zero diagonal)
    M_u[v, n] = u_n^v                      (one row per multi-index |v| < eta)

with u = (x - shift) / s the points mapped into the unit box, and the
constant that turns the quadratic form a^T G a into a squared norm.
_Geometry is their one owner: it maps a point set into the unit box, checks
it for duplicates and assembles G and M_u, once, and holds them with the
factored kernel system they form. This is the one module that knows the unit
box: the interpolant, its posterior, the orthonormal basis and the bands all
read the points' solves from one instance, in the caller's units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.special import gammaln

from .errors import ConstraintViolated, DimensionMismatch, DuplicatePoints, IntegerEta, SingularSystem

# Tolerance for "two points coincide", applied in unit-box coordinates.
DUPLICATE_TOL = 1e-12

# Reciprocal condition number below which a system counts as singular:
# SymmetricFactor and the regression posterior's eigendecomposition gate on it.
RCOND_MIN = 1e-14


@dataclass(frozen=True)
class Regularity:
    """Validated regularity exponent.

    value must be positive and non-integer; floor(value) is the number of
    guaranteed derivatives and value - floor(value) the Hurst-type exponent
    of the roughest derivative.
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v) or v <= 0.0:
            raise IntegerEta(f"regularity exponent must be positive and finite, got {self.value!r}")
        if abs(v - round(v)) <= 1e-6:
            raise IntegerEta(
                f"regularity exponent must not be an integer (got {self.value!r}); "
                "the kernel family is undefined at integer values"
            )
        object.__setattr__(self, "value", v)

    @property
    def floor(self) -> int:
        return int(math.floor(self.value))


def as_regularity(eta) -> Regularity:
    """Accept a float or an existing Regularity."""
    if isinstance(eta, Regularity):
        return eta
    return Regularity(float(eta))


def as_points(X) -> np.ndarray:
    """Coerce to a float (N, D) array; 1-D input is treated as D = 1."""
    A = np.asarray(X, dtype=float)
    if A.ndim == 1:
        A = A[:, None]
    if A.ndim != 2:
        raise DimensionMismatch(f"point array must be 1- or 2-dimensional, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise DimensionMismatch("point array contains non-finite entries")
    return A


def multi_indices(dim: int, eta) -> list[tuple[int, ...]]:
    """All multi-indices v with |v| < eta, graded lexicographic.

    Degree-0 first; within a degree, descending lexicographic, e.g. for
    dim=2, eta=1.5: [(0,0), (1,0), (0,1)].
    """
    reg = as_regularity(eta)
    if dim < 1:
        raise DimensionMismatch(f"dim must be >= 1, got {dim}")
    idx = [t for t in product(range(reg.floor + 1), repeat=dim) if sum(t) <= reg.floor]
    idx.sort(key=lambda t: (sum(t), tuple(-e for e in t)))
    return idx


def nullspace_dim(dim: int, eta) -> int:
    """Dimension of the polynomial nullspace, binom(floor(eta) + dim, floor(eta))."""
    reg = as_regularity(eta)
    return math.comb(reg.floor + dim, reg.floor)


def eta_norm_constant(dim: int, eta) -> float:
    """Constant relating a^T G a to the squared norm of the interpolant.

        C = (-1)^ceil(eta) * Gamma(eta + 1/2) * pi^((dim+1)/2)
            / (Gamma(eta + dim/2) * Gamma(2 eta + 1))

    Worked values: (dim=1, eta=0.5) -> -pi; (dim=1, eta=1.5) -> pi/6;
    (dim=3, eta=0.5) -> -pi^2.
    """
    reg = as_regularity(eta)
    e = reg.value
    sign = -1.0 if math.ceil(e) % 2 else 1.0
    log_mag = (
        gammaln(e + 0.5)
        + 0.5 * (dim + 1) * math.log(math.pi)
        - gammaln(e + dim / 2.0)
        - gammaln(2.0 * e + 1.0)
    )
    return sign * math.exp(log_mag)


# --- matrices -----------------------------------------------------------


def pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of A and rows of B."""
    diff = A[:, None, :] - B[None, :, :]
    return np.einsum("nmd,nmd->nm", diff, diff)


def monomial_matrix(X, eta) -> np.ndarray:
    """M[v, n] = x_n^v over the multi-indices with |v| < eta (N0 x N)."""
    X = as_points(X)
    idx = multi_indices(X.shape[1], eta)
    M = np.empty((len(idx), X.shape[0]))
    for i, v in enumerate(idx):
        M[i] = np.prod(X ** np.asarray(v, dtype=float), axis=1)
    return M


# --- conditioning transform and the gated factor ---------------------------


@dataclass(frozen=True)
class AffineMap:
    """Affine map x -> (x - shift) / scale, per feature or with one scale.

    The unit box of a point set uses a single scale (the widest feature
    range), which keeps the map isotropic, so the kernel model is exactly
    covariant under it and results can be mapped back without approximation.
    Min-max scaling onto [0, 1] uses one scale per feature.
    """

    shift: np.ndarray  # (D,)
    scale: np.ndarray | float  # (D,) or one scale for every feature

    def apply(self, X) -> np.ndarray:
        return (np.atleast_2d(np.asarray(X, dtype=float)) - self.shift) / self.scale


class SymmetricFactor:
    """Bunch-Kaufman factorization of a symmetric indefinite matrix, rcond-gated.

    The saddle systems are symmetric indefinite. Factor once, estimate the
    reciprocal condition number from the factorization and raise
    SingularSystem below RCOND_MIN instead of returning garbage, then solve
    against any number of right-hand sides.
    """

    def __init__(self, A: np.ndarray):
        A = np.ascontiguousarray(A, dtype=float)
        sytrf, sycon, self._sytrs = get_lapack_funcs(("sytrf", "sycon", "sytrs"), (A,))
        anorm = np.linalg.norm(A, 1)
        self._ldu, self._ipiv, info = sytrf(A)
        if info != 0:
            raise SingularSystem(f"symmetric factorization failed (info={info})")
        rcond, info = sycon(self._ldu, self._ipiv, anorm)
        if info != 0 or not np.isfinite(rcond) or rcond < RCOND_MIN:
            raise SingularSystem(f"system too ill-conditioned to solve (rcond={rcond:.3e})")

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = self._sytrs(self._ldu, self._ipiv, np.asarray(b, dtype=float))
        if info != 0:
            raise SingularSystem(f"symmetric solve failed (info={info})")
        return x


# --- one point set --------------------------------------------------------


class _Geometry:
    """The kernel system of one point set X at regularity eta, assembled once.

    Building it maps X into the unit box, computes the N x N squared
    distances once, rejects points that coincide within DUPLICATE_TOL in the
    unit box, and raises the distances to eta for G, which is in the
    caller's units. The polynomial part has one basis, the monomials M_u of
    the unit-box points u = (x - shift) / s. Every solve, constraint check
    and band reads polynomial coefficients c_u over M_u, so none of them
    depends on where the inputs sit or on their scale, up to rounding.
    Distances shrink by s in the unit box, so the saddle there is

        K = [[G s^(-2 eta), M_u^T], [M_u, 0]].

    K is factored on first use and serves every solve and probe set of the
    point set. interpolant, power_function and conditioned_kernel map its
    solves back to the caller's units; caller_polynomial rewrites c_u over
    the caller's monomials.
    """

    def __init__(self, X, eta):
        self.eta = as_regularity(eta)
        self.X = X = as_points(X)
        # the widest feature range; scale 1 if every point is the same, which
        # the duplicate check then rejects
        lo = X.min(axis=0)
        scale = float((X.max(axis=0) - lo).max())
        self.box = AffineMap(shift=lo, scale=scale if np.isfinite(scale) and scale > 0.0 else 1.0)
        self.U = self.box.apply(X)
        d2 = pairwise_sq_dists(X, X)
        np.fill_diagonal(d2, np.inf)
        if d2.min() / self.box.scale**2 < DUPLICATE_TOL**2:
            n, m = np.unravel_index(int(np.argmin(d2)), d2.shape)
            raise DuplicatePoints(f"points {n} and {m} coincide within tolerance {DUPLICATE_TOL:g}")
        self.G = d2**self.eta.value
        np.fill_diagonal(self.G, 0.0)
        self.M_u = monomial_matrix(self.U, self.eta)

    @property
    def n_points(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def n_null(self) -> int:
        return self.M_u.shape[0]

    @cached_property
    def saddle(self) -> SymmetricFactor:
        """The factored unit-box saddle K, shape (N + N0, N + N0)."""
        N0, to_unit = self.n_null, self.box.scale ** (-2.0 * self.eta.value)
        K = np.block([[self.G * to_unit, self.M_u.T], [self.M_u, np.zeros((N0, N0))]])
        return SymmetricFactor(K)

    def as_probes(self, probes) -> np.ndarray:
        """Probe points as a (P, D) array, rejecting a feature count other than the data's."""
        P = as_points(probes)
        if P.shape[1] != self.dim:
            raise DimensionMismatch(f"probes have {P.shape[1]} features, data has {self.dim}")
        return P

    def probe_rows(self, probes) -> tuple[np.ndarray, np.ndarray]:
        """Kernel rows g(p)[n] = ||p - x_n||^(2 eta), shape (P, N), and unit-box monomials m_u(p), (N0, P)."""
        P = self.as_probes(probes)
        return pairwise_sq_dists(P, self.X) ** self.eta.value, monomial_matrix(self.box.apply(P), self.eta)

    def interpolant(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Kernel coefficients a (caller's units) and c_u of the minimum-norm interpolant of y.

        One saddle solve K [a_u; c_u] = [y; 0]; the unit-box coefficients a_u
        map back as a = a_u s^(-2 eta).
        """
        N = self.n_points
        sol = self.saddle.solve(np.concatenate([y, np.zeros(self.n_null)]))
        return sol[:N] * self.box.scale ** (-2.0 * self.eta.value), sol[N:]

    def border(self, probes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unit-box probes Q, their columns B = [g(Q); m(Q)] bordering K, and W = K^-1 B."""
        Q = self.box.apply(self.as_probes(probes))
        B = np.vstack([pairwise_sq_dists(self.U, Q) ** self.eta.value, monomial_matrix(Q, self.eta)])
        return Q, B, self.saddle.solve(B)

    def power_function(self, B: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Squared power function 1 / ||t_x||^2 at each probe x of a border, shape (P,).

        t_x is the test function of x: the minimum-norm function that is 1 at
        x and 0 at every datapoint. Bordering K with the probe's column b
        gives ||t_x||^2 = C / s with s = -b^T K^-1 b, the Schur complement
        (Schaback; Wendland, Scattered Data Approximation, ch. 11), mapped
        back to the caller's units. s falls continuously to 0 at a datapoint,
        where it bottoms out at rounding level; below RCOND_MIN relative to
        |b| |K^-1 b| the probe is taken to sit on a datapoint and the result
        is exactly 0.
        """
        C = eta_norm_constant(self.dim, self.eta)
        s = -math.copysign(1.0, C) * np.einsum("ip,ip->p", B, W)
        floor = RCOND_MIN * np.linalg.norm(B, axis=0) * np.linalg.norm(W, axis=0)
        return np.where(s > floor, s * self.box.scale ** (2.0 * self.eta.value) / abs(C), 0.0)

    def conditioned_kernel(self, Q: np.ndarray, B: np.ndarray, W: np.ndarray) -> np.ndarray:
        """The kernel of a border's probes conditioned on the data, shape (P, P).

            K_c = (Phi - B^T W) s^(2 eta) / C,   Phi[p, q] = ||q_p - q_q||^(2 eta),

        in the caller's units; its diagonal is the power function.
        """
        to_caller = self.box.scale ** (2.0 * self.eta.value) / eta_norm_constant(self.dim, self.eta)
        return (pairwise_sq_dists(Q, Q) ** self.eta.value - B.T @ W) * to_caller

    def norm_sq(self, a) -> float:
        """Squared norm C a^T G a of the function with kernel coefficients a on these points.

        The quadratic form is a norm only on the growth-rate constraint
        M_u a = 0; a violation beyond 1e-6 raises ConstraintViolated.
        """
        a = np.asarray(a, dtype=float).reshape(-1)
        resid = np.abs(self.M_u @ a)
        if resid.max() > 1e-6 * max(float(np.abs(a).max(initial=0.0)), 1.0):
            raise ConstraintViolated(
                f"coefficients violate the growth-rate constraint (|M a| up to {resid.max():.3e})"
            )
        return eta_norm_constant(self.dim, self.eta) * float(a @ self.G @ a)

    def caller_polynomial(self, c_u: np.ndarray) -> np.ndarray:
        """Re-express sum_v c_u[v] ((x - shift) / s)^v over the caller's monomials x^v.

        The substitution is affine, so the result lives on the same index set
        (every sub-index of an admissible index is admissible).
        """
        indices, shift, scale = multi_indices(self.dim, self.eta), self.box.shift, self.box.scale
        pos = {v: i for i, v in enumerate(indices)}
        out = np.zeros_like(c_u)
        for v, cv in zip(indices, c_u):  # expand prod_d (x_d - shift_d)^(v_d) term by term
            for ks in product(*(range(vd + 1) for vd in v)):
                binomials = (math.comb(vd, k) * (-shift[d]) ** (vd - k) for d, (vd, k) in enumerate(zip(v, ks)))
                out[pos[ks]] += cv * scale ** -sum(v) * math.prod(binomials)
        return out
