"""Hamiltonian Monte Carlo over the preconditioned posterior.

Plain leapfrog HMC with a fixed number of integrator steps and dual-averaging
step-size adaptation during burn-in. All chains advance in lockstep in one
thread as rows of one array; each chain has its own step size and its own
random stream split from one master seed, so results are bit-reproducible for
a fixed configuration. The sampler is generic: any target exposing ``dim``,
``log_density(state)`` and ``grad(state)`` can be sampled, one row at a time,
with an optional fixed preconditioner. A regression density instead runs in
the coordinates of its pencil eigendecomposition, where both quadratic forms
are diagonal, with its Laplace metric at the MAP as the mass matrix: every
leapfrog step is a few elementwise operations on length-N rows, and the kept
draws go back to the original coordinates in one matrix product. HMC with a
given mass matrix is the same chain after any linear change of coordinates,
so this changes the cost, not the law. Regression runs additionally get MAP
initialization, noise extraction, and pole classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import solve_triangular

from ._io import atomic_write_text
from .errors import DivergentChains, DomainError, TooFewSamples, ValidationError
from .posterior import PosteriorDensity, _laplace_metric, _log_sigma_draw, _map_coordinates

# A proposal whose energy error exceeds this is counted as divergent.
ENERGY_ERROR_MAX = 1e3
# The occasional short step: probability per iteration and log-spaced range.
_SHORT_PROB = 0.2
_LOG_SHORT_LO = math.log(0.08)
_LOG_SHORT_HI = math.log(0.8)
# Trace-statistic thresholds for pole classification (relative).
NULLSPACE_POLE_TOL = 1e-3
INTERPOLATION_POLE_TOL = 1e-3


class Regime(str, Enum):
    NORMAL = "normal"
    NULLSPACE_POLE = "nullspace_pole"
    INTERPOLATION_POLE = "interpolation_pole"


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling budget and tuning targets.

    samples_per_chain counts all iterations including burn-in, so each chain
    keeps samples_per_chain - burn_in draws.
    """

    chains: int = 2
    samples_per_chain: int = 1000
    burn_in: int = 500
    seed: int = 0
    leapfrog_steps: int = 32
    target_accept: float = 0.8
    trace_path: str | None = None

    def __post_init__(self):
        if self.chains < 1:
            raise ValidationError(f"chains must be >= 1, got {self.chains}")
        if self.burn_in < 0:
            raise ValidationError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.samples_per_chain <= self.burn_in:
            raise TooFewSamples(
                f"samples_per_chain ({self.samples_per_chain}) must exceed burn_in ({self.burn_in})"
            )
        if self.leapfrog_steps < 1:
            raise ValidationError(f"leapfrog_steps must be >= 1, got {self.leapfrog_steps}")
        if not 0.0 < self.target_accept < 1.0:
            raise ValidationError(f"target_accept must be in (0, 1), got {self.target_accept}")

    @property
    def kept_per_chain(self) -> int:
        return self.samples_per_chain - self.burn_in


@dataclass(frozen=True)
class ChainStats:
    accept_rate: float  # post-burn-in acceptance fraction
    divergence_rate: float  # post-burn-in divergent fraction
    step_size: float  # frozen step size used after burn-in


@dataclass(frozen=True)
class Diagnostics:
    chains: tuple[ChainStats, ...]
    rhat_max: float
    metric: str | None = None  # regression only: "laplace" or "laplace_without_radial_term"
    map_iterations: int | None = None  # regression runs started at the MAP

    @property
    def divergence_rate(self) -> float:
        return float(np.mean([c.divergence_rate for c in self.chains]))

    @property
    def mixed(self) -> bool:
        """Split-chain scale reduction below the conventional 1.1 flag."""
        return bool(np.isfinite(self.rhat_max) and self.rhat_max < 1.1)


@dataclass(eq=False)
class RegressionPosterior:
    """Pooled MCMC output in original state coordinates."""

    samples: np.ndarray  # (kept draws, state dim), chain-major
    log_posteriors: np.ndarray  # (kept draws,)
    h_hat: np.ndarray  # posterior mean of h*
    Sigma_hat: np.ndarray  # posterior covariance of h* (1/N normalization)
    regime: Regime
    diagnostics: Diagnostics
    sigma_y_samples: np.ndarray | None = None  # unknown-noise mode only
    n_basis: int | None = None
    n_null: int | None = None
    config: SamplerConfig | None = field(default=None, repr=False)

    @property
    def sigma_y_median(self) -> float | None:
        if self.sigma_y_samples is None:
            return None
        return float(np.median(self.sigma_y_samples))


def posterior_moments(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the draws, covariance normalized by 1/N."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise ValidationError(f"samples must be a non-empty 2-D array, got shape {samples.shape}")
    mean = samples.mean(axis=0)
    dev = samples - mean
    cov = dev.T @ dev / samples.shape[0]
    return mean, cov


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


# --- HMC internals --------------------------------------------------------
#
# Every target is batched over chains. States are rows of a (chains, dim)
# array in whitened coordinates z. evaluate(Z) returns P, whatever drift(Z, P)
# and log_density(Z, P) need; the loop keeps P for the current states, so a
# trajectory starts without a fresh evaluation. The momentum is carried as
# the velocity M^-1 r of the target's mass matrix M: drift is M^-1 grad,
# kinetic(V) is (1/2) V^T M V, and velocity(Xi) turns standard normals into
# velocities. Rows never mix: a chain that leaves the domain turns non-finite
# and stays so, and the others are untouched.


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
        p = density.pencil
        self.n = density.n_points
        self.nh = density.n_basis
        self.draws_noise = not density.noise.is_known
        self.ell = metric.ell
        self.sqrt_d = metric.sqrt_d
        d = metric.sqrt_d**2
        self.ab = np.concatenate([p.rho / d, p.s / d])  # [a | b]
        self.z_mu = metric.sqrt_d * p.t_mu
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


class _Rows:
    """Any target with log_density(x) and grad(x), called one row at a time (unit mass in z)."""

    draws_noise = False

    def __init__(self, target, Linv: np.ndarray):
        self.target = target
        self.Linv = Linv

    def evaluate(self, Z: np.ndarray) -> np.ndarray:
        """The gradient rows in z; NaN where the target is undefined."""
        G = np.full_like(Z, math.nan)
        for c, x in enumerate(Z @ self.Linv):
            if np.all(np.isfinite(x)):
                try:
                    G[c] = self.target.grad(x) @ self.Linv.T
                except (DomainError, FloatingPointError, OverflowError):
                    pass
        return G

    def drift(self, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
        return P

    @staticmethod
    def kinetic(V: np.ndarray) -> np.ndarray:
        return 0.5 * np.einsum("ij,ij->i", V, V)

    @staticmethod
    def velocity(Xi: np.ndarray) -> np.ndarray:
        return Xi

    def log_density(self, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
        out = np.full(Z.shape[0], -math.inf)
        for c, x in enumerate(Z @ self.Linv):
            try:
                lp = float(self.target.log_density(x))
            except (DomainError, FloatingPointError, OverflowError):
                continue
            if math.isfinite(lp):
                out[c] = lp
        return out


def _leapfrog(target, Z, P, R, eps, n_steps: int):
    """n_steps of leapfrog for every chain (eps is a (chains, 1) column)."""
    R = R + 0.5 * eps * target.drift(Z, P)
    for i in range(n_steps):
        Z = Z + eps * R
        P = target.evaluate(Z)
        R += (eps if i < n_steps - 1 else 0.5 * eps) * target.drift(Z, P)
    return Z, R, P


def _energy_error(target, Z, P, lp, R, eps, n_steps: int):
    """End states of one trajectory per chain and their energy errors (inf where undefined)."""
    h0 = target.kinetic(R) - lp
    Z1, R1, P1 = _leapfrog(target, Z, P, R, eps[:, None], n_steps)
    lp1 = target.log_density(Z1, P1)
    ok = np.isfinite(Z1).all(axis=1) & np.isfinite(R1).all(axis=1) & np.isfinite(lp1)
    delta = np.where(ok, target.kinetic(R1) - lp1 - h0, math.inf)
    return Z1, P1, lp1, delta


def _transition(target, Z, P, lp, R, eps, n_steps: int, log_u):
    """One HMC proposal per chain, each accepted or rejected on its own.

    Returns the new (Z, P, lp) and per-chain accept, divergent and
    acceptance-statistic arrays.
    """
    Z1, P1, lp1, delta = _energy_error(target, Z, P, lp, R, eps, n_steps)
    finite = np.isfinite(delta)
    divergent = ~finite | (np.abs(delta) > ENERGY_ERROR_MAX)
    accept_stat = np.where(finite, np.exp(-np.clip(delta, 0.0, 700.0)), 0.0)
    accept = ~divergent & (log_u < -delta)
    keep = accept[:, None]
    return (np.where(keep, Z1, Z), np.where(keep, P1, P), np.where(accept, lp1, lp),
            accept, divergent, accept_stat)


def _find_initial_step(target, z0: np.ndarray, rng: np.random.Generator) -> float:
    """Double/halve a unit step until one leapfrog step crosses 50% acceptance."""
    Z0 = z0[None, :]
    P0 = target.evaluate(Z0)
    lp0 = target.log_density(Z0, P0)
    if not math.isfinite(lp0[0]):
        return 0.1
    R0 = target.velocity(rng.standard_normal(Z0.shape))

    def log_accept(eps: float) -> float:
        return -float(_energy_error(target, Z0, P0, lp0, R0, np.array([eps]), 1)[3][0])

    eps = 1.0
    la = log_accept(eps)
    direction = 1.0 if la > math.log(0.5) else -1.0
    for _ in range(60):
        if direction * la <= -direction * math.log(2.0):
            break
        eps *= 2.0**direction
        if not 1e-12 < eps < 1e12:
            break
        la = log_accept(eps)
    return eps


class _DualAveraging:
    """Nesterov dual averaging of log step size toward a target acceptance."""

    def __init__(self, eps0: float, target: float, gamma=0.05, t0=10.0, kappa=0.75):
        self.mu = math.log(10.0 * eps0)
        self.target = target
        self.gamma = gamma
        self.t0 = t0
        self.kappa = kappa
        self.log_eps = math.log(eps0)
        self.log_eps_bar = 0.0
        self.h_bar = 0.0
        self.m = 0

    def update(self, accept_stat: float) -> None:
        self.m += 1
        frac = 1.0 / (self.m + self.t0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (self.target - accept_stat)
        self.log_eps = self.mu - math.sqrt(self.m) / self.gamma * self.h_bar
        w = self.m**-self.kappa
        self.log_eps_bar = w * self.log_eps + (1.0 - w) * self.log_eps_bar

    @property
    def adapted(self) -> float:
        return math.exp(self.log_eps_bar if self.m > 0 else self.log_eps)


def _run_chains(target, z0: np.ndarray, eps0, rngs, config: SamplerConfig):
    """All chains in lockstep from z0.

    Returns the kept draws in z, shaped (chains, kept, dim), their log
    densities and one ChainStats per chain.
    """
    C, dim = len(rngs), z0.shape[0]
    Z = np.tile(z0, (C, 1))
    P = target.evaluate(Z)
    lp = target.log_density(Z, P)
    das = [_DualAveraging(e, config.target_accept) for e in eps0]
    eps = np.array(eps0, dtype=float)

    kept = np.empty((C, config.kept_per_chain, dim))
    kept_lp = np.empty((C, config.kept_per_chain))
    accepted = np.zeros(C, dtype=int)
    divergent_post = np.zeros(C, dtype=int)
    R = np.empty((C, dim))
    eps_it = np.empty(C)
    log_u = np.empty(C)
    for it in range(config.samples_per_chain):
        for c, rng in enumerate(rngs):
            R[c] = rng.standard_normal(dim)
            # Jitter the step: mostly +-20%, which breaks the resonance a
            # fixed trajectory length has on near-Gaussian targets, with
            # occasional much shorter steps so a chain sliding into a pole
            # funnel can keep descending after the base step froze. Only
            # the base step adapts.
            if rng.uniform() < 1.0 - _SHORT_PROB:
                eps_it[c] = eps[c] * rng.uniform(0.8, 1.2)
            else:
                eps_it[c] = eps[c] * math.exp(rng.uniform(_LOG_SHORT_LO, _LOG_SHORT_HI))
            log_u[c] = math.log(max(rng.uniform(), 1e-300))
        Z, P, lp, accept, divergent, accept_stat = _transition(
            target, Z, P, lp, target.velocity(R), eps_it, config.leapfrog_steps, log_u
        )
        # Unknown-noise targets get a conjugate update of log sigma between
        # trajectories; composing the two kernels keeps the joint invariant.
        if target.draws_noise:
            target.draw_noise(Z, P, rngs)
            lp = target.log_density(Z, P)
        if it < config.burn_in:
            for c, da in enumerate(das):
                da.update(float(accept_stat[c]))
                eps[c] = da.adapted if it == config.burn_in - 1 else math.exp(da.log_eps)
        else:
            k = it - config.burn_in
            accepted += accept
            divergent_post += divergent
            kept[:, k] = Z
            kept_lp[:, k] = lp
    n_post = max(1, config.kept_per_chain)
    stats = tuple(
        ChainStats(accept_rate=float(a / n_post), divergence_rate=float(d / n_post), step_size=float(e))
        for a, d, e in zip(accepted, divergent_post, eps)
    )
    return kept, kept_lp, stats


def _split_rhat(chains: list[np.ndarray]) -> float:
    """Max over dimensions of the split-chain potential scale reduction."""
    halves = []
    for c in chains:
        half = c.shape[0] // 2
        if half >= 2:
            halves.append(c[:half])
            halves.append(c[-half:])
    if len(halves) < 2:
        return float("nan")
    n = min(h.shape[0] for h in halves)
    stack = np.stack([h[:n] for h in halves])  # (m, n, dim)
    means = stack.mean(axis=1)
    within = stack.var(axis=1, ddof=1).mean(axis=0)
    between = n * means.var(axis=0, ddof=1)
    var_plus = (n - 1) / n * within + between / n
    with np.errstate(divide="ignore", invalid="ignore"):
        rhat = np.sqrt(var_plus / within)
    rhat = np.where(within > 0, rhat, np.where(between > 0, np.inf, 1.0))
    return float(np.max(rhat))


def _write_trace(path: str, samples: np.ndarray, log_posts: np.ndarray) -> None:
    dim = samples.shape[1]
    lines = [",".join([f"state_{i}" for i in range(dim)] + ["log_posterior"])]
    lines += [",".join(map(repr, row)) for row in np.column_stack([samples, log_posts]).tolist()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def run_mcmc(
    density,
    config: SamplerConfig,
    *,
    init: np.ndarray | None = None,
    precond: np.ndarray | None = None,
) -> RegressionPosterior:
    """Sample the density and summarize the draws.

    A regression PosteriorDensity runs in its pencil coordinates with the
    Laplace metric at init, which defaults to the MAP point (plus the initial
    log sigma in unknown-noise mode); pole regimes are classified from the
    traces. Generic targets must pass init, may pass a lower-triangular
    precond L (z = L^T x; identity by default) and are always reported as the
    normal regime.
    """
    is_regression = isinstance(density, PosteriorDensity)
    if init is None and not is_regression:
        raise ValidationError("generic targets require an explicit init state")
    if precond is not None and is_regression:
        raise ValidationError("a regression density brings its own metric; precond is for generic targets")
    if init is not None:
        init = np.asarray(init, dtype=float).reshape(-1)
        dim = getattr(density, "dim", init.shape[0])
        if init.shape[0] != dim:
            raise ValidationError(f"init has length {init.shape[0]}, target dimension is {dim}")
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(config.chains)]

    map_iterations = None
    if is_regression:
        if init is None:
            t0, map_iterations = _map_coordinates(density)
            log_sigma0 = None if density.noise.is_known else math.log(density.noise.sigma_init)
        else:
            h0, log_sigma0 = density._split(init)
            t0 = density.pencil.coordinates(h0)
        metric = _laplace_metric(density, t0, log_sigma0)
        target = _Diagonalised(density, metric)
        z0 = target.start(t0, log_sigma0)
    else:
        L = np.eye(init.shape[0]) if precond is None else np.asarray(precond, dtype=float)
        Linv = solve_triangular(L, np.eye(init.shape[0]), lower=True)
        target = _Rows(density, Linv)
        z0 = L.T @ init
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eps0 = [_find_initial_step(target, z0, rng) for rng in rngs]
        kept_z, kept_lp, stats = _run_chains(target, z0, eps0, rngs, config)

    draws = target.to_x(kept_z, density.pencil.T) if is_regression else kept_z @ Linv
    chain_draws = list(draws)
    samples = draws.reshape(-1, z0.shape[0])
    log_posts = kept_lp.reshape(-1)
    diagnostics = Diagnostics(
        chains=stats,
        rhat_max=_split_rhat(chain_draws),
        metric=metric.name if is_regression else None,
        map_iterations=map_iterations,
    )

    if is_regression:
        n_state = density.n_points
        sigma_samples = None if density.noise.is_known else np.exp(samples[:, -1])
        h_norm_chains = [np.linalg.norm(c[:, : density.n_basis], axis=1) for c in chain_draws]
        sigma_chains = None if density.noise.is_known else [np.exp(c[:, -1]) for c in chain_draws]
        y_sd = float(np.std(density.y))
        regime = detect_poles(h_norm_chains, sigma_chains, density.h_mu_norm, y_sd)
    else:
        n_state = samples.shape[1]
        sigma_samples = None
        regime = Regime.NORMAL

    # A pole explains the divergences; only an unexplained majority is an error.
    if regime == Regime.NORMAL:
        total_post = sum(c.shape[0] for c in chain_draws)
        n_div = round(sum(s.divergence_rate * c.shape[0] for s, c in zip(stats, chain_draws)))
        if total_post > 0 and n_div / total_post > 0.5:
            raise DivergentChains(
                f"{n_div}/{total_post} post-burn-in proposals diverged; "
                "the posterior is badly scaled or sits on a pole"
            )

    h_hat, Sigma_hat = posterior_moments(samples[:, :n_state])
    if config.trace_path is not None:
        _write_trace(config.trace_path, samples, log_posts)
    return RegressionPosterior(
        samples=samples,
        log_posteriors=log_posts,
        h_hat=h_hat,
        Sigma_hat=Sigma_hat,
        regime=regime,
        diagnostics=diagnostics,
        sigma_y_samples=sigma_samples,
        n_basis=density.n_basis if is_regression else None,
        n_null=density.n_null if is_regression else None,
        config=config,
    )
