"""The regression posterior, computed exactly, and Hamiltonian Monte Carlo for generic targets.

A regression density is not sampled by a chain. Its norm prior ||h||^-Nh is
a Gaussian scale mixture, c * int N(h; 0, tau^2 I) dtau / tau, and in the
coordinates of its pencil eigendecomposition both quadratic forms are
diagonal, so given tau (or lambda = tau / sigma when the noise is unknown)
the posterior is a diagonal Gaussian and the whole posterior is a
one-dimensional mixture over log tau. ``_ScaleMixture`` evaluates its profile
on nodes, reads the regime off it, and gives the exact moments, the exact
sigma_y quantiles and i.i.d. draws (a node, then sigma, then the
coordinates); only the draws depend on the seed.

Generic targets exposing ``dim``, ``log_density(state)`` and ``grad(state)``
get plain leapfrog HMC with a fixed number of integrator steps and
dual-averaging step-size adaptation during burn-in, with an optional fixed
preconditioner. All chains advance in lockstep in one thread as rows of one
array; each chain has its own step size and its own random stream split from
one master seed, so results are bit-reproducible for a fixed configuration.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaincc, gammainccinv, gammaln

from .errors import DivergentChains, DomainError, PoleCollapse, TooFewPoints, TooFewSamples, ValidationError
from .posterior import PosteriorDensity

# A proposal whose energy error exceeds this is counted as divergent.
ENERGY_ERROR_MAX = 1e3
# The occasional short step: probability per iteration and log-spaced range.
_SHORT_PROB = 0.2
_LOG_SHORT_LO = math.log(0.08)
_LOG_SHORT_HI = math.log(0.8)
# Pole scales (relative): a pole's plateau of the profile counts ln(1 / TOL)
# of log-scale width, ||h|| down to TOL ||h_mu|| or sigma down to TOL sd(y).
NULLSPACE_POLE_TOL = 1e-3
INTERPOLATION_POLE_TOL = 1e-3
# The mixture keeps the nodes within this many nats of its peak.
_NATS = 40.0
_GRID_STEP = 0.05  # spacing of the profile grid that locates the peak, in log scale
_NODES = 128  # quadrature nodes of the mixture
_CHUNK = 2**17  # floats in the largest (nodes x N) temporary: 1 MB


class Regime(str, Enum):
    NORMAL = "normal"
    NULLSPACE_POLE = "nullspace_pole"
    INTERPOLATION_POLE = "interpolation_pole"


@dataclass(frozen=True)
class SamplerConfig:
    """Draw counts and the HMC tuning of generic targets.

    samples_per_chain counts all iterations including burn-in, so each chain
    keeps samples_per_chain - burn_in draws. A regression density draws
    chains * kept_per_chain i.i.d. draws and ignores the HMC tuning.
    """

    chains: int = 2
    samples_per_chain: int = 1000
    burn_in: int = 500
    seed: int = 0
    leapfrog_steps: int = 32
    target_accept: float = 0.8

    def __post_init__(self):
        if isinstance(self.seed, bool) or not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
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
    rhat_max: float  # split-chain R-hat of HMC chains; 1 for the exact posterior's i.i.d. draws
    evidence: dict | None = None  # regression: the profile record that chose the regime


@dataclass(eq=False)
class RegressionPosterior:
    """Posterior moments and draws in original state coordinates.

    draw() returns the draws: the states (draws, state dim), chain-major,
    their log posteriors, and sigma_y per draw (unknown-noise mode only, else
    None). It runs once, when samples, log_posteriors or sigma_y_samples is
    first read, so a posterior whose draws are never read never makes them.
    """

    draw: Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray | None]] = field(repr=False)
    h_hat: np.ndarray  # posterior mean of h*
    Sigma_hat: np.ndarray  # posterior covariance of h*
    regime: Regime
    diagnostics: Diagnostics
    config: SamplerConfig | None = field(default=None, repr=False)
    sigma_y_quantiles: tuple[float, float, float] | None = None  # q05, median, q95 (unknown noise)

    @cached_property
    def _draws(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        return self.draw()

    @property
    def samples(self) -> np.ndarray:
        return self._draws[0]

    @property
    def log_posteriors(self) -> np.ndarray:
        return self._draws[1]

    @property
    def sigma_y_samples(self) -> np.ndarray | None:
        return self._draws[2]

    @property
    def sigma_y_median(self) -> float | None:
        return None if self.sigma_y_quantiles is None else self.sigma_y_quantiles[1]


def posterior_moments(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the draws, covariance normalized by 1/N."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise ValidationError(f"samples must be a non-empty 2-D array, got shape {samples.shape}")
    mean = samples.mean(axis=0)
    dev = samples - mean
    cov = dev.T @ dev / samples.shape[0]
    return mean, cov


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
        # A target that can draw part of its state from its exact conditional
        # (log sigma of a regression density) does so between trajectories;
        # composing the two kernels keeps the joint invariant.
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


def run_mcmc(
    density,
    config: SamplerConfig,
    *,
    init: np.ndarray | None = None,
    precond: np.ndarray | None = None,
) -> RegressionPosterior:
    """The posterior of a target: exact for a regression density, sampled by HMC otherwise.

    A regression PosteriorDensity is computed as its scale mixture (see
    _ScaleMixture): exact moments, regime and sigma_y quantiles, and
    config.chains * config.kept_per_chain i.i.d. draws from config.seed; it
    takes no init or precond. Generic targets must pass init, may pass a
    lower-triangular precond L (z = L^T x; identity by default) and are
    always reported as the normal regime.
    """
    if isinstance(density, PosteriorDensity):
        if init is not None or precond is not None:
            raise ValidationError("the exact regression posterior takes no init state or preconditioner")
        return _ScaleMixture(density).posterior(config)
    if init is None:
        raise ValidationError("generic targets require an explicit init state")
    init = np.asarray(init, dtype=float).reshape(-1)
    dim = getattr(density, "dim", init.shape[0])
    if init.shape[0] != dim:
        raise ValidationError(f"init has length {init.shape[0]}, target dimension is {dim}")
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(config.chains)]
    L = np.eye(dim) if precond is None else np.asarray(precond, dtype=float)
    Linv = solve_triangular(L, np.eye(dim), lower=True)
    target = _Rows(density, Linv)
    z0 = L.T @ init
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eps0 = [_find_initial_step(target, z0, rng) for rng in rngs]
        kept_z, kept_lp, stats = _run_chains(target, z0, eps0, rngs, config)

    draws = kept_z @ Linv
    samples = draws.reshape(-1, dim)
    n_div = round(sum(s.divergence_rate for s in stats) * config.kept_per_chain)
    if n_div > 0.5 * samples.shape[0]:
        raise DivergentChains(f"{n_div}/{samples.shape[0]} post-burn-in proposals diverged")
    h_hat, Sigma_hat = posterior_moments(samples)
    return RegressionPosterior(
        draw=lambda: (samples, kept_lp.reshape(-1), None),
        h_hat=h_hat,
        Sigma_hat=Sigma_hat,
        regime=Regime.NORMAL,
        diagnostics=Diagnostics(chains=stats, rhat_max=_split_rhat(list(draws))),
        config=config,
    )


# --- the exact regression posterior ------------------------------------------


class _ScaleMixture:
    """A regression density as a mixture over one scale x, Gaussian given x.

    In pencil coordinates t the kernel coordinates have misfit weights s_i
    and means mu_i, and the polynomial ones are N(mu_c, 1), or N(mu_c,
    sigma^2) when the noise is unknown. With x = log tau (known noise) or
    x = log lambda, lambda = tau / sigma (unknown noise), and a_i = e^2x s_i,
    each kernel coordinate given x is Gaussian with mean a_i mu_i / (1 + a_i)
    and variance e^2x / (1 + a_i), times sigma^2 when unknown; 1 / sigma^2
    given x is Gamma(Nh/2, rate Q/2) with Q = sum mu_i^2 s_i / (1 + a_i); and
    the profile of x, with uniform measure in x, is

        known:   f(x) = -1/2 sum log(1 + a_i) - Q / 2
        unknown: f(x) = -1/2 sum log(1 + a_i) - (Nh/2) log Q

    Each evaluation is O(Nh). f is flat at both ends: x -> -inf is the
    nullspace pole and, for unknown noise, x -> +inf the interpolation pole,
    so the exact posterior is improper at both. The regime is whichever
    holds the most mass: the basin of the profile's peak, counted above the
    plateau of its side, or a plateau over ln(1/TOL) of log-scale width.
    Without an interior maximum the basin is empty, so the plateau of the
    rising side wins. The normal posterior is the mixture restricted to the
    basin; a pole's, which only the draws use, is the mixture cut where the
    profile's range ends.
    """

    def __init__(self, density: PosteriorDensity):
        if density.h_mu_norm == 0.0:
            raise PoleCollapse("interpolant is exactly polynomial; no kernel component to fit")
        self.known = density.noise.is_known
        self.n, self.nh = density.n_points, density.n_basis
        if not self.known and self.nh < 3:  # E[sigma^2] = Q / (Nh - 2)
            raise TooFewPoints(f"with unknown noise the posterior variance needs N - N0 >= 3, got {self.nh}")
        self.T, self.t_mu, self.s_all = density.T, density.t_mu, density.s
        self.s = np.maximum(density.s[: self.nh], np.finfo(float).tiny)
        self.mu = density.t_mu[: self.nh]
        self.ms = self.mu**2 * self.s
        if self.known:  # f at x -> -inf and x -> +inf
            self.plateaus = (-0.5 * self.ms.sum(), -math.inf)
        else:
            self.plateaus = (-0.5 * self.nh * math.log(self.ms.sum()),
                             -0.5 * np.log(self.s).sum() - 0.5 * self.nh * math.log(self.mu @ self.mu))

    def _rows(self, x: np.ndarray):
        """Chunks of x as (rows, a) with a = e^2x s, no chunk above _CHUNK floats."""
        step = max(1, _CHUNK // self.nh)
        for i in range(0, x.shape[0], step):
            yield slice(i, i + step), np.exp(2.0 * x[i : i + step, None]) * self.s

    def profile(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f and Q at every x."""
        f, Q = np.empty(x.shape), np.empty(x.shape)
        for rows, a in self._rows(x):
            Q[rows] = (self.ms / (1.0 + a)).sum(axis=1)
            f[rows] = -0.5 * np.log1p(a).sum(axis=1)
        return f - (0.5 * Q if self.known else 0.5 * self.nh * np.log(Q)), Q

    def grid(self) -> np.ndarray:
        """A _GRID_STEP grid over every x where f can turn, plus ln(1/TOL) at each end.

        Beyond the scales -1/2 log s_i (and log(||mu|| / sqrt(Nh)) for known
        noise) every a_i is far from 1 on the same side, and f is monotone.
        """
        turns = -0.5 * np.log(self.s)
        margin = math.log(1.0 / min(NULLSPACE_POLE_TOL, INTERPOLATION_POLE_TOL))
        lo = turns.min() - margin
        hi = max(turns.max(), math.log(np.linalg.norm(self.mu) / math.sqrt(self.nh))) + margin
        return np.linspace(lo, hi, math.ceil((hi - lo) / _GRID_STEP) + 1)

    def nodes(self, x: np.ndarray, f: np.ndarray, k: int, floors: tuple[float, float]):
        """_NODES midpoint nodes over the descent from the grid's peak x[k].

        The descent stops at a dip, where f meets the floor of its side
        (floors[0] left of the peak, floors[1] right of it), or _NATS below
        the peak. Each node weighs e^f - e^floor. Returns the nodes, f and Q
        there, the normalised weights and the log of the weighed mass.
        """
        floor = np.where(np.arange(x.shape[0]) < k, *floors)
        with np.errstate(divide="ignore"):
            excess = f + np.log(np.maximum(-np.expm1(floor - f), 0.0))
        cut = excess[k] - _NATS
        lo = hi = k
        while lo > 0 and f[lo - 1] <= f[lo] and excess[lo - 1] > cut:
            lo -= 1
        while hi < x.shape[0] - 1 and f[hi + 1] <= f[hi] and excess[hi + 1] > cut:
            hi += 1
        a, b = x[max(lo - 1, 0)], x[min(hi + 1, x.shape[0] - 1)]
        xs = a + (b - a) * (np.arange(_NODES) + 0.5) / _NODES
        fs, Q = self.profile(xs)
        top = fs.max()
        w = np.maximum(np.exp(fs - top) - np.exp(np.where(xs < x[k], *floors) - top), 0.0)
        total = w.sum()
        log_mass = top + math.log(total * (b - a) / _NODES) if total > 0.0 else -math.inf
        return xs, fs, Q, w / total if total > 0.0 else w, log_mass

    def solve(self):
        """The regime and the nodes of its posterior (see nodes); keeps every regime's log-mass in log_masses."""
        x = self.grid()
        f, _ = self.profile(x)
        k = int(np.argmax(f))
        basin = self.nodes(x, f, k, self.plateaus)
        masses = {
            Regime.NORMAL: basin[-1] if 0 < k < x.shape[0] - 1 else -math.inf,
            Regime.NULLSPACE_POLE: self.plateaus[0] + math.log(math.log(1.0 / NULLSPACE_POLE_TOL)),
            Regime.INTERPOLATION_POLE: self.plateaus[1] + math.log(math.log(1.0 / INTERPOLATION_POLE_TOL)),
        }
        self.log_masses = masses
        regime = max(masses, key=masses.get)
        return regime, basin if regime is Regime.NORMAL else self.nodes(x, f, k, (-math.inf, -math.inf))

    def moments(self, xs, Q, w) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance of h*: T (diag E[var] + Cov of the node means) T^T."""
        e2x = np.exp(2.0 * xs)
        s2 = np.ones_like(xs) if self.known else Q / (self.nh - 2)  # E[sigma^2] at each node
        a = e2x[:, None] * self.s
        m = self.mu * a / (1.0 + a)
        m_bar = w @ m
        ev = np.concatenate([w @ ((e2x * s2)[:, None] / (1.0 + a)), np.full(self.n - self.nh, w @ s2)])
        L = self.T * np.sqrt(ev)
        B = self.T[:, : self.nh] @ ((m - m_bar) * np.sqrt(w)[:, None]).T
        return self.T @ np.concatenate([m_bar, self.t_mu[self.nh :]]), L @ L.T + B @ B.T

    def sigma_quantiles(self, Q, w) -> tuple[float, float, float]:
        """q05, median and q95 of sigma, by safeguarded Newton on the mixture's CDF in log sigma.

        In l = log sigma the CDF is F(l) = sum_k w_k Gamma(a, z_k) / Gamma(a)
        with z_k = Q_k e^-2l / 2 and a = Nh / 2, and its derivative is
        F'(l) = 2 sum_k w_k z_k^a e^-z_k / Gamma(a). Each quantile of the
        mixture lies between its nodes' quantiles, which bracket it. The three
        quantiles are solved together from the weighted mean of their nodes'
        quantiles, with one evaluation of F and F' per step; each evaluation
        narrows the brackets, and a Newton step that leaves its bracket or is
        not finite bisects it instead. It stops when every step or bracket is
        at most 1e-14.
        """
        shape = 0.5 * self.nh
        q = np.array([0.05, 0.5, 0.95])
        per_node = 0.5 * np.log(0.5 * Q[:, None] / gammainccinv(shape, q))
        lo, hi = per_node.min(axis=0), per_node.max(axis=0)
        x = w @ per_node
        for _ in range(200):  # bisection alone would meet 1e-14 in fewer steps
            z = 0.5 * Q[:, None] * np.exp(-2.0 * x)
            excess = q - w @ gammaincc(shape, z)  # decreasing in x
            lo, hi = np.where(excess > 0.0, x, lo), np.where(excess > 0.0, hi, x)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                new = x + excess / (2.0 * (w @ np.exp(shape * np.log(z) - z - gammaln(shape))))
            new = np.where(np.isfinite(new) & (lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
            done = (np.abs(new - x) <= 1e-14) | (hi - lo <= 1e-14)
            x = new
            if done.all():
                break
        return tuple(math.exp(v) for v in x)

    def draws(self, xs, Q, w, n: int, rng: np.random.Generator):
        """n i.i.d. states (h*, then log sigma when unknown), their log densities and sigmas.

        Each draw takes a node, then sigma given the node, then t given both.
        The kernel coordinates' normals zeta enter as U^T zeta, U = T[:Nh, :Nh]
        orthogonal, which keeps their law and makes the kernel block's noise
        U diag(sqrt(v)) U^T zeta, the symmetric root of its covariance. It does
        not turn with the eigenvectors inside clusters of near-equal misfit
        weights, so seeded draws move only as much as the fit's arrays do.
        """
        k = rng.choice(xs.shape[0], size=n, p=w)
        scale = np.exp(xs[k])
        if self.known:
            sigma = np.ones(n)
        else:
            u = rng.gamma(0.5 * self.nh, 2.0 / Q[k])
            sigma = 1.0 / np.sqrt(np.clip(u, np.finfo(float).tiny, 1e300))
        a = (scale**2)[:, None] * self.s
        one_a = 1.0 + a
        t = rng.standard_normal((n, self.n))
        t *= sigma[:, None]
        t[:, : self.nh] = t[:, : self.nh] @ self.T[: self.nh, : self.nh]
        t[:, : self.nh] *= scale[:, None] / np.sqrt(one_a)
        t[:, : self.nh] += self.mu * a / one_a
        t[:, self.nh :] += self.t_mu[self.nh :]
        lp = -0.5 * self.nh * np.log((t[:, : self.nh] ** 2).sum(axis=1))
        q = ((t - self.t_mu) ** 2) @ self.s_all
        h = t @ self.T.T
        if self.known:
            return h, lp - 0.5 * q, None
        log_sigma = np.log(sigma)
        return np.column_stack([h, log_sigma]), lp - self.n * log_sigma - 0.5 * q / sigma**2, sigma

    def posterior(self, config: SamplerConfig) -> RegressionPosterior:
        """The exact posterior; its draws are made from config.seed when first read."""
        regime, (xs, fs, Q, w, _) = self.solve()
        h_hat, Sigma_hat = self.moments(xs, Q, w)
        n_draws = config.chains * config.kept_per_chain
        top = fs.max()
        evidence = {
            "nodes": int(np.count_nonzero(w)),
            "scale": "log_tau" if self.known else "log_lambda",
            "peak": float(xs[np.argmax(fs)]),
            "gap_nullspace_pole": float(top - self.plateaus[0]),
            "gap_interpolation_pole": None if self.known else float(top - self.plateaus[1]),
            # null for a regime without mass (-inf is not JSON)
            "log_mass": {r.value: float(m) if math.isfinite(m) else None for r, m in self.log_masses.items()},
        }
        if self.known:
            quantiles = None
        elif regime is Regime.INTERPOLATION_POLE:
            quantiles = (0.0, 0.0, 0.0)  # the exact posterior of sigma there is a point mass at 0
        else:
            quantiles = self.sigma_quantiles(Q, w)
        return RegressionPosterior(
            draw=lambda: self.draws(xs, Q, w, n_draws, np.random.default_rng(config.seed)),
            h_hat=h_hat,
            Sigma_hat=Sigma_hat,
            regime=regime,
            diagnostics=Diagnostics(
                chains=(ChainStats(accept_rate=1.0, divergence_rate=0.0, step_size=0.0),) * config.chains,
                rhat_max=1.0,  # the draws are i.i.d.
                evidence=evidence,
            ),
            config=config,
            sigma_y_quantiles=quantiles,
        )
