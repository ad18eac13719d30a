"""End-to-end acceptance suite.

Each test covers one numbered release criterion and prints a single
``[PASS]``/``[FAIL]`` line to the terminal regardless of capture settings,
so a full run reads as a checklist. Oracles are independent throughout:
scipy splines, closed-form Dirichlet energies, rejection sampling, and
finite differences, never the code under test.

Run with ``pytest tests/test_acceptance.py -v``.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.interpolate import CubicSpline
from scipy.spatial.distance import pdist

from sipr.basis import build_orthonormal_basis
from sipr.data import Dataset, higdon, higdon_truth, load_csv, rmse
from sipr.geometry import (
    _Geometry,
    eta_norm_constant,
    monomial_matrix,
    multi_indices,
    nullspace_dim,
)
from sipr.interpolate import pointwise_posterior, solve_interpolation
from sipr.pipeline import crossval, fit_dataset, fit_regression
from sipr.posterior import KnownNoise, UnknownNoise, map_estimate
from sipr.sampler import Regime, SamplerConfig, posterior_moments, run_mcmc
from tests import oracles
from tests.conftest import random_dataset


@pytest.fixture
def report(capsys):
    """One visible checklist line per criterion, even under output capture."""

    @contextlib.contextmanager
    def _report(num: int, label: str):
        outcome = "FAIL"
        try:
            yield
            outcome = "PASS"
        except pytest.skip.Exception:
            outcome = "SKIP"
            raise
        finally:
            with capsys.disabled():
                print(f"[{outcome}] criterion {num:2d}: {label}")

    return _report


def min_gap_sorted(rng, n: int) -> np.ndarray:
    x = np.sort(rng.uniform(0.0, 1.0, n))
    while np.diff(x).min() < 1e-3:
        x = np.sort(rng.uniform(0.0, 1.0, n))
    return x


def separated_points(rng, n: int, dim: int) -> np.ndarray:
    """Random points with enough pairwise separation to keep the quintic
    kernel's linear algebra well away from its conditioning cliff."""
    if dim == 1:
        return ((np.arange(n) + rng.uniform(0.2, 0.8, n)) / n)[:, None]
    X = rng.uniform(0.0, 1.0, (n, dim))
    while pdist(X).min() < 5e-3:
        X = rng.uniform(0.0, 1.0, (n, dim))
    return X


def test_criterion_1_spline_oracle_equivalence(report):
    with report(1, "eta=1.5 matches natural cubic spline, eta=0.5 piecewise linear"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst_cubic = worst_linear = 0.0
        for _ in range(10):
            x = min_gap_sorted(rng, 20)
            y = rng.normal(size=20)
            probes = np.linspace(x[0], x[-1], 102)[1:-1]

            ours = solve_interpolation(x[:, None], y, 1.5).evaluate(probes[:, None])
            ref = CubicSpline(x, y, bc_type="natural")(probes)
            worst_cubic = max(worst_cubic, np.max(np.abs(ours - ref)) / np.max(np.abs(ref)))

            ours = solve_interpolation(x[:, None], y, 0.5).evaluate(probes[:, None])
            ref = np.interp(probes, x, y)
            worst_linear = max(worst_linear, np.max(np.abs(ours - ref)) / np.max(np.abs(ref)))
        elapsed = time.perf_counter() - t0
        assert worst_cubic < 1e-6
        assert worst_linear < 1e-9
        assert elapsed < 5.0


def test_criterion_2_polynomial_reproduction(report):
    with report(2, "polynomial data reproduced with zero kernel coefficients"):
        rng = np.random.default_rng(5)
        for dim, eta in [(1, 1.5), (2, 2.5), (3, 1.01)]:
            idx = multi_indices(dim, eta)
            X = rng.uniform(-1.0, 1.0, (8 * len(idx), dim))
            c_true = rng.normal(size=len(idx))
            y = sum(c * np.prod(X ** np.array(ix), axis=1) for c, ix in zip(c_true, idx))
            model = solve_interpolation(X, y, eta)
            assert np.max(np.abs(model.a)) < 1e-8
            np.testing.assert_allclose(model.c, c_true, rtol=0, atol=1e-10)


def test_criterion_3_basis_orthonormality(report):
    with report(3, "basis orthonormal in the eta-norm up to N=50, D=3"):
        rng = np.random.default_rng(17)
        for n in [10, 30, 50]:
            for dim in [1, 2, 3]:
                for eta in [0.5, 1.5, 2.5]:
                    if n < nullspace_dim(dim, eta) + 1:
                        continue
                    X = separated_points(rng, n, dim)
                    b = build_orthonormal_basis(X, eta)
                    gram = eta_norm_constant(dim, eta) * (b.H.T @ b.geometry.G @ b.H)
                    resid = gram - np.eye(b.n_basis)
                    # induced infinity norm: max absolute row sum
                    assert np.max(np.abs(resid).sum(axis=1)) < 1e-6


def test_criterion_4_eta_norm_consistency(report):
    with report(4, "eta-norm matches Dirichlet energy up to one constant; sign fixed"):
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(10):
            n = int(rng.integers(5, 25))
            x = min_gap_sorted(rng, n)
            y = rng.normal(size=n)
            model = solve_interpolation(x[:, None], y, 0.5)
            dirichlet = float(np.sum(np.diff(y) ** 2 / np.diff(x)))
            ratios.append(model.norm_sq / dirichlet)
        ratios = np.array(ratios)
        spread = (ratios.max() - ratios.min()) / abs(ratios.mean())
        assert spread < 1e-6
        assert ratios.mean() == pytest.approx(math.pi / 2, rel=1e-9)

        # (-1)^ceil(eta) a^T G a > 0 on the constraint surface M a = 0
        for dim, eta in [(1, 0.5), (2, 1.5), (3, 2.5)]:
            X = rng.uniform(0.0, 1.0, (30, dim))
            G = _Geometry(X, eta).G
            M = monomial_matrix(X, eta)
            proj = np.eye(30) - M.T @ np.linalg.solve(M @ M.T, M)
            sign = (-1) ** math.ceil(eta)
            for _ in range(1000):
                a = proj @ rng.normal(size=30)
                assert sign * float(a @ G @ a) > 0


def test_criterion_5_pointwise_posterior_vs_monte_carlo(report):
    with report(5, "t-scale agrees with rejection sampling within 5%"):
        t0 = time.perf_counter()
        X = np.array([[0.0], [0.4], [1.0]])
        y = np.array([0.2, -0.5, 0.9])
        post = pointwise_posterior(X, y, 0.5, np.array([0.7]))
        assert post.dof == 2
        assert post.mean == pytest.approx(0.2, abs=1e-12)
        assert post.scale == pytest.approx(0.5804093383121949, rel=1e-9)

        # Conditional of the value at 0.7 given three exact observations:
        # density proportional to (Dirichlet energy of the piecewise-linear
        # interpolant through all four points)^(-3/2).
        def energy(yt):
            fixed = (-0.5 - 0.2) ** 2 / 0.4
            return fixed + (yt + 0.5) ** 2 / 0.3 + (0.9 - yt) ** 2 / 0.3

        def target(yt):
            return energy(yt) ** -1.5

        rng = np.random.default_rng(11)
        grid = np.linspace(-20.0, 20.0, 20001)
        tg = target(grid)
        mu0 = float(grid[np.argmax(tg)])
        proposal = stats.cauchy(loc=mu0, scale=1.0)
        bound = 1.2 * float(np.max(tg / proposal.pdf(grid)))
        chunks: list[np.ndarray] = []
        need = 1_200_000
        while sum(len(c) for c in chunks) < need:
            u = proposal.rvs(size=500_000, random_state=rng)
            u = u[np.abs(u - mu0) < 100.0]
            keep = rng.uniform(0, bound * proposal.pdf(u)) < target(u)
            chunks.append(u[keep])
        draws = np.concatenate(chunks)[:need]

        q25, q50, q75 = np.percentile(draws, [25, 50, 75])
        scale_mc = (q75 - q25) / (2 * stats.t(df=post.dof).ppf(0.75))
        assert abs(scale_mc - post.scale) / post.scale < 0.05
        assert abs(q50 - post.mean) < 0.01
        assert time.perf_counter() - t0 < 60.0


def numeric_grad(f, x, step):
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (f(hi) - f(lo)) / (2.0 * step)
    return g


def test_criterion_6_map_correctness(report):
    with report(6, "MAP stationary, norm-shrinking, derivatives match FD"):
        instances = [
            (10, 1, 1.5, KnownNoise(0.1), 0),
            (14, 2, 2.5, KnownNoise(0.05), 1),
            (12, 3, 1.01, KnownNoise(0.2), 2),
            (12, 1, 0.5, UnknownNoise(0.05), 3),
            (15, 2, 1.5, UnknownNoise(0.02), 4),
        ]
        rng = np.random.default_rng(99)
        for n, dim, eta, noise, seed in instances:
            X, y = random_dataset(n, dim, seed=seed)
            d = oracles.dense_density(build_orthonormal_basis(X, eta), y, noise)
            h_map = map_estimate(d)
            grad_at_map = d.grad(oracles.initial_state(d, h_map))[: d.n_points]
            assert np.max(np.abs(grad_at_map)) < 1e-6
            assert np.linalg.norm(h_map[: d.n_basis]) <= d.h_mu_norm

            state = oracles.initial_state(d, d.h_mu_star) + 0.05 * rng.standard_normal(d.dim)
            ng = numeric_grad(d.log_density, state, 1e-6)
            gerr = np.max(np.abs(d.grad(state) - ng)) / max(1.0, np.max(np.abs(ng)))
            assert gerr < 1e-5
            nh = np.column_stack(
                [numeric_grad(lambda s: d.grad(s)[i], state, 1e-4) for i in range(d.dim)]
            ).T
            herr = np.max(np.abs(oracles.hessian(d, state) - nh)) / max(1.0, np.max(np.abs(nh)))
            assert herr < 1e-4


class _Gaussian:
    mu = np.array([1.0, -2.0, 0.5])
    cov = np.array([[2.0, 0.6, -0.3], [0.6, 1.5, 0.4], [-0.3, 0.4, 1.0]])
    prec = np.linalg.inv(cov)

    def log_density(self, x):
        d = x - self.mu
        return -0.5 * float(d @ self.prec @ d)

    def grad(self, x):
        return -(self.prec @ (x - self.mu))


def test_criterion_7_sampler_calibration(report):
    with report(7, "HMC recovers an analytic Gaussian and is bit-reproducible"):
        target = _Gaussian()
        cfg = SamplerConfig(chains=2, samples_per_chain=1500, burn_in=500, seed=3)
        L = np.linalg.cholesky(target.prec)
        post = run_mcmc(target, cfg, init=target.mu.copy(), precond=L)
        assert post.samples.shape == (2000, 3)

        mean, cov = posterior_moments(post.samples)
        se = np.sqrt(np.diag(target.cov) / post.samples.shape[0])
        assert np.all(np.abs(mean - target.mu) <= 3 * se)
        fro = np.linalg.norm(cov - target.cov) / np.linalg.norm(target.cov)
        assert fro < 0.10
        assert post.diagnostics.rhat_max < 1.1

        rerun = run_mcmc(target, cfg, init=target.mu.copy(), precond=L)
        assert np.array_equal(post.samples, rerun.samples)
        assert np.array_equal(post.log_posteriors, rerun.log_posteriors)


def test_criterion_8_higdon_regression(report):
    with report(8, "Higdon benchmark: accurate mean, growing bands, honest sigma_y"):
        t0 = time.perf_counter()
        ds = higdon(50, 0.08, seed=3)
        cfg = SamplerConfig(seed=1)

        fit = fit_dataset(ds, 1.5, noise=0.08, config=cfg)
        assert fit.regime is Regime.NORMAL
        grid = np.linspace(0.0, 10.0, 200)[:, None]
        assert rmse(fit.predict_mean(grid), higdon_truth(grid[:, 0])) < 0.08

        # data live on [0, 10]; probe 50% beyond each end
        left = np.linspace(-5.0, 0.0, 40)[:, None]
        right = np.linspace(10.0, 15.0, 40)[:, None]
        assert np.all(np.diff(fit.predict(left).sigma_f) < 0)
        assert np.all(np.diff(fit.predict(right).sigma_f) > 0)

        fit_u = fit_dataset(ds, 1.5, noise="unknown", config=cfg)
        assert fit_u.regime is Regime.NORMAL
        assert 0.05 <= fit_u.posterior.sigma_y_median <= 0.12
        assert time.perf_counter() - t0 < 120.0


def test_criterion_9_pole_regimes(report):
    with report(9, "poles: linear data and noise-free sinusoid, seed-stable"):
        X = np.linspace(0.0, 1.0, 9)[:, None]
        fit_lin = fit_regression(X, 2.0 + 3.0 * X[:, 0], 1.5, noise=0.1)
        assert fit_lin.regime is Regime.NULLSPACE_POLE
        np.testing.assert_allclose(fit_lin.mean_c, [2.0, 3.0], atol=1e-8)

        # the regime is read off the exact posterior, so no sampler seed can move it
        Xs = np.linspace(0.0, 1.0, 20)[:, None]
        ys = np.sin(2 * np.pi * Xs[:, 0])
        for seed in range(5):
            fit_sin = fit_regression(Xs, ys, 1.5, noise="unknown", config=SamplerConfig(seed=seed))
            assert fit_sin.regime is Regime.INTERPOLATION_POLE
            assert fit_sin.sigma_y == 0.0


def _marathon_path() -> Path | None:
    env = os.environ.get("SIPR_MARATHON_CSV")
    if env:
        return Path(env)
    bundled = Path(__file__).resolve().parent.parent / "datasets" / "marathon.csv"
    return bundled if bundled.exists() else None


def test_criterion_10_marathon_spot_check(report):
    with report(10, "marathon 5-fold CV matches the published RMSE ordering"):
        path = _marathon_path()
        if path is None or not path.exists():
            pytest.skip("marathon dataset not provided (set SIPR_MARATHON_CSV)")
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        raw = load_csv(str(path), target=header[-1].strip())
        # published RMSEs are in target units scaled to the unit interval
        lo, hi = raw.y.min(), raw.y.max()
        ds = Dataset(
            X=raw.X,
            y=(raw.y - lo) / (hi - lo),
            feature_names=raw.feature_names,
            target_name=raw.target_name,
        )
        assert ds.X.shape == (27, 1)

        pooled = {}
        for eta in [1.01, 2.5]:
            runs = [crossval(ds, eta, k=5, seed=s).pooled_rmse for s in [0, 1, 2]]
            pooled[eta] = float(np.mean(runs))
        assert abs(pooled[1.01] - 0.215) < 0.03
        assert pooled[1.01] < pooled[2.5]
