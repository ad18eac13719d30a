"""The exact regression posterior against its HMC oracle, and generic HMC: calibration, reproducibility."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaincc, gammainccinv

from sipr import sampler
from sipr.basis import SubspaceBasis, build_orthonormal_basis
from sipr.cli import main
from sipr.data import higdon, load_csv, minmax_scale
from sipr.errors import DivergentChains, TooFewSamples, ValidationError
from sipr.pipeline import fit_dataset
from sipr.posterior import KnownNoise, UnknownNoise, _map_coordinates, build_density
from sipr.sampler import (
    Regime,
    RegressionPosterior,
    SamplerConfig,
    _Rows,
    _transition,
    posterior_moments,
    run_mcmc,
)
from tests.conftest import random_dataset, write_csv
from tests.oracles import (
    _Diagonalised,
    _laplace_metric,
    bisected_sigma_quantiles,
    brentq_sigma_quantiles,
    dense_density,
    detect_poles,
    hmc_posterior,
)


def make_density(n=10, eta=1.5, noise=None, seed=7):
    X, y = random_dataset(n, 1, seed=seed)
    basis = build_orthonormal_basis(X, eta)
    return dense_density(basis, y, noise or KnownNoise(0.1))


SMALL = dict(chains=2, samples_per_chain=300, burn_in=100, seed=0)


class GaussianTarget:
    """Exact multivariate normal used as a calibration oracle."""

    def __init__(self, mu, cov):
        self.mu = np.asarray(mu, dtype=float)
        self.P = np.linalg.inv(np.asarray(cov, dtype=float))
        self.dim = self.mu.shape[0]

    def log_density(self, x):
        d = x - self.mu
        return -0.5 * float(d @ self.P @ d)

    def grad(self, x):
        return -self.P @ (x - self.mu)


class TestPosteriorMoments:
    def test_small_known_case(self):
        mean, cov = posterior_moments(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(mean, [2.0, 3.0])
        np.testing.assert_allclose(cov, [[1.0, 1.0], [1.0, 1.0]])  # 1/N, not 1/(N-1)

    def test_matches_two_pass_oracle(self, rng):
        S = rng.normal(size=(200, 4)) * [1.0, 3.0, 0.1, 10.0]
        mean, cov = posterior_moments(S)
        m = S.mean(axis=0)
        c = sum(np.outer(s - m, s - m) for s in S) / S.shape[0]
        np.testing.assert_allclose(mean, m, rtol=1e-12)
        np.testing.assert_allclose(cov, c, rtol=1e-10, atol=1e-12)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            posterior_moments(np.zeros(5))
        with pytest.raises(ValidationError):
            posterior_moments(np.zeros((0, 3)))


class TestDetectPoles:
    # Traces are per-chain; classification looks at each chain's last quarter.
    healthy = [np.full(100, 5.0), np.full(100, 4.0)]

    def test_normal(self):
        assert detect_poles(self.healthy, None, 5.0) == Regime.NORMAL

    def test_nullspace_collapse(self):
        collapsed = [np.full(100, 1e-6), np.full(100, 2e-6)]
        assert detect_poles(collapsed, None, 5.0) == Regime.NULLSPACE_POLE

    def test_single_collapsed_chain_is_enough(self):
        # Chains fall into a pole at different speeds; one on the pole
        # decides the regime even if the other still looks healthy.
        mixed = [np.full(100, 5.0), np.full(100, 1e-6)]
        assert detect_poles(mixed, None, 5.0) == Regime.NULLSPACE_POLE

    def test_only_tail_counts(self):
        # Early collapse followed by recovery is a transient, not a pole.
        trace = np.concatenate([np.full(75, 1e-8), np.full(25, 5.0)])
        assert detect_poles([trace], None, 5.0) == Regime.NORMAL

    def test_interpolation_collapse(self):
        sig = [np.full(100, 1e-6), np.full(100, 0.5)]
        assert detect_poles(self.healthy, sig, 5.0, y_sd=1.0) == Regime.INTERPOLATION_POLE

    def test_known_noise_cannot_hit_interpolation_pole(self):
        assert detect_poles(self.healthy, None, 5.0, y_sd=1.0) == Regime.NORMAL

    def test_nullspace_takes_precedence(self):
        collapsed = [np.full(100, 1e-6)]
        sig = [np.full(100, 1e-6)]
        assert detect_poles(collapsed, sig, 5.0, y_sd=1.0) == Regime.NULLSPACE_POLE


class TestConfigValidation:
    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            SamplerConfig(samples_per_chain=100, burn_in=100)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(chains=0),
            dict(leapfrog_steps=0),
            dict(target_accept=1.0),
            dict(target_accept=0.0),
            dict(target_accept=1.5),
            dict(burn_in=-1),
            dict(seed=-1),
            dict(seed=1.5),
            dict(seed=True),
            dict(seed="0"),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            SamplerConfig(**kwargs)

    def test_takes_any_non_negative_integral_seed(self):
        assert SamplerConfig(seed=np.int64(7)).seed == 7

    def test_kept_per_chain(self):
        assert SamplerConfig(samples_per_chain=900, burn_in=400).kept_per_chain == 500


class TestReproducibility:
    def test_identical_draws_for_identical_config(self):
        d = make_density()
        p1 = run_mcmc(d, SamplerConfig(**SMALL))
        p2 = run_mcmc(d, SamplerConfig(**SMALL))
        np.testing.assert_array_equal(p1.samples, p2.samples)
        np.testing.assert_array_equal(p1.log_posteriors, p2.log_posteriors)

    def test_seed_changes_draws(self):
        d = make_density()
        p1 = run_mcmc(d, SamplerConfig(**SMALL))
        p2 = run_mcmc(d, SamplerConfig(**{**SMALL, "seed": 1}))
        assert not np.array_equal(p1.samples, p2.samples)


def diagonalised(noise):
    """A density, its chain target at the MAP, the MAP in z and the linear z -> x map as a matrix K."""
    d = make_density(noise=noise)
    t, _ = _map_coordinates(d)
    log_sigma = None if d.noise.is_known else math.log(d.noise.sigma_init)
    target = _Diagonalised(d, _laplace_metric(d, t, log_sigma))
    K = target.to_x(np.eye(d.dim), d.T).T  # x = K z
    return d, target, target.start(t, log_sigma), K


def mass_matrix(target, dim):
    """The metric I - k u u^T on the coefficients, unit mass for log sigma."""
    M = np.eye(dim)
    M[: target.n, : target.n] -= target.k * np.outer(target.u, target.u)
    return M


NOISES = [KnownNoise(0.1), UnknownNoise(0.05)]


class TestWhitenedDensity:
    @pytest.mark.parametrize("noise", NOISES, ids=["known", "unknown"])
    @given(seed=st.integers(0, 2**32 - 1), chains=st.sampled_from([1, 3]))
    @settings(max_examples=30, deadline=None)
    def test_matches_the_density_in_original_coordinates(self, noise, seed, chains):
        d, w, z_map, K = diagonalised(noise)
        rng = np.random.default_rng(seed)
        X = K @ z_map + 0.5 * rng.standard_normal((chains, d.dim))
        Z = np.linalg.solve(K, X.T).T  # rows z = K^-1 x
        P = w.evaluate(Z)
        lp, G = w.log_density(Z, P), w.drift(Z, P)
        assert lp.shape == (chains,) and G.shape == (chains, d.dim)
        M = mass_matrix(w, d.dim)
        for c in range(chains):
            x = K @ Z[c]
            np.testing.assert_allclose(lp[c], d.log_density(x), rtol=1e-9)
            g = K.T @ d.grad(x)
            # drift is M^-1 grad; rtol against the gradient's scale: single components can cancel
            np.testing.assert_allclose(M @ G[c], g, rtol=1e-9, atol=1e-9 * np.abs(g).max())

    @pytest.mark.parametrize("noise", NOISES, ids=["known", "unknown"])
    def test_nullspace_pole_is_undefined_for_that_row_only(self, noise):
        d, w, z_map, _ = diagonalised(noise)
        Z = np.vstack([z_map, np.zeros(d.dim)])  # row 1: h = 0 (and log sigma 0)
        P = w.evaluate(Z)
        with np.errstate(divide="ignore", invalid="ignore"):
            lp, G = w.log_density(Z, P), w.drift(Z, P)
        assert lp[1] == -math.inf and not np.all(np.isfinite(G[1]))
        assert np.isfinite(lp[0]) and np.all(np.isfinite(G[0]))

    @pytest.mark.parametrize("noise", NOISES, ids=["known", "unknown"])
    def test_velocity_and_kinetic_energy_follow_the_metric(self, noise):
        # Momenta r ~ N(0, M) are carried as velocities M^-1 r ~ N(0, M^-1),
        # whose kinetic energy is (1/2) v^T M v.
        d, w, _, _ = diagonalised(noise)
        assert w.k > 0.0
        M = mass_matrix(w, d.dim)
        S = w.velocity(np.eye(d.dim))  # M^-1/2, symmetric
        np.testing.assert_allclose(S @ S.T, np.linalg.inv(M), rtol=1e-12, atol=1e-12)
        V = np.random.default_rng(3).standard_normal((4, d.dim))
        np.testing.assert_allclose(w.kinetic(V), 0.5 * np.einsum("ij,jk,ik->i", V, M, V), rtol=1e-12)

    @pytest.mark.parametrize("noise", NOISES, ids=["known", "unknown"])
    def test_chains_hold_no_matrix(self, noise, monkeypatch):
        # Every leapfrog step is O(N) per chain: nothing the regression
        # target keeps is larger than a vector.
        seen = []
        run_chains = sampler._run_chains

        def spy(target, *args):
            seen.append(target)
            return run_chains(target, *args)

        monkeypatch.setattr(sampler, "_run_chains", spy)
        hmc_posterior(make_density(noise=noise), SamplerConfig(chains=2, samples_per_chain=30, burn_in=10))
        [target] = seen
        arrays = [v for v in vars(target).values() if isinstance(v, np.ndarray)]
        assert arrays and all(v.ndim <= 1 for v in arrays)


class TestChainIsolation:
    """A chain that leaves the domain is rejected without touching the others."""

    @pytest.mark.parametrize(
        "noise, bad",
        [(KnownNoise(0.1), "pole"), (UnknownNoise(0.05), "pole"), (UnknownNoise(0.05), "nan")],
        ids=["known-pole", "unknown-pole", "unknown-nan"],
    )
    def test_bad_chain_is_rejected_alone(self, noise, bad):
        d, w, z_map, _ = diagonalised(noise)
        self.check(w, z_map, np.zeros(d.dim) if bad == "pole" else np.full(d.dim, np.nan))

    def test_generic_target(self):
        target = GaussianTarget([1.0, -1.0], [[1.0, 0.3], [0.3, 0.5]])
        self.check(_Rows(target, np.eye(2)), target.mu.copy(), np.full(2, np.nan))

    @staticmethod
    def check(target, z_good, z_bad):
        rng = np.random.default_rng(0)
        Z = np.vstack([z_good, z_bad])
        R = rng.standard_normal(Z.shape)
        eps = np.array([0.05, 0.05])
        log_u = np.full(2, -math.inf)  # accept every proposal that did not diverge
        with np.errstate(all="ignore"):
            P = target.evaluate(Z)
            lp = target.log_density(Z, P)
            Z1, _, lp1, accept, divergent, accept_stat = _transition(target, Z, P, lp, R, eps, 16, log_u)
            alone = _transition(target, Z[:1], P[:1], lp[:1], R[:1], eps[:1], 16, log_u[:1])
        assert divergent[1] and not accept[1] and accept_stat[1] == 0.0
        np.testing.assert_array_equal(Z1[1], Z[1])
        assert lp1[1] == lp[1]
        assert accept[0] and not divergent[0] and alone[3][0]
        np.testing.assert_allclose(Z1[0], alone[0][0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(lp1[0], alone[2][0], rtol=1e-12)
        assert not np.array_equal(Z1[0], Z[0])


class TestCalibration:
    def test_gaussian_moments(self):
        # 10^4 kept draws from a correlated 2-D normal; both moments must
        # land within 10% even without a preconditioner.
        mu = np.array([1.0, -1.0])
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        cfg = SamplerConfig(chains=2, samples_per_chain=5500, burn_in=500, seed=0)
        post = run_mcmc(GaussianTarget(mu, cov), cfg, init=mu)
        assert np.abs(post.h_hat - mu).max() < 0.1
        assert np.linalg.norm(post.Sigma_hat - cov) / np.linalg.norm(cov) < 0.1
        assert post.diagnostics.rhat_max < 1.1

    def test_radial_shell_is_log_uniform(self):
        # p(x) ~ ||x||^-3 in 3-D restricted to a shell by C1 quadratic walls.
        # The radial marginal inside is r^2 r^-3 = 1/r, so log r is uniform:
        # exactly the geometry the norm prior induces along its scale
        # direction. Thinned in-shell draws must pass a KS test.
        a, b, W = 1.0, math.exp(2.0), 200.0

        class Shell:
            dim = 3

            def _fp(self, r):
                if r < a:
                    return -(3.0 / a) - 2.0 * W * (r - a)
                if r > b:
                    return -(3.0 / b) - 2.0 * W * (r - b)
                return -3.0 / r

            def log_density(self, x):
                r = float(np.linalg.norm(x))
                if r < 1e-12:
                    return -math.inf
                if r < a:
                    return -3.0 * math.log(a) - (3.0 / a) * (r - a) - W * (r - a) ** 2
                if r > b:
                    return -3.0 * math.log(b) - (3.0 / b) * (r - b) - W * (r - b) ** 2
                return -3.0 * math.log(r)

            def grad(self, x):
                r = float(np.linalg.norm(x))
                return self._fp(r) * x / max(r, 1e-12)

        cfg = SamplerConfig(chains=2, samples_per_chain=3500, burn_in=500, seed=5)
        post = run_mcmc(Shell(), cfg, init=np.array([math.e, 0.0, 0.0]))
        r = np.linalg.norm(post.samples, axis=1)
        thinned = r[::6]
        inside = thinned[(thinned >= a) & (thinned <= b)]
        assert inside.size > 0.8 * thinned.size  # walls hold
        u = np.log(inside) / math.log(b)
        assert stats.kstest(u, "uniform").pvalue > 0.01


class TestRegressionRuns:
    def test_known_noise_output_layout(self):
        d = make_density()
        post = run_mcmc(d, SamplerConfig(**SMALL))
        kept = 2 * (300 - 100)
        assert post.samples.shape == (kept, d.n_points)
        assert post.h_hat.shape == (d.n_points,)
        assert post.Sigma_hat.shape == (d.n_points, d.n_points)
        assert post.sigma_y_samples is None
        assert post.sigma_y_median is None
        assert post.regime == Regime.NORMAL

    def test_unknown_noise_exposes_sigma_draws(self):
        d = make_density(noise=UnknownNoise(0.02))
        post = run_mcmc(d, SamplerConfig(**SMALL))
        assert post.samples.shape[1] == d.n_points + 1
        assert post.sigma_y_samples.shape == (post.samples.shape[0],)
        assert np.all(post.sigma_y_samples > 0)
        # noise-free data sit on the interpolation pole, where sigma's exact posterior is a point mass at 0
        assert post.regime is Regime.INTERPOLATION_POLE and post.sigma_y_median == 0.0
        assert run_mcmc(noisy_unknown_density(), SamplerConfig(**SMALL)).sigma_y_median > 0
        # Moments cover the h* block only, not log sigma.
        assert post.h_hat.shape == (d.n_points,)

    def test_records_the_metric_and_map_iterations(self):
        d = make_density()
        _, evidence = hmc_posterior(d, SamplerConfig(**SMALL))
        assert evidence["metric"] == "laplace" and evidence["map_iterations"] > 0
        # a given init skips the MAP
        _, evidence = hmc_posterior(d, SamplerConfig(**SMALL), init=d.h_mu_star)
        assert evidence["metric"] in ("laplace", "laplace_without_radial_term")
        assert evidence["map_iterations"] is None

    def test_regression_density_rejects_a_preconditioner(self):
        d = make_density()
        with pytest.raises(ValidationError):
            run_mcmc(d, SamplerConfig(**SMALL), precond=np.eye(d.dim))
        with pytest.raises(ValidationError):
            run_mcmc(d, SamplerConfig(**SMALL), init=d.h_mu_star)

    def test_generic_target_requires_init(self):
        with pytest.raises(ValidationError):
            run_mcmc(GaussianTarget([0.0], [[1.0]]), SamplerConfig(**SMALL))

    def test_init_length_checked(self):
        with pytest.raises(ValidationError):
            run_mcmc(GaussianTarget([0.0, 1.0], np.eye(2)), SamplerConfig(**SMALL), init=np.zeros(5))

    def test_divergent_chains_raised_for_explosive_target(self):
        # log p grows without bound, so leapfrog trajectories blow up. With
        # no burn-in the oversized initial step is never adapted away and a
        # majority of proposals diverge.
        class Explosive:
            dim = 2

            def log_density(self, x):
                return float(x @ x)

            def grad(self, x):
                return 2.0 * x

        cfg = SamplerConfig(chains=2, samples_per_chain=200, burn_in=0, seed=0)
        with pytest.raises(DivergentChains):
            run_mcmc(Explosive(), cfg, init=np.ones(2))

    def test_trace_file(self, tmp_path):
        trace, post, n_states = fit_with_trace(tmp_path, "0.1", seed=0, samples=120)
        lines = trace.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == [f"state_{i}" for i in range(n_states)] + ["log_posterior"]
        assert len(lines) - 1 == post.samples.shape[0]
        first = np.array([float(v) for v in lines[1].split(",")])
        np.testing.assert_array_equal(bits(first[:-1]), bits(post.samples[0]))
        np.testing.assert_array_equal(bits(first[-1]), bits(post.log_posteriors[0]))

    def test_trace_file_parses_back_exactly(self, tmp_path):
        trace, post, _ = fit_with_trace(tmp_path, "unknown", seed=4, samples=60)
        rows = np.array([[float(v) for v in ln.split(",")] for ln in trace.read_text().splitlines()[1:]])
        np.testing.assert_array_equal(bits(rows[:, :-1]), bits(post.samples))
        np.testing.assert_array_equal(bits(rows[:, -1]), bits(post.log_posteriors))


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def fit_with_trace(tmp_path, noise: str, seed: int, samples: int, burn: int = 20):
    """Run `sipr fit --trace` on noisy Higdon data; return the trace file, the
    posterior fit_dataset computes for the same arguments, and the state dimension."""
    ds = higdon(30, 0.2, seed=4)
    data = write_csv(tmp_path / "d.csv", ds.X, ds.y)
    trace = tmp_path / "trace.csv"
    assert main(["fit", "--data", data, "--target", "y", "--eta", "1.5", "--noise", noise,
                 "--seed", str(seed), "--samples", str(samples), "--burn", str(burn),
                 "--trace", str(trace), "--model-out", str(tmp_path / "m.json")]) == 0
    config = SamplerConfig(chains=2, samples_per_chain=samples, burn_in=burn, seed=seed)
    fit = fit_dataset(load_csv(data, "y"), 1.5, noise=noise if noise == "unknown" else float(noise), config=config)
    assert fit.regime == Regime.NORMAL
    return trace, fit.posterior, ds.n + (noise == "unknown")


def noisy_unknown_density():
    """Higdon data with unknown noise, well inside the normal regime (20 nats from either plateau)."""
    ds = minmax_scale(higdon(30, 0.2, seed=4))
    return dense_density(build_orthonormal_basis(ds.X, 1.5), ds.y, UnknownNoise(float(np.std(ds.y)) / 10.0))


EXACT = [make_density, noisy_unknown_density]


class TestExactMixture:
    """The mixture's draws, moments and quantiles against HMC on the same density and its own draws."""

    @pytest.mark.parametrize("make", EXACT, ids=["known", "unknown"])
    def test_same_law_as_hmc(self, make):
        # 200 HMC chains started in the bulk give one draw each after 200
        # iterations: independent draws, so a two-sample KS test applies to
        # ||h||, three fixed projections of h* and log sigma, at a
        # Bonferroni-corrected 1% level.
        d = make()
        exact = run_mcmc(d, SamplerConfig(chains=1, samples_per_chain=4001, burn_in=1, seed=0))
        assert exact.regime is Regime.NORMAL
        init = exact.h_hat if d.noise.is_known else np.append(exact.h_hat, math.log(exact.sigma_y_median))
        cfg = SamplerConfig(chains=200, samples_per_chain=201, burn_in=200, seed=0)
        hmc, _ = hmc_posterior(d, cfg, init=init)
        P = np.random.default_rng(0).standard_normal((d.n_points, 3))

        def statistics(S):
            cols = [np.linalg.norm(S[:, : d.n_basis], axis=1), *(S[:, : d.n_points] @ P).T]
            return cols if d.noise.is_known else cols + [S[:, -1]]

        pairs = zip(statistics(exact.samples), statistics(hmc.samples))
        pvalues = [stats.ks_2samp(a, b).pvalue for a, b in pairs]
        assert min(pvalues) > 0.01 / len(pvalues), pvalues

    @pytest.mark.parametrize("make", EXACT, ids=["known", "unknown"])
    def test_moments_and_quantiles_match_exact_draws(self, make):
        d = make()
        post = run_mcmc(d, SamplerConfig(chains=4, samples_per_chain=25_001, burn_in=1, seed=1))
        H = post.samples[:, : d.n_points]
        n = H.shape[0]
        assert n == 100_000
        se = np.sqrt(np.diag(post.Sigma_hat) / n)
        assert np.all(np.abs(H.mean(axis=0) - post.h_hat) < 5.0 * se)
        # every covariance entry within 5 Monte Carlo standard errors, from
        # the variance of the centred products d_i d_j: E[d_i^2 d_j^2] - C_ij^2
        D = H - post.h_hat
        C = D.T @ D / n
        cov_se = np.sqrt(np.maximum((D**2).T @ D**2 / n - C**2, 0.0) / n)
        slack = 1e-12 * np.abs(post.Sigma_hat).max()
        assert np.all(np.abs(C - post.Sigma_hat) < 5.0 * cov_se + slack)
        if not d.noise.is_known:
            for q, value in zip((0.05, 0.5, 0.95), post.sigma_y_quantiles):
                # the fraction of draws below the exact quantile is binomial
                frac = np.mean(post.sigma_y_samples <= value)
                assert abs(frac - q) < 5.0 * math.sqrt(q * (1.0 - q) / n)

    @pytest.mark.parametrize("n, noise, seed", [(30, 0.2, 4), (25, 0.08, 3), (50, 0.08, 3)])
    def test_sigma_quantiles_match_brent(self, n, noise, seed):
        # the Higdon sets of the quantile tests here, in test_predict and in criterion 8
        ds = minmax_scale(higdon(n, noise, seed=seed))
        d = build_density(build_orthonormal_basis(ds.X, 1.5), ds.y, UnknownNoise(float(np.std(ds.y)) / 10.0))
        post = RegressionPosterior(d, SamplerConfig())
        _, Q, w = post._mixture
        assert post.regime is Regime.NORMAL
        got = np.array(post._sigma_quantiles(Q, w))
        expected = np.array(brentq_sigma_quantiles(Q, w, d.n_basis))
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", [20, 100, 400])
    def test_newton_sigma_quantiles_match_bisection(self, n, monkeypatch):
        ds = minmax_scale(higdon(n, 0.1, seed=11))
        d = build_density(build_orthonormal_basis(ds.X, 1.5), ds.y, UnknownNoise(float(np.std(ds.y)) / 10.0))
        post = RegressionPosterior(d, SamplerConfig())
        _, Q, w = post._mixture
        calls = []

        def counted(*args):
            calls.append(args)
            return gammaincc(*args)

        monkeypatch.setattr(sampler, "gammaincc", counted)
        got = np.array(post._sigma_quantiles(Q, w))
        assert 1 <= len(calls) <= 10
        np.testing.assert_allclose(got, bisected_sigma_quantiles(Q, w, d.n_basis), rtol=1e-13, atol=0.0)
        cdf = w @ gammaincc(0.5 * d.n_basis, 0.5 * Q[:, None] / got**2)
        np.testing.assert_allclose(cdf, [0.05, 0.5, 0.95], rtol=0.0, atol=1e-13)

    def test_one_node_mixture_has_its_node_quantiles(self):
        ds = minmax_scale(higdon(30, 0.1, seed=11))
        d = build_density(build_orthonormal_basis(ds.X, 1.5), ds.y, UnknownNoise(0.01))
        post = RegressionPosterior(d, SamplerConfig())
        _, Q, _ = post._mixture
        for k in (0, Q.shape[0] // 2, Q.shape[0] - 1):
            w = np.zeros(Q.shape[0])
            w[k] = 1.0
            node = np.sqrt(0.5 * Q[k] / gammainccinv(0.5 * d.n_basis, [0.05, 0.5, 0.95]))
            np.testing.assert_allclose(post._sigma_quantiles(Q, w), node, rtol=1e-13, atol=0.0)

    def test_draws_are_continuous_in_estar(self):
        # Computing the basis's GH as G H instead of (H^T G)^T changes the
        # fit's arrays at rounding level; the seeded draws must move as little,
        # not turn with the pencil's eigenvectors inside clusters of near-equal s.
        cfg = SamplerConfig(**SMALL)
        for seed in (1, 2, 3):
            X, y = random_dataset(100, 1, seed=seed, min_gap=1e-4)
            y = y + 0.1 * np.random.default_rng(seed).standard_normal(100)
            basis = build_orthonormal_basis(X, 1.5)
            regrouped = SubspaceBasis(geometry=basis.geometry, H=basis.H)
            regrouped.GH = basis.geometry.G @ basis.H
            noise = UnknownNoise(float(np.std(y)) / 10.0)
            a, b = (run_mcmc(build_density(B, y, noise), cfg).samples for B in (basis, regrouped))
            assert np.abs(a - b).max() <= 1e-6 * np.abs(a).max()

    def test_seed_moves_only_the_draws(self):
        d = noisy_unknown_density()
        a = run_mcmc(d, SamplerConfig(**SMALL))
        b = run_mcmc(d, SamplerConfig(**{**SMALL, "seed": 1}))
        np.testing.assert_array_equal(a.h_hat, b.h_hat)
        np.testing.assert_array_equal(a.Sigma_hat, b.Sigma_hat)
        assert a.sigma_y_quantiles == b.sigma_y_quantiles
        assert a.evidence == b.evidence
        assert not np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("make", EXACT, ids=["known", "unknown"])
    def test_run_mcmc_gives_the_exact_posterior(self, make):
        # fit_regression reaches the exact posterior through run_mcmc, the call the benchmark traces
        d, cfg = make(), SamplerConfig(**SMALL)
        got, exact = run_mcmc(d, cfg), RegressionPosterior(d, cfg)
        assert isinstance(got, RegressionPosterior) and got.config is cfg
        for a, b in ((got.h_hat, exact.h_hat), (got.Sigma_hat, exact.Sigma_hat), (got.samples, exact.samples)):
            np.testing.assert_array_equal(bits(a), bits(b))
        assert got.evidence == exact.evidence
        assert len(got.diagnostics.chains) == cfg.chains

    def test_draws_are_made_once_when_first_read(self, monkeypatch, tmp_path):
        # A fit that reads no draws makes none; the first read of samples,
        # log_posteriors or sigma_y_samples makes all of them, bit for bit the
        # draw made eagerly from the same seed. `sipr fit` makes them only for
        # --trace, and writes them as they were drawn.
        calls = []
        draw = RegressionPosterior._draw

        def counted(self, *args):
            calls.append(args[-2])
            return draw(self, *args)

        monkeypatch.setattr(RegressionPosterior, "_draw", counted)
        d = noisy_unknown_density()
        cfg = SamplerConfig(**SMALL)
        post = run_mcmc(d, cfg)
        assert calls == []
        got = (post.sigma_y_samples, post.samples, post.log_posteriors, post.samples)
        assert calls == [cfg.chains * cfg.kept_per_chain]
        eager = draw(post, *post._mixture, cfg.chains * cfg.kept_per_chain, np.random.default_rng(cfg.seed))
        for a, b in zip(got, (eager[2], eager[0], eager[1], eager[0])):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))

        calls.clear()
        ds = higdon(30, 0.2, seed=4)
        assert main(["fit", "--data", write_csv(tmp_path / "d.csv", ds.X, ds.y), "--target", "y", "--eta", "1.5",
                     "--model-out", str(tmp_path / "m.json")]) == 0
        assert calls == []  # the archive reads no draws
        trace, post, _ = fit_with_trace(tmp_path, "unknown", seed=0, samples=300, burn=100)
        assert len(calls) == 1
        rows = np.loadtxt(trace, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(bits(rows), bits(np.column_stack([post.samples, post.log_posteriors])))

    def test_log_posteriors_are_the_density(self):
        for d in (make_density(), noisy_unknown_density()):
            post = run_mcmc(d, SamplerConfig(chains=1, samples_per_chain=6, burn_in=1))
            expected = [d.log_density(x) for x in post.samples]
            np.testing.assert_allclose(post.log_posteriors, expected, rtol=1e-10)
            assert post.diagnostics.chains[0].accept_rate == 1.0
            assert post.diagnostics.chains[0].divergence_rate == 0.0

    @pytest.mark.parametrize(
        "noise, regime",
        [(KnownNoise(1e3), Regime.NULLSPACE_POLE), (UnknownNoise(0.1), Regime.INTERPOLATION_POLE)],
        ids=["known-huge-noise", "unknown-noise-free"],
    )
    def test_a_profile_without_interior_maximum_sits_on_its_rising_pole(self, noise, regime):
        # noise-free smooth data: the lambda-profile rises to the interpolation
        # plateau; overwhelming known noise: the tau-profile falls from the
        # nullspace plateau
        d = make_density(noise=noise)
        post = run_mcmc(d, SamplerConfig(**SMALL))
        assert post.regime is regime
        evidence = post.evidence
        gap = evidence["gap_nullspace_pole" if regime is Regime.NULLSPACE_POLE else "gap_interpolation_pole"]
        assert abs(gap) < 1e-3

    def test_profile_is_evaluated_in_chunks(self, monkeypatch):
        # no (nodes x N) temporary of the profile exceeds _CHUNK floats (1 MB)
        m = RegressionPosterior(make_density(), SamplerConfig())
        x = m._grid()
        whole = m._profile(x)[0]
        monkeypatch.setattr(sampler, "_CHUNK", 64)
        sizes = [a.size for _, a in m._rows(x)]
        assert max(sizes) <= 64 and len(sizes) > 1
        np.testing.assert_array_equal(m._profile(x)[0], whole)
