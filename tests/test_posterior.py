"""Log posterior over subspace coordinates: derivatives, MAP, Laplace metric."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sipr.basis import SubspaceBasis, build_orthonormal_basis
from sipr.data import higdon, minmax_scale
from sipr.errors import DomainError, NoConvergence, PoleCollapse, SingularSystem
from sipr.posterior import (
    KnownNoise,
    UnknownNoise,
    build_density,
    map_estimate,
)
from tests import oracles
from tests.conftest import random_dataset


def make_density(n=12, dim=1, eta=1.5, noise=None, seed=7):
    X, y = random_dataset(n, dim, seed=seed)
    basis = build_orthonormal_basis(X, eta)
    return oracles.dense_density(basis, y, noise or KnownNoise(0.1))


def numeric_grad(f, x, step=1e-6):
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (f(hi) - f(lo)) / (2.0 * step)
    return g


class TestLogDensity:
    def test_value_at_interpolant_known_noise(self):
        # The residual vanishes at h*_mu, leaving only the norm penalty.
        d = make_density()
        expected = -d.n_basis * math.log(d.h_mu_norm)
        assert d.log_density(d.h_mu_star) == pytest.approx(expected, rel=1e-12)

    def test_scale_invariance_of_prior(self):
        # With the misfit weights zeroed out, rescaling the state changes
        # the log density by exactly -Nh log s for any s.
        base = make_density()
        d = dataclasses.replace(base, s=np.zeros(base.n_points), noise=KnownNoise(1.0))
        state = np.random.default_rng(0).normal(size=d.n_points)
        for s in [0.5, 2.0, 10.0, 1e4]:
            delta = d.log_density(s * state) - d.log_density(state)
            assert delta == pytest.approx(-d.n_basis * math.log(s), rel=1e-10)

    def test_undefined_on_nullspace(self):
        d = make_density()
        state = np.zeros(d.n_points)
        state[d.n_basis :] = 1.0  # polynomial block only
        with pytest.raises(DomainError):
            d.log_density(state)

    def test_unknown_noise_sigma_terms(self):
        d = make_density(noise=UnknownNoise(0.2))
        assert d.dim == d.n_points + 1
        rng = np.random.default_rng(1)
        h = d.h_mu_star + 0.1 * rng.normal(size=d.n_points)
        # Doubling sigma rescales the quadratic by 1/4 and shifts by -N log 2.
        t = math.log(0.2)
        r = h - d.h_mu_star
        q = float(r @ d.quad @ r)
        lp1 = d.log_density(np.append(h, t))
        lp2 = d.log_density(np.append(h, t + math.log(2.0)))
        expected = -d.n_points * math.log(2.0) - 0.5 * (0.25 - 1.0) * math.exp(-2.0 * t) * q
        assert lp2 - lp1 == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("sd", [0.1 * np.eye(3), 0.0, -0.1, math.inf, math.nan],
                             ids=["matrix", "zero", "negative", "inf", "nan"])
    def test_known_noise_is_a_positive_finite_sd(self, sd):
        with pytest.raises(DomainError, match="noise sd must be a positive finite number"):
            KnownNoise(sd)

    def test_rejects_wrong_state_length(self):
        d = make_density()
        with pytest.raises(DomainError):
            d.log_density(np.zeros(d.n_points + 5))


class TestDerivatives:
    @pytest.mark.parametrize("noise", [KnownNoise(0.15), UnknownNoise(0.15)])
    def test_gradient_matches_finite_differences(self, noise):
        d = make_density(noise=noise)
        rng = np.random.default_rng(11)
        for _ in range(20):
            state = oracles.initial_state(d, d.h_mu_star + 0.3 * rng.normal(size=d.n_points))
            if not d.noise.is_known:
                state[-1] += rng.normal() * 0.3
            g = d.grad(state)
            fd = numeric_grad(d.log_density, state, step=1e-6)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("noise", [KnownNoise(0.15), UnknownNoise(0.15)])
    def test_hessian_matches_finite_differences(self, noise):
        d = make_density(noise=noise)
        rng = np.random.default_rng(13)
        state = oracles.initial_state(d, d.h_mu_star + 0.3 * rng.normal(size=d.n_points))
        H = oracles.hessian(d, state)
        fd = np.column_stack(
            [numeric_grad(lambda s: d.grad(s)[i], state, step=1e-4) for i in range(d.dim)]
        )
        np.testing.assert_allclose(H, fd, rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(H, H.T, atol=1e-12)

    def test_prior_gradient_ignores_polynomial_block(self):
        # Zero misfit weights isolate the prior: its gradient lives
        # entirely in the kernel block.
        base = make_density()
        d = dataclasses.replace(base, s=np.zeros(base.n_points), noise=KnownNoise(1.0))
        state = np.random.default_rng(3).normal(size=d.n_points)
        g = d.grad(state)
        np.testing.assert_array_equal(g[d.n_basis :], np.zeros(d.n_null))
        assert np.abs(g[: d.n_basis]).max() > 0


class TestPencil:
    @pytest.mark.parametrize(
        "noise", [KnownNoise(0.15), KnownNoise(1e3), UnknownNoise(0.15)]
    )
    def test_diagonalises_both_quadratic_forms(self, noise):
        d = make_density(noise=noise)  # with the dense E*^T E*
        Sigma0 = d.quad / d.noise.sigma**2 if d.noise.is_known else d.quad
        P = np.diag((np.arange(d.n_points) < d.n_basis).astype(float))
        np.testing.assert_allclose(d.T[: d.n_basis].T @ d.T[: d.n_basis], P, atol=1e-12)
        S = d.T.T @ Sigma0 @ d.T
        np.testing.assert_allclose(S, np.diag(d.s), atol=1e-10 * np.abs(S).max())
        # the polynomial columns carry no kernel part at all
        assert not np.any(d.T[: d.n_basis, d.n_basis :])
        t = np.random.default_rng(0).normal(size=d.n_points)
        np.testing.assert_allclose(d.coordinates(d.T @ t), t, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(d.pull_back(t), np.linalg.solve(d.T.T, t), rtol=1e-9, atol=1e-9)

    def test_rank_deficient_misfit_is_singular(self):
        # A basis whose last column repeats its first makes S singular; the
        # eigenvalue gate refuses it instead of dividing by a rounding error.
        X, y = random_dataset(12, 1, seed=7)
        basis = build_orthonormal_basis(X, 1.5)
        repeated = SubspaceBasis(geometry=basis.geometry, H=np.column_stack([basis.H[:, :-1], basis.H[:, 0]]))
        with pytest.raises(SingularSystem, match="misfit too ill-conditioned"):
            build_density(repeated, y, KnownNoise(0.1))

    def test_interpolant_matches_a_dense_solve(self):
        # The semi-normal equations square E*'s condition number; refinement
        # on the residual must bring h*_mu back to what a dense LU of E* gives.
        ds = minmax_scale(higdon(400, 0.1, seed=3))
        d = oracles.dense_density(build_orthonormal_basis(ds.X, 1.5), ds.y, KnownNoise(0.1))
        expected = np.linalg.solve(d.Estar, ds.y)
        np.testing.assert_allclose(d.Estar @ d.h_mu_star, ds.y, rtol=0.0, atol=1e-10 * np.abs(ds.y).max())
        assert np.linalg.norm(d.h_mu_star - expected) <= 1e-10 * np.linalg.norm(expected)


class TestMapEstimate:
    def test_stationary_point(self):
        d = make_density()
        h_map = map_estimate(d)
        g = d.grad(h_map)
        assert np.abs(g).max() < 1e-6

    def test_stationary_in_unknown_mode_at_initial_sigma(self):
        # The iteration holds sigma at its initial value, so the kernel-block
        # gradient vanishes there (not at the jointly optimal sigma).
        sigma0 = 0.02
        d = make_density(noise=UnknownNoise(sigma0))
        h_map = map_estimate(d)
        g = d.grad(np.append(h_map, math.log(sigma0)))
        assert np.abs(g[: d.n_points]).max() < 1e-6

    def test_shrinks_kernel_block(self):
        # The norm prior always pulls the kernel coordinates toward zero.
        for seed in [1, 5, 9]:
            d = make_density(seed=seed)
            h_map = map_estimate(d)
            assert 0 < np.linalg.norm(h_map[: d.n_basis]) < d.h_mu_norm

    def test_tiny_noise_recovers_interpolant(self):
        d = make_density(noise=KnownNoise(1e-12))
        h_map = map_estimate(d)
        rel = np.linalg.norm(h_map - d.h_mu_star) / np.linalg.norm(d.h_mu_star)
        assert rel < 1e-6

    def test_huge_noise_collapses_to_pole(self):
        with pytest.raises(PoleCollapse):
            map_estimate(make_density(noise=KnownNoise(1e6)))

    def test_no_convergence_carries_last_iterate(self):
        d = make_density()
        with pytest.raises(NoConvergence) as exc:
            map_estimate(d, max_iter=1)
        assert exc.value.last_iterate.shape == (d.n_points,)
        assert exc.value.residual > 1e-10


class TestMapMatchesDenseOracle:
    """The elementwise MAP against the dense fixed point, one solve per iteration."""

    @given(
        seed=st.integers(0, 2**16),
        eta=st.sampled_from([0.5, 1.5, 2.5]),
        kind=st.sampled_from(["scalar", "unknown"]),
        sd=st.sampled_from([0.1, 0.01, 0.001]),
    )
    # near the bifurcation where the MAP's fixed point disappears: iterating
    # crawled there, and 1678 has none (its residual peaks at -1e-4)
    @example(seed=1678, eta=1.5, kind="scalar", sd=0.1)
    @example(seed=15247, eta=2.5, kind="scalar", sd=0.01)
    @example(seed=1895, eta=0.5, kind="scalar", sd=0.1)
    @example(seed=5100, eta=2.5, kind="scalar", sd=0.001)
    @settings(max_examples=80, deadline=None)
    def test_matches_or_collapses_with_the_oracle(self, seed, eta, kind, sd):
        X, y = random_dataset(10, 1, seed=seed)
        noise = KnownNoise(sd) if kind == "scalar" else UnknownNoise(sd)
        d = oracles.dense_density(build_orthonormal_basis(X, eta), y, noise)
        self.check(d)

    def test_collapses_where_the_oracle_collapses(self):
        X, y = random_dataset(10, 1, seed=2)
        d = oracles.dense_density(build_orthonormal_basis(X, 1.5), y, KnownNoise(0.1))
        with pytest.raises(PoleCollapse):
            oracles.map_estimate(d)
        self.check(d)

    @staticmethod
    def check(d):
        try:
            expected = oracles.map_estimate(d)
        except PoleCollapse:
            with pytest.raises(PoleCollapse):
                map_estimate(d)
            return
        except SingularSystem:
            # the oracle's dense system is past the rcond gate (often at eta =
            # 2.5); the elementwise iteration needs no such solve
            assume(False)
        h = map_estimate(d)
        np.testing.assert_allclose(h, expected, rtol=0.0, atol=1e-8 * np.abs(expected).max())


def whitening(d, state):
    """J with J^T (metric) J = I: x = J z for the sampler's whitened coordinates z.

    The metric in pencil coordinates scaled by sqrt(d) is M = I - k u u^T, so
    J = T diag(1/sqrt(d)) L_M^-T with L_M the Cholesky factor of M (and 1/ell
    for log sigma). Returns J and the metric.
    """
    h_star, log_sigma = d._split(state)
    m = oracles._laplace_metric(d, oracles.pencil_coordinates(d, h_star), log_sigma)
    N = d.n_points
    L_M = np.linalg.cholesky(np.eye(N) - m.k * np.outer(m.u, m.u))
    J = np.zeros((d.dim, d.dim))
    J[:N, :N] = (d.T / m.sqrt_d) @ np.linalg.inv(L_M).T
    if m.ell is not None:
        J[-1, -1] = 1.0 / m.ell
    return J, m


class TestLaplacePrecondition:
    def test_recovers_gaussian_factor_far_from_pole(self):
        # At huge ||h|| the prior curvature is negligible, so the metric is
        # the residual precision.
        d = make_density()
        J, _ = whitening(d, 1e8 * d.h_mu_star)
        Jinv = np.linalg.inv(J)
        np.testing.assert_allclose(Jinv.T @ Jinv, d.quad / d.noise.sigma**2, rtol=1e-6, atol=1e-8)

    def test_factorizes_negative_hessian_at_map(self):
        d = make_density()
        h_map = map_estimate(d)
        J, m = whitening(d, h_map)
        assert m.name == "laplace" and m.k > 0.0
        np.testing.assert_allclose(J.T @ -oracles.hessian(d, h_map) @ J, np.eye(d.dim), rtol=0.0, atol=1e-9)
        L = oracles.laplace_precondition(h_map, d)  # the dense factor of the same metric
        np.testing.assert_allclose(J.T @ L @ L.T @ J, np.eye(d.dim), rtol=0.0, atol=1e-9)

    def test_unknown_mode_drops_sigma_cross_terms(self):
        # The off-diagonal sigma curvature holds only at the MAP residual, so
        # the metric keeps the two blocks but not the coupling between them.
        d = make_density(noise=UnknownNoise(0.1))
        state = oracles.initial_state(d, map_estimate(d))
        J, m = whitening(d, state)
        expected = -oracles.hessian(d, state)
        assert np.abs(expected[:-1, -1]).max() > 1e-8  # coupling exists...
        expected[:-1, -1] = 0.0
        expected[-1, :-1] = 0.0  # ...but the metric ignores it
        assert m.ell == pytest.approx(math.sqrt(expected[-1, -1]), rel=1e-12)
        np.testing.assert_allclose(J.T @ expected @ J, np.eye(d.dim), rtol=0.0, atol=1e-9)
        L = oracles.laplace_precondition(state[:-1], d)
        np.testing.assert_allclose(J.T @ L @ L.T @ J, np.eye(d.dim), rtol=0.0, atol=1e-9)

    def test_indefinite_hessian_falls_back_to_diagonal(self):
        # Where the prior dominates, the radial term makes the negative
        # Hessian indefinite; the metric drops it and keeps diag(d) > 0.
        d = make_density(noise=KnownNoise(1e3))
        state = d.h_mu_star
        negH = -oracles.hessian(d, state)
        assert np.linalg.eigvalsh(negH).min() < 0.0
        J, m = whitening(d, state)
        assert m.name == "laplace_without_radial_term" and m.k == 0.0
        L = oracles.laplace_precondition(state, d)  # the dense factor falls back too
        assert np.array_equal(L, np.diag(np.diag(L)))
        assert np.all(m.sqrt_d > 0.0)
        # what is left is exactly the negative Hessian without the radial term
        h = state[: d.n_basis]
        negH[: d.n_basis, : d.n_basis] += 2.0 * d.n_basis * np.outer(h, h) / float(h @ h) ** 2
        np.testing.assert_allclose(J.T @ negH @ J, np.eye(d.dim), rtol=0.0, atol=1e-9)

    def test_unit_sigma_scale_at_zero_misfit(self):
        # At the interpolant the misfit and with it the sigma curvature vanish;
        # the metric falls back to a unit scale for log sigma.
        d = make_density(noise=UnknownNoise(0.1))
        _, m = whitening(d, oracles.initial_state(d, d.h_mu_star))
        assert m.ell == 1.0


class TestDrawLogSigma:
    def test_rejected_for_known_noise(self):
        d = make_density()
        with pytest.raises(DomainError):
            oracles.draw_log_sigma(d, d.h_mu_star, np.random.default_rng(0))

    def test_matches_conditional_density(self):
        # In u = sigma^-2 the conditional at fixed coordinates is
        # Gamma(N/2, rate q/2); check the first two moments of u against it.
        d = make_density(noise=UnknownNoise(0.1))
        rng = np.random.default_rng(5)
        h = d.h_mu_star + 0.2 * rng.normal(size=d.n_points)
        r = h - d.h_mu_star
        q = float(r @ d.quad @ r)
        draws = np.array([oracles.draw_log_sigma(d, h, rng) for _ in range(20000)])
        u = np.exp(-2.0 * draws)
        mean, var = d.n_points / q, 2.0 * d.n_points / q**2
        assert abs(u.mean() - mean) < 4.0 * math.sqrt(var / u.size)
        assert abs(u.var() - var) / var < 0.1

    def test_finite_at_zero_misfit(self):
        # A perfect fit sends the conditional mass to sigma -> 0; the draw
        # clamps instead of returning -inf so the chain state stays usable.
        d = make_density(noise=UnknownNoise(0.1))
        t = oracles.draw_log_sigma(d, d.h_mu_star, np.random.default_rng(2))
        assert math.isfinite(t) and t < -300.0


def test_initial_state_modes():
    d_known = make_density()
    h = d_known.h_mu_star
    out = oracles.initial_state(d_known, h)
    assert np.array_equal(out, h) and out is not h
    d_unknown = make_density(noise=UnknownNoise(0.25))
    out = oracles.initial_state(d_unknown, h)
    assert out.shape == (d_unknown.dim,)
    assert out[-1] == pytest.approx(math.log(0.25))
    # Already-complete states pass through unchanged.
    np.testing.assert_array_equal(oracles.initial_state(d_unknown, out), out)
