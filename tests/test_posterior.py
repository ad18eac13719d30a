"""Log posterior over subspace coordinates: derivatives, MAP, preconditioner."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sipr.basis import build_orthonormal_basis
from sipr.errors import DomainError, NoConvergence, PoleCollapse
from sipr.posterior import (
    KnownNoise,
    PosteriorDensity,
    UnknownNoise,
    build_density,
    laplace_precondition,
    map_estimate,
)
from tests.conftest import random_dataset


def make_density(n=12, dim=1, eta=1.5, noise=None, seed=7):
    X, y = random_dataset(n, dim, seed=seed)
    basis = build_orthonormal_basis(X, eta)
    return build_density(basis, y, noise or KnownNoise(0.1))


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
        # With the residual precision zeroed out, rescaling the state changes
        # the log density by exactly -Nh log s for any s.
        base = make_density()
        d = PosteriorDensity(
            h_mu_star=base.h_mu_star,
            Estar=base.Estar,
            n_basis=base.n_basis,
            n_null=base.n_null,
            noise=KnownNoise(1.0),
            Sigma_inv=np.zeros((base.n_points, base.n_points)),
        )
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
        q = float(r @ d.base_quad @ r)
        lp1 = d.log_density(np.append(h, t))
        lp2 = d.log_density(np.append(h, t + math.log(2.0)))
        expected = -d.n_points * math.log(2.0) - 0.5 * (0.25 - 1.0) * math.exp(-2.0 * t) * q
        assert lp2 - lp1 == pytest.approx(expected, rel=1e-10)

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
            state = d.initial_state(d.h_mu_star + 0.3 * rng.normal(size=d.n_points))
            if not d.noise.is_known:
                state[-1] += rng.normal() * 0.3
            g = d.grad(state)
            fd = numeric_grad(d.log_density, state, step=1e-6)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("noise", [KnownNoise(0.15), UnknownNoise(0.15)])
    def test_hessian_matches_finite_differences(self, noise):
        d = make_density(noise=noise)
        rng = np.random.default_rng(13)
        state = d.initial_state(d.h_mu_star + 0.3 * rng.normal(size=d.n_points))
        H = d.hessian(state)
        fd = np.column_stack(
            [numeric_grad(lambda s: d.grad(s)[i], state, step=1e-4) for i in range(d.dim)]
        )
        np.testing.assert_allclose(H, fd, rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(H, H.T, atol=1e-12)

    def test_prior_gradient_ignores_polynomial_block(self):
        # Zero residual precision isolates the prior: its gradient lives
        # entirely in the kernel block.
        base = make_density()
        d = PosteriorDensity(
            h_mu_star=base.h_mu_star,
            Estar=base.Estar,
            n_basis=base.n_basis,
            n_null=base.n_null,
            noise=KnownNoise(1.0),
            Sigma_inv=np.zeros((base.n_points, base.n_points)),
        )
        state = np.random.default_rng(3).normal(size=d.n_points)
        g = d.grad(state)
        np.testing.assert_array_equal(g[d.n_basis :], np.zeros(d.n_null))
        assert np.abs(g[: d.n_basis]).max() > 0


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


class TestLaplacePrecondition:
    def test_recovers_gaussian_factor_far_from_pole(self):
        # At huge ||h|| the prior curvature is negligible, so the negative
        # Hessian is the residual precision and L is its Cholesky factor.
        d = make_density()
        L = laplace_precondition(1e8 * d.h_mu_star, d)
        np.testing.assert_allclose(L @ L.T, d.Sigma_inv, rtol=1e-6, atol=1e-8)

    def test_factorizes_negative_hessian_at_map(self):
        d = make_density()
        h_map = map_estimate(d)
        L = laplace_precondition(h_map, d)
        np.testing.assert_allclose(L @ L.T, -d.hessian(h_map), rtol=1e-9, atol=1e-12)
        assert np.allclose(L, np.tril(L))

    def test_unknown_mode_drops_sigma_cross_terms(self):
        # The off-diagonal sigma curvature holds only at the MAP residual, so
        # the metric keeps the two blocks but not the coupling between them.
        d = make_density(noise=UnknownNoise(0.1))
        h_map = map_estimate(d)
        state = d.initial_state(h_map)
        L = laplace_precondition(h_map, d)
        expected = -d.hessian(state)
        assert np.abs(expected[:-1, -1]).max() > 1e-8  # coupling exists...
        expected[:-1, -1] = 0.0
        expected[-1, :-1] = 0.0  # ...but the metric ignores it
        np.testing.assert_allclose(L @ L.T, expected, rtol=1e-9, atol=1e-12)

    def test_indefinite_hessian_falls_back_to_diagonal(self):
        class Stub:
            def initial_state(self, h):
                return np.asarray(h, dtype=float)

            def hessian(self, state):
                return np.diag([1.0, -2.0, 3.0])  # negative Hessian is indefinite

        L = laplace_precondition(np.zeros(3), Stub())
        assert np.array_equal(L, np.diag(np.diag(L)))
        assert np.all(np.diag(L) > 0)
        # The one direction with usable curvature (-H = 2) is kept, the
        # others fall back to unit scale.
        assert L[1, 1] == pytest.approx(math.sqrt(2.0))
        assert L[0, 0] == pytest.approx(1.0)
        assert L[2, 2] == pytest.approx(1.0)


class TestDrawLogSigma:
    def test_rejected_for_known_noise(self):
        d = make_density()
        with pytest.raises(DomainError):
            d.draw_log_sigma(d.h_mu_star, np.random.default_rng(0))

    def test_matches_conditional_density(self):
        # In u = sigma^-2 the conditional at fixed coordinates is
        # Gamma(N/2, rate q/2); check the first two moments of u against it.
        d = make_density(noise=UnknownNoise(0.1))
        rng = np.random.default_rng(5)
        h = d.h_mu_star + 0.2 * rng.normal(size=d.n_points)
        r = h - d.h_mu_star
        q = float(r @ d.base_quad @ r)
        draws = np.array([d.draw_log_sigma(h, rng) for _ in range(20000)])
        u = np.exp(-2.0 * draws)
        mean, var = d.n_points / q, 2.0 * d.n_points / q**2
        assert abs(u.mean() - mean) < 4.0 * math.sqrt(var / u.size)
        assert abs(u.var() - var) / var < 0.1

    def test_finite_at_zero_misfit(self):
        # A perfect fit sends the conditional mass to sigma -> 0; the draw
        # clamps instead of returning -inf so the chain state stays usable.
        d = make_density(noise=UnknownNoise(0.1))
        t = d.draw_log_sigma(d.h_mu_star, np.random.default_rng(2))
        assert math.isfinite(t) and t < -300.0


def test_initial_state_modes():
    d_known = make_density()
    h = d_known.h_mu_star
    out = d_known.initial_state(h)
    assert np.array_equal(out, h) and out is not h
    d_unknown = make_density(noise=UnknownNoise(0.25))
    out = d_unknown.initial_state(h)
    assert out.shape == (d_unknown.dim,)
    assert out[-1] == pytest.approx(math.log(0.25))
    # Already-complete states pass through unchanged.
    np.testing.assert_array_equal(d_unknown.initial_state(out), out)
