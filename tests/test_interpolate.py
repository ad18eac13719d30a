"""Minimum-norm interpolation and its exact pointwise posteriors."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from sipr.errors import (
    ConstraintViolated,
    DimensionMismatch,
    DuplicatePoints,
)
from sipr.geometry import (
    _Geometry,
    eta_norm_constant,
    monomial_matrix,
    nullspace_dim,
)
from sipr.interpolate import (
    POLYNOMIAL_TOL,
    pointwise_posterior,
    solve_interpolation,
)
from tests import oracles
from tests.conftest import random_dataset
from tests.oracles import CoincidesWithDatapoint
from tests.oracles import test_function as make_test_function


class TestSolveInterpolation:
    def test_reproduces_data_exactly(self):
        X, y = random_dataset(20, 2, seed=5)
        model = solve_interpolation(X, y, 1.5)
        np.testing.assert_allclose(model.evaluate(X), y, rtol=0, atol=1e-9)

    def test_eta_half_is_piecewise_linear_in_1d(self):
        # For eta = 0.5 in one dimension the minimum-norm interpolant is the
        # broken-line interpolant, so np.interp is an exact oracle.
        X = np.sort(np.random.default_rng(0).uniform(size=15))
        y = np.cos(4.0 * X)
        model = solve_interpolation(X, y, 0.5)
        probes = np.linspace(X.min(), X.max(), 200)
        np.testing.assert_allclose(
            model.evaluate(probes[:, None]), np.interp(probes, X, y), atol=1e-10
        )

    def test_polynomial_data_yields_zero_kernel_part(self):
        # y = 1 + 2 x lies in the nullspace of the eta = 1.5 penalty, so the
        # interpolant must be that polynomial itself, everywhere.
        X = np.linspace(0.0, 1.0, 7)[:, None]
        y = 1.0 + 2.0 * X[:, 0]
        model = solve_interpolation(X, y, 1.5)
        assert np.abs(model.a).max() < 1e-8
        np.testing.assert_allclose(model.c, [1.0, 2.0], atol=1e-8)
        assert model.evaluate(np.array([[10.0]]))[0] == pytest.approx(21.0, abs=1e-6)
        assert model.norm_sq <= POLYNOMIAL_TOL * float(y @ y)

    def test_coefficients_satisfy_growth_constraint(self):
        X, y = random_dataset(15, 2, seed=9)
        model = solve_interpolation(X, y, 2.5)
        M = monomial_matrix(X, 2.5)
        assert np.abs(M @ model.a).max() < 1e-8

    def test_permutation_invariance(self):
        X, y = random_dataset(12, 1, seed=3)
        perm = np.random.default_rng(4).permutation(12)
        probes = np.linspace(0.1, 0.9, 9)[:, None]
        f1 = solve_interpolation(X, y, 1.5).evaluate(probes)
        f2 = solve_interpolation(X[perm], y[perm], 1.5).evaluate(probes)
        np.testing.assert_allclose(f1, f2, rtol=1e-9, atol=1e-12)

    def test_affine_covariance(self):
        # The kernel depends only on distances and the nullspace is closed
        # under affine maps, so rescaling and shifting the inputs moves the
        # interpolant with them.
        X, y = random_dataset(14, 1, seed=6)
        probes = np.linspace(0.05, 0.95, 7)[:, None]
        f_ref = solve_interpolation(X, y, 1.5).evaluate(probes)
        f_map = solve_interpolation(X * 37.0 - 5.0, y, 1.5).evaluate(probes * 37.0 - 5.0)
        np.testing.assert_allclose(f_map, f_ref, rtol=1e-8, atol=1e-10)

    def test_input_validation(self):
        with pytest.raises(DimensionMismatch):
            solve_interpolation(np.zeros((3, 1)), np.zeros(4), 1.5)
        with pytest.raises(DuplicatePoints):
            solve_interpolation(np.array([[0.0], [0.0], [1.0]]), np.zeros(3), 1.5)
        with pytest.raises(DimensionMismatch):
            solve_interpolation(np.array([[0.0], [1.0]]), np.array([0.0, np.nan]), 0.5)


class TestNorm:
    def test_matches_quadratic_form(self):
        X, y = random_dataset(10, 1, seed=2)
        model = solve_interpolation(X, y, 1.5)
        G = oracles.kernel_matrix(X, 1.5)
        C = eta_norm_constant(1, 1.5)
        expected = C * float(model.a @ G @ model.a)
        assert _Geometry(X, 1.5).norm_sq(model.a) == pytest.approx(expected, rel=1e-12)
        assert model.norm_sq == pytest.approx(expected, rel=1e-9)

    def test_positive_for_nonpolynomial_data(self):
        X, y = random_dataset(10, 2, seed=11)
        model = solve_interpolation(X, y, 1.5)
        assert model.norm_sq > 0

    def test_constraint_checked_when_m_given(self):
        X = np.linspace(0.0, 1.0, 5)[:, None]
        a = np.ones(5)  # sum a != 0 violates the degree-0 constraint
        with pytest.raises(ConstraintViolated):
            _Geometry(X, 1.5).norm_sq(a)

    def test_interpolant_minimizes_norm(self):
        # Any other function through the same data has a larger norm. Build
        # competitors by interpolating the data plus one extra constrained
        # point at varying heights.
        X, y = random_dataset(8, 1, seed=13)
        eta = 1.5
        base = solve_interpolation(X, y, eta).norm_sq
        x_new = np.vstack([X, [[0.456]]])
        f_min = solve_interpolation(X, y, eta).evaluate(np.array([[0.456]]))[0]
        for dy in [-1.0, -0.1, 0.1, 1.0]:
            rival = solve_interpolation(x_new, np.append(y, f_min + dy), eta)
            assert rival.norm_sq > base
        # Pinning the extra point at the interpolant's own value changes nothing.
        same = solve_interpolation(x_new, np.append(y, f_min), eta)
        assert same.norm_sq == pytest.approx(base, rel=1e-6)


class TestTestFunction:
    def test_unit_at_probe_zero_on_data(self):
        X, _ = random_dataset(9, 2, seed=17)
        x_t = np.array([0.33, 0.71])
        tf = make_test_function(X, x_t, 1.5)
        assert tf.model.evaluate(x_t[None, :])[0] == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(tf.model.evaluate(X), np.zeros(9), atol=1e-9)
        assert tf.norm_sq > 0

    def test_probe_on_datapoint_rejected(self):
        X = np.array([[0.0], [0.5], [1.0]])
        with pytest.raises(CoincidesWithDatapoint, match="datapoint 1"):
            make_test_function(X, np.array([0.5]), 1.5)


class TestPowerFunction:
    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 3),
        eta=st.sampled_from([0.5, 1.5, 2.5]),
        extra=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_matches_test_function_norms(self, dim, eta, extra, seed):
        # ||t_x||^2 from the Schur complement of one data factorization
        # equals the norm of the test function solved on the augmented set,
        # for probes inside and outside the hull of the data. Probes keep the
        # data's gap, so the oracle's augmented system stays well conditioned.
        X, _ = random_dataset(nullspace_dim(dim, eta) + extra, dim, seed=seed, min_gap=1e-2)
        probes = np.random.default_rng(seed).uniform(-0.5, 1.5, size=(6, dim))
        gap = np.sqrt(((probes[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
        probes = probes[gap >= 1e-2]
        assume(len(probes) > 0)
        expected = np.array([1.0 / make_test_function(X, p, eta).norm_sq for p in probes])
        geometry = _Geometry(X, eta)
        _, B, W = geometry.border(probes)
        np.testing.assert_allclose(geometry.power_function(B, W), expected, rtol=1e-6)

    def test_probe_dimension_checked(self):
        X, _ = random_dataset(6, 2, seed=1)
        with pytest.raises(DimensionMismatch):
            _Geometry(X, 1.5).border(np.zeros((2, 3)))


class TestPointwisePosterior:
    # Three points, eta = 0.5: the posterior t has dof = N - N0 = 2 and the
    # mean is the broken-line interpolant. The scale value is frozen from an
    # exact solve of the 3 x 3 system.
    X3 = np.array([[0.0], [0.4], [1.0]])
    y3 = np.array([0.2, -0.5, 0.9])

    def test_frozen_three_point_instance(self):
        post = pointwise_posterior(self.X3, self.y3, 0.5, np.array([0.7]))
        assert post.dof == 2
        assert post.mean == pytest.approx(0.2, abs=1e-12)
        assert post.scale == pytest.approx(0.5804093383121949, rel=1e-9)
        assert math.isnan(post.sd)  # dof <= 2 has no finite variance

    def test_point_mass_at_datapoint(self):
        post = pointwise_posterior(self.X3, self.y3, 0.5, np.array([0.4]))
        assert post.mean == pytest.approx(-0.5)
        assert post.scale == 0.0
        assert post.sd == 0.0

    def test_probe_numerically_on_datapoint_takes_coincident_limit(self):
        # A probe a hair away from a datapoint puts the power function at its
        # rounding floor; the returned posterior should be the coincident
        # point mass rather than noise.
        post = pointwise_posterior(self.X3, self.y3, 1.5, np.array([0.4 + 1e-9]))
        assert post.scale == 0.0
        assert post.mean == pytest.approx(-0.5, abs=1e-6)

    def test_sd_defined_above_two_dof(self):
        X, y = random_dataset(8, 1, seed=19)  # dof = 8 - 2 = 6 for eta = 1.5
        post = pointwise_posterior(X, y, 1.5, np.array([0.52]))
        assert post.dof == 6
        assert post.sd == pytest.approx(post.scale * math.sqrt(6.0 / 4.0), rel=1e-12)

    def test_polynomial_data_is_point_mass_everywhere(self):
        X = np.linspace(0.0, 1.0, 6)[:, None]
        y = 3.0 - 2.0 * X[:, 0]
        post = pointwise_posterior(X, y, 1.5, np.array([0.77]))
        assert post.scale == 0.0
        assert post.mean == pytest.approx(3.0 - 2.0 * 0.77, abs=1e-9)


class TestSamplePaths:
    def test_deterministic_per_seed(self):
        X, y = random_dataset(7, 1, seed=29)
        grid = np.linspace(0.0, 1.0, 25)[:, None]
        p1 = solve_interpolation(X, y, 1.5).posterior(grid, [101])[3][:, 0]
        p2 = solve_interpolation(X, y, 1.5).posterior(grid, [101])[3][:, 0]
        p3 = solve_interpolation(X, y, 1.5).posterior(grid, [102])[3][:, 0]
        np.testing.assert_array_equal(p1, p2)
        assert not np.array_equal(p1, p3)

    def test_passes_through_data(self):
        X = np.array([[0.1], [0.5], [0.9]])
        y = np.array([1.0, -1.0, 0.5])
        grid = np.concatenate([np.linspace(0.0, 1.0, 11)[:, None], X])
        path = solve_interpolation(X, y, 0.5).posterior(grid, [7])[3][:, 0]
        np.testing.assert_allclose(path[-3:], y, atol=1e-9)
        assert path[5] == pytest.approx(-1.0, abs=1e-9)  # grid point 0.5 is a datapoint

    def test_dense_grid_at_high_regularity_completes(self):
        # A fine grid at eta = 2.5 makes the grid's conditional kernel
        # numerically rank-deficient; its square root still gives every
        # grid point a finite draw.
        X, y = random_dataset(10, 1, seed=0)
        grid = np.linspace(0.003, 0.997, 100)[:, None]
        path = solve_interpolation(X, y, 2.5).posterior(grid, [0])[3][:, 0]
        assert np.all(np.isfinite(path))

    def test_wiggles_between_data(self):
        # With dof = 2 tails the path should not equal the mean off the data.
        X, y = random_dataset(5, 1, seed=31)
        grid = np.linspace(0.0, 1.0, 15)[:, None]
        model = solve_interpolation(X, y, 0.5)
        path = solve_interpolation(X, y, 0.5).posterior(grid, [3])[3][:, 0]
        assert np.abs(path - model.evaluate(grid)).max() > 1e-6

    def test_polynomial_data_gives_the_mean(self):
        X = np.linspace(0.0, 1.0, 6)[:, None]
        y = 3.0 - 2.0 * X[:, 0]
        grid = np.linspace(-0.5, 1.5, 30)[:, None]
        model = solve_interpolation(X, y, 1.5)
        path = solve_interpolation(X, y, 1.5).posterior(grid, [4])[3][:, 0]
        np.testing.assert_array_equal(path, model.evaluate(grid))

    def test_columns_match_single_seed_draws(self):
        # The last two grid points are datapoints: every path takes exactly
        # the mean there.
        X, y = random_dataset(8, 2, seed=37)
        grid = np.vstack([np.random.default_rng(38).uniform(-0.2, 1.2, size=(10, 2)), X[:2]])
        model = solve_interpolation(X, y, 1.5)
        paths = model.posterior(grid, [5, 6, 7])[3]
        assert paths.shape == (12, 3)
        for j, seed in enumerate([5, 6, 7]):
            single = solve_interpolation(X, y, 1.5).posterior(grid, [seed])[3][:, 0]
            np.testing.assert_array_equal(paths[:, j], single)
            np.testing.assert_array_equal(paths[-2:, j], model.evaluate(X[:2]))
        assert model.posterior(grid, [])[3].shape == (12, 0)

    @pytest.mark.parametrize("eta", [0.5, 1.5, 2.5])
    def test_paths_are_continuous_in_the_conditional_kernel(self, eta):
        # Shifting raw-unit data and grid by a constant changes the grid's
        # conditional kernel only by rounding. The symmetric square root
        # follows it continuously, so seeded paths agree; a root that rotates
        # within clusters of near-equal eigenvalues moves them visibly.
        rng = np.random.default_rng(1)
        X = np.sort(rng.uniform(3.0, 20.0, 15))[:, None]
        y = np.sin(X[:, 0] / 2.0) + 0.1 * X[:, 0]
        grid = np.linspace(0.0, 25.0, 60)[:, None]  # off the datapoints
        raw = solve_interpolation(X, y, eta).posterior(grid, range(3))[3]
        shifted = solve_interpolation(X + 100.0, y, eta).posterior(grid + 100.0, range(3))[3]
        assert np.abs(shifted - raw).max() <= 1e-6 * np.abs(raw).max()

    @pytest.mark.parametrize("eta", [0.5, 1.5, 2.5])
    def test_same_law_as_sequential_draws(self, eta):
        # The t-process chain rule: drawing the grid jointly and drawing it
        # one point at a time, refitting after each, give the same law. The
        # grid reaches outside the data hull; two-sample KS tests on four path
        # statistics, Bonferroni-corrected over 4 statistics x 3 etas at 1%.
        # The grid is dense enough for neighbouring values to be strongly
        # correlated, so independent draws with the right marginals fail.
        X, y = random_dataset(6, 1, seed=43)
        grid = np.linspace(-0.2, 1.2, 16)[:, None]
        n = 400
        joint = solve_interpolation(X, y, eta).posterior(grid, range(n))[3].T
        sequential = []
        for seed in range(10_000, 10_000 + n):
            path, kept_mean = oracles.sequential_sample_path(X, y, eta, grid, seed)
            assert kept_mean == 0
            sequential.append(path)
        sequential = np.array(sequential)

        def statistics(paths):
            return {
                "mid-grid value": paths[:, len(grid) // 2],
                "end-to-end difference": paths[:, -1] - paths[:, 0],
                "maximum": paths.max(axis=1),
                "sum of squared increments": (np.diff(paths, axis=1) ** 2).sum(axis=1),
            }

        ours, reference = statistics(joint), statistics(sequential)
        for name in ours:
            p = stats.ks_2samp(ours[name], reference[name]).pvalue
            assert p > 0.01 / 12, f"{name}: KS p = {p:.2e}"


def test_saddle_layout():
    # The geometry factors [[G_u, M_u^T], [M_u, 0]] of the unit-box points,
    # with G_u = G s^(-2 eta) assembled from the caller's units: solving
    # against that matrix times v gives v back.
    X = np.random.default_rng(3).uniform(size=(5, 2)) * [40.0, 7.0] - 3.0
    geometry = _Geometry(X, 1.5)
    U = oracles.to_unit_box(X)
    G, M = oracles.kernel_matrix(U, 1.5), monomial_matrix(U, 1.5)
    N, N0 = G.shape[0], M.shape[0]
    np.testing.assert_allclose(geometry.G * geometry.box.scale**-3.0, G, rtol=1e-12)
    np.testing.assert_array_equal(geometry.M_u, M)
    S = np.block([[G, M.T], [M, np.zeros((N0, N0))]])
    v = np.random.default_rng(4).normal(size=(N + N0, 3))
    np.testing.assert_allclose(geometry.saddle.solve(S @ v), v, rtol=0, atol=1e-9)
