"""Orthonormal basis of the data-spanned subspace and the coordinate maps."""

from __future__ import annotations

import numpy as np
import pytest

from sipr.basis import (
    _orthonormalize,
    _orthonormalize_staircase,
    _staircase_top,
    build_orthonormal_basis,
    evaluation_matrix,
)
from sipr.errors import DimensionMismatch, SingularSystem, TooFewPoints
from sipr.geometry import _Geometry, eta_norm_constant, monomial_matrix
from sipr.interpolate import solve_interpolation
from sipr.posterior import KnownNoise, build_density
from tests.conftest import random_dataset
from tests.oracles import dense_density, loop_orthonormal_basis


@pytest.mark.parametrize("n,dim", [(10, 1), (20, 2), (30, 3), (50, 3)])
@pytest.mark.parametrize("eta", [0.5, 1.5, 2.5])
def test_orthonormality_and_constraints(n, dim, eta):
    X, _ = random_dataset(n, dim, seed=n + dim)
    basis = build_orthonormal_basis(X, eta)
    H = basis.H
    C = eta_norm_constant(dim, eta)
    gram = C * (H.T @ basis.geometry.G @ H)
    np.testing.assert_allclose(gram, np.eye(basis.n_basis), atol=1e-8)
    # Every column satisfies the growth-rate constraint.
    assert np.abs(monomial_matrix(basis.X, eta) @ H).max() < 1e-8


@pytest.mark.parametrize("n,dim", [(10, 1), (14, 1), (20, 2), (30, 3)])
@pytest.mark.parametrize("eta", [0.5, 1.5, 2.5])
def test_matches_column_loop_oracle(n, dim, eta):
    # Gram-Schmidt of the staircase via one Cholesky is the same basis the
    # per-column test-function solves build.
    X, _ = random_dataset(n, dim, seed=n + dim)
    H = build_orthonormal_basis(X, eta).H
    H_ref = loop_orthonormal_basis(X, eta).H
    assert np.abs(H - H_ref).max() <= 1e-6 * np.abs(H_ref).max()


@pytest.mark.parametrize("n,dim", [(10, 1), (40, 1), (20, 2), (30, 3)])
@pytest.mark.parametrize("eta", [0.5, 1.5])
def test_first_pass_reads_the_staircase(n, dim, eta):
    # The first CholeskyQR pass, from Z's structure, is the dense pass on
    # the full Z = [[Z_top], [0 | I]] up to rounding, and exactly 0 below
    # the staircase. (At eta = 2.5 a first pass is only as good as the Gram
    # matrix's conditioning; the second pass is there for that.)
    X, _ = random_dataset(n, dim, seed=n + dim)
    geometry = _Geometry(X, eta)
    Z_top = _staircase_top(geometry.M_u)
    Z = np.zeros((n, n - geometry.n_null))
    Z[: Z_top.shape[0]] = Z_top
    Z[Z_top.shape[0] :, 1:] = np.eye(Z.shape[1] - 1)
    C = eta_norm_constant(dim, eta)
    fast, dense = _orthonormalize_staircase(Z_top, geometry.G, C), _orthonormalize(Z, geometry.G, C)
    below = np.tril(np.ones(Z.shape, dtype=bool), -Z_top.shape[0])
    assert np.all(fast[below] == 0.0)
    assert np.abs(fast - dense).max() <= 1e-8 * np.abs(dense).max()


def test_estar_kernel_block_is_g_h():
    # The orthonormality check reads H^T G from the basis's GH, E*'s kernel block.
    X, _ = random_dataset(20, 2, seed=4)
    basis = build_orthonormal_basis(X, 1.5)
    GH = basis.geometry.G @ basis.H
    assert np.abs(basis.GH - GH).max() <= 1e-13 * np.abs(GH).max()


def test_1600_equispaced_points_pass_the_gate():
    # With one BLAS thread the residual at N = 1600 reads about 6e-7 as
    # (H^T G) H, the order the check uses, and about 1e-6, on the gate, as
    # H^T (G H).
    X = np.linspace(0.0, 1.0, 1600)[:, None]
    assert build_orthonormal_basis(X, 1.5).n_basis == 1598


def test_nearly_coincident_points_raise():
    # A 1e-5 gap among 300 points: the Cholesky form would return a basis
    # off orthonormal by ~1e-4, so the residual gate must refuse it.
    X, _ = random_dataset(300, 1, seed=0, min_gap=1e-5)
    with pytest.raises(SingularSystem, match="not orthonormal"):
        build_orthonormal_basis(X, 1.5)


def test_staircase_structure_and_sign():
    X, _ = random_dataset(12, 2, seed=8)
    basis = build_orthonormal_basis(X, 1.5)
    N0 = basis.n_null
    H = basis.H
    assert basis.n_basis == 12 - N0
    for j in range(basis.n_basis):
        # Column j involves only the first N0 + j + 1 points, and the last
        # active coefficient is made positive to pin the sign.
        assert np.abs(H[N0 + j + 1 :, j]).max(initial=0.0) == 0.0
        assert H[N0 + j, j] > 0.0


def test_too_few_points():
    X = np.array([[0.0], [0.5]])  # eta = 1.5 in 1-D needs N >= 3
    with pytest.raises(TooFewPoints):
        build_orthonormal_basis(X, 1.5)


def test_degenerate_leading_points():
    # D = 2, eta = 1.5: N0 = 3, so the first four points must not be
    # collinear or the seed direction is ambiguous.
    line = np.array([[0.0, 0.0], [0.25, 0.25], [0.5, 0.5], [0.75, 0.75]])
    X = np.vstack([line, [[0.1, 0.9], [0.9, 0.1]]])
    with pytest.raises(SingularSystem, match="first"):
        build_orthonormal_basis(X, 1.5)


def test_estar_reproduces_observations():
    X, y = random_dataset(15, 2, seed=21)
    d = dense_density(build_orthonormal_basis(X, 1.5), y, KnownNoise(0.1))
    np.testing.assert_allclose(d.Estar @ d.h_mu_star, y, rtol=1e-8, atol=1e-10)


def test_subspace_coordinates_match_interpolant():
    X, y = random_dataset(14, 1, seed=2)
    eta = 1.5
    basis = build_orthonormal_basis(X, eta)
    h_mu = build_density(basis, y, KnownNoise(0.1)).h_mu_star
    model = solve_interpolation(X, y, eta)
    probes = np.linspace(0.05, 0.95, 11)[:, None]
    direct = model.evaluate(probes)
    via_basis = evaluation_matrix(basis, probes) @ h_mu
    np.testing.assert_allclose(via_basis, direct, rtol=1e-7, atol=1e-9)


def test_spline_coefficients_satisfy_constraint():
    X, y = random_dataset(16, 2, seed=27)
    basis = build_orthonormal_basis(X, 2.5)
    a, c = basis.spline_coefficients(build_density(basis, y, KnownNoise(0.1)).h_mu_star)
    assert a.shape == (16,)
    assert c.shape == (basis.n_null,)
    assert np.abs(monomial_matrix(basis.X, 2.5) @ a).max() < 1e-8


def test_wrong_number_of_values_is_a_validation_error():
    X, y = random_dataset(8, 1, seed=35)
    basis = build_orthonormal_basis(X, 1.5)
    with pytest.raises(DimensionMismatch, match="8 points but 7 values"):
        build_density(basis, y[:-1], KnownNoise(0.1))


def test_evaluation_matrix_shape_and_polynomial_block():
    X, _ = random_dataset(9, 2, seed=41)
    basis = build_orthonormal_basis(X, 1.5)
    probe = np.array([[0.3, 0.7]])
    e = evaluation_matrix(basis, probe)[0]
    assert e.shape == (9,)
    # Last N0 entries are the monomials 1, u0, u1 of the probe in the unit box.
    np.testing.assert_allclose(e[-3:], monomial_matrix(basis.geometry.box.apply(probe), 1.5)[:, 0], rtol=1e-14)
