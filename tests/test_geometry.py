"""Kernel geometry: regularity validation, nullspace combinatorics, norm constant."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sipr import geometry
from sipr.errors import ConstraintViolated, DimensionMismatch, DuplicatePoints, IntegerEta
from sipr.geometry import (
    Regularity,
    _Geometry,
    eta_norm_constant,
    monomial_matrix,
    multi_indices,
    nullspace_dim,
    pairwise_sq_dists,
)


class TestRegularity:
    def test_accepts_non_integer(self):
        assert Regularity(1.5).value == 1.5
        assert Regularity(0.5).floor == 0
        assert Regularity(2.25).floor == 2

    @pytest.mark.parametrize("bad", [1.0, 2.0, 3.0, 1.0000005, 2.0 - 1e-7])
    def test_rejects_integers_and_near_integers(self, bad):
        with pytest.raises(IntegerEta):
            Regularity(bad)

    @pytest.mark.parametrize("bad", [0.0, -0.5, -3.2, math.inf, math.nan])
    def test_rejects_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(IntegerEta):
            Regularity(bad)

    def test_just_outside_integer_tolerance_is_fine(self):
        assert Regularity(1.0 + 2e-6).value == pytest.approx(1.0 + 2e-6)


class TestMultiIndices:
    def test_frozen_ordering_dim2(self):
        # Graded ordering, degree-0 first; within a degree the first
        # coordinate's exponent decreases.
        assert multi_indices(2, 2.5) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_frozen_ordering_dim1(self):
        assert multi_indices(1, 0.5) == [(0,)]
        assert multi_indices(1, 2.5) == [(0,), (1,), (2,)]

    def test_rejects_bad_dim(self):
        with pytest.raises(DimensionMismatch):
            multi_indices(0, 1.5)

    @given(dim=st.integers(1, 4), floor=st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_count_and_degree_bound(self, dim, floor):
        eta = floor + 0.5
        idx = multi_indices(dim, eta)
        assert len(idx) == nullspace_dim(dim, eta) == math.comb(floor + dim, floor)
        assert all(sum(v) <= floor for v in idx)
        assert len(set(idx)) == len(idx)
        # Grading is monotone in total degree.
        degrees = [sum(v) for v in idx]
        assert degrees == sorted(degrees)


def test_nullspace_dim_frozen_values():
    assert nullspace_dim(1, 0.5) == 1
    assert nullspace_dim(1, 1.5) == 2
    assert nullspace_dim(2, 1.5) == 3
    assert nullspace_dim(3, 2.5) == 10
    assert nullspace_dim(13, 2.5) == 105


class TestNormConstant:
    def test_worked_values(self):
        assert eta_norm_constant(1, 0.5) == pytest.approx(-math.pi, rel=1e-12)
        assert eta_norm_constant(1, 1.5) == pytest.approx(math.pi / 6.0, rel=1e-12)
        assert eta_norm_constant(3, 0.5) == pytest.approx(-(math.pi**2), rel=1e-12)

    def test_sign_alternates_with_ceil(self):
        assert eta_norm_constant(2, 0.5) < 0
        assert eta_norm_constant(2, 1.5) > 0
        assert eta_norm_constant(2, 2.5) < 0

    @given(dim=st.integers(1, 5), floor=st.integers(0, 3), frac=st.floats(0.1, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_finite_and_nonzero(self, dim, floor, frac):
        c = eta_norm_constant(dim, floor + frac)
        assert math.isfinite(c) and c != 0.0


class TestGreensMatrix:
    def test_values_and_zero_diagonal(self):
        X = np.array([[0.0], [1.0], [3.0]])
        G = _Geometry(X, 1.5).G
        assert np.array_equal(np.diag(G), np.zeros(3))
        assert G[0, 1] == pytest.approx(1.0)
        assert G[0, 2] == pytest.approx(3.0**3)
        assert G[1, 2] == pytest.approx(2.0**3)
        assert np.array_equal(G, G.T)

    def test_duplicate_points_rejected(self):
        X = np.array([[0.0, 0.0], [1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(DuplicatePoints, match="1 and 2"):
            _Geometry(X, 1.5)

    def test_near_duplicates_relative_to_span(self):
        # The duplicate test runs in unit-box coordinates, so "coincide" is
        # relative to the data spread, not absolute.
        with pytest.raises(DuplicatePoints):
            _Geometry(np.array([[0.0], [1e-13], [1.0]]), 1.5)
        # The same absolute gap is fine when it IS the data spread.
        _Geometry(np.array([[0.0], [1e-13]]), 1.5)

    @pytest.mark.parametrize("dim, eta", [(1, 1.5), (1, 2.5), (2, 0.5), (2, 1.5)])
    def test_is_the_kernel_of_the_pairwise_distances_bit_for_bit(self, dim, eta):
        X = np.random.default_rng(dim).uniform(-3.0, 40.0, size=(30, dim))
        want = pairwise_sq_dists(X, X) ** eta
        np.fill_diagonal(want, 0.0)
        np.testing.assert_array_equal(_Geometry(X, eta).G.view(np.int64), want.view(np.int64))

    def test_distances_are_computed_once(self, monkeypatch):
        # The duplicate check and G read one matrix of squared distances.
        calls = []

        def counted(A, B):
            calls.append((A, B))
            return pairwise_sq_dists(A, B)

        monkeypatch.setattr(geometry, "pairwise_sq_dists", counted)
        X = np.random.default_rng(5).uniform(size=(12, 2))
        g = _Geometry(X, 1.5)
        assert len(calls) == 1
        assert calls[0][0] is g.X and calls[0][1] is g.X


def test_norm_rejects_coefficients_off_the_constraint():
    # A linear trend is in the nullspace of eta = 1.5 in 2-D: coefficients
    # that sum to 0 but have a nonzero first moment are not a norm's argument.
    X = np.random.default_rng(6).uniform(size=(8, 2))
    g = _Geometry(X, 1.5)
    a = np.zeros(8)
    a[0], a[1] = 1.0, -1.0
    assert abs(g.M_u[0] @ a) == 0.0 and np.abs(g.M_u @ a).max() > 1e-3
    with pytest.raises(ConstraintViolated):
        g.norm_sq(a)
    # projected onto the constraint, the same coefficients have a positive norm
    a -= g.M_u.T @ np.linalg.solve(g.M_u @ g.M_u.T, g.M_u @ a)
    assert g.norm_sq(a) > 0.0


def test_monomial_matrix_rows_are_monomials():
    X = np.array([[0.5, 2.0], [1.0, 3.0], [2.0, 0.25], [4.0, 1.0]])
    M = monomial_matrix(X, 2.5)
    idx = multi_indices(2, 2.5)
    assert M.shape == (len(idx), 4)
    for i, v in enumerate(idx):
        np.testing.assert_allclose(M[i], X[:, 0] ** v[0] * X[:, 1] ** v[1], rtol=1e-14)


class TestUnitBoxMap:
    def test_forward_lands_in_unit_box(self):
        X = np.random.default_rng(8).normal(size=(50, 2)) * [100.0, 0.01]
        U = _Geometry(X, 1.5).box.apply(X)
        assert U.min() >= 0.0
        assert U.max() <= 1.0 + 1e-12

    def test_isotropic_single_scale(self):
        # One scalar scale for all features: the widest range.
        X = np.array([[0.0, 0.0], [10.0, 1.0]])
        box = _Geometry(X, 1.5).box
        assert box.scale == 10.0
        np.testing.assert_allclose(box.apply(X)[1], [1.0, 0.1])


def test_interpolant_and_conditioned_kernel_read_back_in_caller_units():
    # Raw inputs far from the unit box: the interpolant hits the data with
    # G and M_u as held, and the conditioned kernel's diagonal is the power
    # function of the same border.
    X = 1e3 + np.linspace(0.0, 40.0, 11)[:, None]
    y = np.sin(X[:, 0] / 7.0)
    g = _Geometry(X, 1.5)
    a, c_u = g.interpolant(y)
    np.testing.assert_allclose(g.G @ a + g.M_u.T @ c_u, y, rtol=0, atol=1e-9)
    assert np.abs(g.M_u @ a).max() < 1e-9 * np.abs(a).max()
    Q, B, W = g.border(X[[0, 2]] + [[1.5], [-0.25]])
    K_c = g.conditioned_kernel(Q, B, W)
    np.testing.assert_allclose(np.diag(K_c), g.power_function(B, W), rtol=1e-9)
    np.testing.assert_allclose(K_c, K_c.T, rtol=1e-9, atol=0)
