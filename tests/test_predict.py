"""Predictive bands: variance decomposition, interval geometry, regime guard."""

from __future__ import annotations

import json
import math
import sys
from collections import Counter

import numpy as np
import pytest
from scipy.stats import t as student_t

from sipr._linalg import SymmetricFactor
from sipr.basis import build_orthonormal_basis, evaluation_matrix
from sipr.cli import main
from sipr.errors import WrongRegime
from sipr.pipeline import fit_regression
from sipr.posterior import KnownNoise, build_density
from sipr.predict import band_halfwidth, credible_band, predictive_mean
from sipr.sampler import Regime, SamplerConfig, run_mcmc
from tests.conftest import random_dataset, write_csv


@pytest.fixture(scope="module")
def fit():
    X, y = random_dataset(12, 1, seed=7)
    eta = 1.5
    basis = build_orthonormal_basis(X, eta)
    density = build_density(basis, y, KnownNoise(0.1))
    posterior = run_mcmc(density, SamplerConfig(chains=2, samples_per_chain=400, burn_in=150, seed=3))
    return X, y, eta, basis, posterior


PROBES = np.linspace(0.05, 0.95, 9)[:, None]


def test_mean_matches_predictive_mean(fit):
    X, y, eta, basis, posterior = fit
    band = credible_band(posterior, basis, PROBES, sigma_y=0.1)
    np.testing.assert_array_equal(band.mean, predictive_mean(posterior, basis, PROBES))


def test_variance_decomposition(fit):
    X, y, eta, basis, posterior = fit
    sigma_y = 0.1
    band = credible_band(posterior, basis, PROBES, sigma_y=sigma_y)
    np.testing.assert_allclose(band.sigma_f**2, band.sigma_t**2 + band.sigma_s**2, rtol=1e-12)
    np.testing.assert_allclose(band.sigma_d**2, band.sigma_f**2 + sigma_y**2, rtol=1e-12)
    assert np.all(band.sigma_s > 0)
    assert np.all(band.scale_t > 0)


def test_interval_from_t_quantile(fit):
    X, y, eta, basis, posterior = fit
    level = 0.9
    band = credible_band(posterior, basis, PROBES, level=level, sigma_y=0.1)
    assert band.dof == float(posterior.n_basis)
    q = student_t.ppf(0.95, band.dof)
    half = q * np.sqrt(band.scale_t**2 + band.sigma_s**2)
    np.testing.assert_allclose(band.upper - band.mean, half, rtol=1e-12)
    np.testing.assert_allclose(band.mean - band.lower, half, rtol=1e-12)


def test_levels_are_nested(fit):
    X, y, eta, basis, posterior = fit
    b50 = credible_band(posterior, basis, PROBES, level=0.5, sigma_y=0.1)
    b95 = credible_band(posterior, basis, PROBES, level=0.95, sigma_y=0.1)
    assert np.all(b95.lower < b50.lower)
    assert np.all(b95.upper > b50.upper)


def test_sigma_s_matches_the_three_operand_form(fit):
    X, y, eta, basis, posterior = fit
    band = credible_band(posterior, basis, PROBES, sigma_y=0.1)
    E = evaluation_matrix(basis, PROBES)
    oracle = np.sqrt(np.einsum("pi,ij,pj->p", E, posterior.Sigma_hat, E))
    np.testing.assert_allclose(band.sigma_s, oracle, rtol=1e-10)


def test_probe_at_datapoint_drops_t_component(fit):
    X, y, eta, basis, posterior = fit
    band = credible_band(posterior, basis, X[4:5], sigma_y=0.1)
    assert band.scale_t[0] == 0.0
    # sigma_s persists: the sampled coordinates still disagree at the point.
    assert band.sigma_f[0] == pytest.approx(band.sigma_s[0])


def test_probe_numerically_at_datapoint_snaps_to_limit(fit):
    # Close enough to a datapoint that the power function sits at its
    # rounding floor: the t component takes its coincident limit, exactly 0.
    X, y, eta, basis, posterior = fit
    probe = X[4:5] + 1e-9
    band = credible_band(posterior, basis, probe, sigma_y=0.1)
    assert band.scale_t[0] == 0.0
    assert np.isfinite(band.mean[0])


def test_low_dof_has_scale_but_no_sd():
    # N = 4, eta = 1.5 in 1-D gives Nh = 2 basis directions: the t component
    # has dof 2, so its sd is NaN while the interval is still finite.
    X = np.array([[0.0], [0.3], [0.7], [1.0]])
    y = np.array([0.1, 0.8, -0.4, 0.5])
    basis = build_orthonormal_basis(X, 1.5)
    density = build_density(basis, y, KnownNoise(0.1))
    posterior = run_mcmc(density, SamplerConfig(chains=2, samples_per_chain=300, burn_in=100, seed=1))
    band = credible_band(posterior, basis, np.array([[0.5]]), sigma_y=0.1)
    assert band.dof == 2.0
    assert math.isnan(band.sigma_t[0])
    assert math.isnan(band.sigma_f[0])
    assert band.scale_t[0] > 0
    assert math.isfinite(band.lower[0]) and math.isfinite(band.upper[0])
    assert band.lower[0] < band.mean[0] < band.upper[0]


def test_sigma_y_defaults_to_posterior_noise(fit):
    X, y, eta, basis, posterior = fit
    # Known-noise posterior carries no sigma draws, so the default is 0 and
    # the observation band collapses onto the function band.
    band = credible_band(posterior, basis, PROBES)
    np.testing.assert_allclose(band.sigma_d, band.sigma_f, rtol=1e-12)


def test_wrong_regime_rejected(fit):
    X, y, eta, basis, posterior = fit

    class PolePosterior:
        regime = Regime.NULLSPACE_POLE

    with pytest.raises(WrongRegime, match="nullspace"):
        predictive_mean(PolePosterior(), basis, PROBES)
    with pytest.raises(WrongRegime):
        credible_band(PolePosterior(), basis, PROBES)


def test_band_halfwidth_validates_level():
    with pytest.raises(WrongRegime):
        band_halfwidth(1.5, 4.0, np.ones(3))
    np.testing.assert_allclose(
        band_halfwidth(0.95, 10.0, np.array([2.0])),
        student_t.ppf(0.975, 10.0) * 2.0,
        rtol=1e-12,
    )


@pytest.mark.parametrize("n_probes", [5, 50])
def test_one_saddle_solve_per_probe_set(fit, monkeypatch, tmp_path, n_probes):
    # Each command assembles the kernel system of its point set once: one
    # Green's matrix, one distinctness check and one saddle factorization,
    # which serves every probe and path however many there are.
    X, y, eta, basis, posterior = fit
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in [m for n, m in list(sys.modules.items()) if n == "sipr" or n.startswith("sipr.")]:
        for name in ("greens_matrix", "check_distinct"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(SymmetricFactor, "__init__", counted("SymmetricFactor", SymmetricFactor.__init__))

    data = write_csv(tmp_path / "d.csv", X, y, feature_names=["x"])
    model, grid = tmp_path / "m.json", f"0.01:0.99:{n_probes}"
    commands = {
        "fit": ["fit", "--data", data, "--target", "y", "--eta", str(eta), "--noise", "0.1",
                "--samples", "300", "--burn", "150", "--model-out", str(model)],
        "predict": ["predict", "--model", str(model), "--grid", grid, "--out", str(tmp_path / "b.csv")],
        "interpolate": ["interpolate", "--data", data, "--target", "y", "--eta", str(eta),
                        "--grid", grid, "--paths", "3", "--out", str(tmp_path / "i.csv")],
    }
    for command, args in commands.items():
        counts.clear()
        assert main(args) == 0
        assert counts == {"greens_matrix": 1, "check_distinct": 1, "SymmetricFactor": 1}, command
        if command == "fit":
            assert json.loads(model.read_text())["regime"] == "normal"

    # In one process a fit's bands come from the factor its interpolant used.
    probes = np.linspace(0.01, 0.99, n_probes)[:, None]
    for noise in (0.1, 0.0):
        counts.clear()
        config = SamplerConfig(samples_per_chain=300, burn_in=150)
        fitted = fit_regression(X, y, eta, noise=noise, config=config)
        assert fitted.regime == (Regime.NORMAL if noise else Regime.INTERPOLATION_POLE)
        fitted.predict(probes)
        assert counts == {"greens_matrix": 1, "check_distinct": 1, "SymmetricFactor": 1}, noise


def test_interpolate_paths_solve_the_probe_border_once(monkeypatch, tmp_path):
    # The pointwise posteriors and the paths share one multi-RHS solve of
    # the probes' border; the other solve is the interpolant's.
    X, y = random_dataset(12, 1, seed=7)
    shapes = []
    solve = SymmetricFactor.solve

    def recorded(self, rhs):
        shapes.append(np.shape(rhs))
        return solve(self, rhs)

    monkeypatch.setattr(SymmetricFactor, "solve", recorded)
    data = write_csv(tmp_path / "d.csv", X, y, feature_names=["x"])
    assert main(["interpolate", "--data", data, "--target", "y", "--eta", "1.5",
                 "--grid", "0.01:0.99:7", "--paths", "3", "--out", str(tmp_path / "i.csv")]) == 0
    assert shapes == [(14,), (14, 7)]
