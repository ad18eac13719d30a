"""Predictive bands: variance decomposition, interval geometry, regime guard."""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import t as student_t

from sipr.geometry import SymmetricFactor
from sipr.basis import evaluation_matrix
from sipr.cli import main
from sipr.data import higdon
from sipr.errors import ValidationError
from sipr.geometry import _Geometry, monomial_matrix
from sipr.interpolate import solve_interpolation
from sipr.pipeline import crossval, fit_dataset, fit_regression, load_archive, save_archive
from sipr.predict import band_halfwidth, credible_band
from sipr.sampler import Regime, SamplerConfig
from tests.conftest import random_dataset, write_csv

QUICK = SamplerConfig(chains=2, samples_per_chain=400, burn_in=150, seed=3)


@pytest.fixture(scope="module")
def fit():
    X, y = random_dataset(12, 1, seed=7)
    fitted = fit_regression(X, y, 1.5, noise=0.1, config=QUICK)
    assert fitted.regime == Regime.NORMAL
    return fitted


PROBES = np.linspace(0.05, 0.95, 9)[:, None]


def test_mean_matches_predictive_mean(fit):
    band = credible_band(fit, PROBES)
    np.testing.assert_array_equal(band.mean, fit.predict_mean(PROBES))


def test_variance_decomposition(fit):
    band = credible_band(fit, PROBES)
    np.testing.assert_allclose(band.sigma_f**2, band.sigma_t**2 + band.sigma_s**2, rtol=1e-12)
    np.testing.assert_allclose(band.sigma_d**2, band.sigma_f**2 + 0.1**2, rtol=1e-12)
    assert np.all(band.sigma_s > 0)
    assert np.all(band.scale_t > 0)


def test_interval_from_t_quantile(fit):
    level = 0.9
    band = credible_band(fit, PROBES, level=level)
    assert band.dof == float(fit.basis.n_basis)
    q = student_t.ppf(0.95, band.dof)
    half = q * np.sqrt(band.scale_t**2 + band.sigma_s**2)
    np.testing.assert_allclose(band.upper - band.mean, half, rtol=1e-12)
    np.testing.assert_allclose(band.mean - band.lower, half, rtol=1e-12)


def test_levels_are_nested(fit):
    b50 = credible_band(fit, PROBES, level=0.5)
    b95 = credible_band(fit, PROBES, level=0.95)
    assert np.all(b95.lower < b50.lower)
    assert np.all(b95.upper > b50.upper)


def test_sigma_s_matches_the_three_operand_form(fit):
    band = credible_band(fit, PROBES)
    E = evaluation_matrix(fit.basis, PROBES)
    oracle = np.sqrt(np.einsum("pi,ij,pj->p", E, fit.posterior.Sigma_hat, E))
    np.testing.assert_allclose(band.sigma_s, oracle, rtol=1e-10)


def test_probe_at_datapoint_drops_t_component(fit):
    band = credible_band(fit, fit.X[4:5])
    assert band.scale_t[0] == 0.0
    # sigma_s persists: the coordinates' spread still moves the value at the point.
    assert band.sigma_f[0] == pytest.approx(band.sigma_s[0])


def test_probe_numerically_at_datapoint_snaps_to_limit(fit):
    # Close enough to a datapoint that the power function sits at its
    # rounding floor: the t component takes its coincident limit, exactly 0.
    probe = fit.X[4:5] + 1e-9
    band = credible_band(fit, probe)
    assert band.scale_t[0] == 0.0
    assert np.isfinite(band.mean[0])


def test_low_dof_has_scale_but_no_sd():
    # N = 4, eta = 1.5 in 1-D gives Nh = 2 basis directions: the t component
    # has dof 2, so its sd is NaN while the interval is still finite. At a
    # datapoint the t part is a point mass, whose sd is 0.
    X = np.array([[0.0], [0.3], [0.7], [1.0]])
    y = np.array([0.1, 0.8, -0.4, 0.5])
    fit = fit_regression(X, y, 1.5, noise=0.1, config=QUICK)
    assert fit.regime == Regime.NORMAL
    band = credible_band(fit, np.array([[0.5], [0.3]]))
    assert band.dof == 2.0
    assert math.isnan(band.sigma_t[0])
    assert math.isnan(band.sigma_f[0])
    assert band.scale_t[0] > 0
    assert math.isfinite(band.lower[0]) and math.isfinite(band.upper[0])
    assert band.lower[0] < band.mean[0] < band.upper[0]
    assert band.sigma_t[1] == 0.0 and band.sigma_f[1] == band.sigma_s[1]


def test_sigma_y_defaults_to_posterior_noise():
    # An unknown-noise fit's observation band adds its posterior median of sigma_y.
    fit = fit_dataset(higdon(25, 0.08, seed=3), 1.5, noise="unknown", config=QUICK)
    assert fit.regime == Regime.NORMAL
    assert fit.sigma_y == fit.posterior.sigma_y_median > 0.0
    band = credible_band(fit, PROBES)
    np.testing.assert_allclose(band.sigma_d**2, band.sigma_f**2 + fit.sigma_y**2, rtol=1e-12)


def _column_gap(a, b) -> float:
    """Largest difference relative to the column's largest magnitude."""
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def test_every_regime_bands_through_credible_band(fit):
    # Pole fits take the same path as normal ones; their bands equal the
    # closed forms: the interpolation posterior, and the least-squares
    # posterior of the polynomial coefficients.
    X, y = fit.X, fit.y
    probes = np.vstack([PROBES, X[4:5]])
    np.testing.assert_array_equal(fit.predict(probes).upper, credible_band(fit, probes).upper)

    exact = fit_regression(X, y, 1.5, noise=0.0)
    assert exact.regime == Regime.INTERPOLATION_POLE
    band = credible_band(exact, probes)
    mean, scale, sd, _ = solve_interpolation(X, y, 1.5).posterior(probes)
    for got, want in [(band.mean, mean), (band.scale_t, scale), (band.sigma_t, sd)]:
        assert _column_gap(got, want) < 1e-10
    assert np.all(band.sigma_s == 0.0) and band.scale_t[-1] == 0.0

    for noise in (0.1, "unknown"):
        line = 1.0 + 2.0 * X[:, 0]
        poly = fit_regression(X, line, 1.5, noise=noise)
        assert poly.regime == Regime.NULLSPACE_POLE
        band = credible_band(poly, probes)
        M, m = monomial_matrix(X, 1.5), monomial_matrix(probes, 1.5)
        if noise == "unknown":  # exactly polynomial data: the residual estimate is rounding noise
            assert poly.sigma_y < 1e-12
        s2 = 0.1**2 if noise == 0.1 else poly.sigma_y**2
        var = np.einsum("vp,vw,wp->p", m, np.linalg.inv(M @ M.T), m) * s2
        assert _column_gap(band.mean, 1.0 + 2.0 * probes[:, 0]) < 1e-12
        assert _column_gap(band.sigma_s, np.sqrt(var)) < 1e-10
        assert np.all(band.scale_t == 0.0) and np.all(band.sigma_t == 0.0)
        assert band.dof == (math.inf if noise == 0.1 else 10.0)


def test_band_halfwidth_validates_level():
    for level in (1.5, 0.0, 1.0, math.nan):
        with pytest.raises(ValidationError, match=r"level must be in \(0, 1\)"):
            band_halfwidth(level, 4.0, np.ones(3))
    np.testing.assert_allclose(
        band_halfwidth(0.95, 10.0, np.array([2.0])),
        student_t.ppf(0.975, 10.0) * 2.0,
        rtol=1e-12,
    )


@pytest.mark.parametrize("dof", [1.0, 2.0, 3.0, 98.0, 398.0, math.inf])
def test_t_quantile_is_scipy_stats_bit_for_bit(dof):
    # band_halfwidth reads the quantile from scipy.special.stdtrit, which
    # scipy.stats.t.ppf wraps, to keep scipy.stats off the CLI's import path.
    for level in (0.5, 0.9, 0.95, 0.99):
        got = band_halfwidth(level, dof, np.array([1.0]))
        want = np.array([student_t.ppf(0.5 + level / 2.0, dof)])
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def count_kernel_work(monkeypatch, border: bool = False) -> Counter:
    """Count kernel systems assembled (_Geometry), saddle factorizations and, optionally, borders."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(_Geometry, "__init__", counted("_Geometry", _Geometry.__init__))
    monkeypatch.setattr(SymmetricFactor, "__init__", counted("SymmetricFactor", SymmetricFactor.__init__))
    if border:
        monkeypatch.setattr(_Geometry, "border", counted("border", _Geometry.border))
    return counts


@pytest.mark.parametrize("n_probes", [5, 50])
def test_one_saddle_solve_per_probe_set(fit, monkeypatch, tmp_path, n_probes):
    # Each command assembles the kernel system of its point set once: one
    # _Geometry, which maps the points, checks them for duplicates and builds
    # G. A regression fit factors no
    # saddle (the LU of E* gives its interpolant); predict and interpolate
    # factor it once, which serves every probe and path however many there are.
    X, y, eta = fit.X, fit.y, 1.5
    counts = count_kernel_work(monkeypatch)
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
        saddles = {"SymmetricFactor": 1} if command != "fit" else {}
        assert counts == {"_Geometry": 1, **saddles}, command
        if command == "fit":
            assert json.loads(model.read_text())["regime"] == "normal"

    # In one process a fit and its bands factor one saddle: the bands' for a
    # regression fit, the interpolant's, which the bands reuse, at noise 0.
    probes = np.linspace(0.01, 0.99, n_probes)[:, None]
    for noise in (0.1, 0.0):
        counts.clear()
        config = SamplerConfig(samples_per_chain=300, burn_in=150)
        fitted = fit_regression(X, y, eta, noise=noise, config=config)
        assert fitted.regime == (Regime.NORMAL if noise else Regime.INTERPOLATION_POLE)
        fitted.predict(probes)
        assert counts == {"_Geometry": 1, "SymmetricFactor": 1}, noise


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


@pytest.mark.parametrize(
    "noise, polynomial, regime",
    [
        (0.1, False, Regime.NORMAL),
        (0.0, False, Regime.INTERPOLATION_POLE),
        ("unknown", False, Regime.INTERPOLATION_POLE),  # chosen by the profile
        (0.1, True, Regime.NULLSPACE_POLE),
        ("unknown", True, Regime.NULLSPACE_POLE),
    ],
)
def test_every_regime_assembles_its_geometry_once(monkeypatch, tmp_path, noise, polynomial, regime):
    # Fresh or loaded, in every regime, a fit and its band assemble one
    # kernel system and factor the saddle at most once; a
    # nullspace-pole band has no t part, so it solves no border.
    X, y = random_dataset(12, 1, seed=7)
    if polynomial:
        y = 1.0 + 2.0 * X[:, 0]
    counts = count_kernel_work(monkeypatch, border=True)
    fitted = fit_regression(X, y, 1.5, noise=noise, config=QUICK)
    assert fitted.regime == regime
    save_archive(fitted, str(tmp_path / "m.json"))
    for stage in ("fresh", "loaded"):
        if stage == "loaded":
            counts.clear()
            fitted = load_archive(str(tmp_path / "m.json"))
        fitted.predict(PROBES)
        fitted.predict_mean(PROBES)
        assert counts["_Geometry"] == 1, stage
        assert counts["SymmetricFactor"] <= 1, stage
        assert counts["border"] == (0 if regime == Regime.NULLSPACE_POLE else 1), stage


def test_crossval_folds_solve_no_border(monkeypatch):
    # Held-out predictions are the mean E h alone: no band, no border solve.
    counts = count_kernel_work(monkeypatch, border=True)
    for noise in (0.08, 0.0):
        crossval(higdon(15, 0.08, seed=1), 1.5, noise=noise, k=3)
    assert counts["border"] == 0
    assert counts["_Geometry"] == 6
