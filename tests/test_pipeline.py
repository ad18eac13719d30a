"""End-to-end fits, regime routing, archives, cross-validation."""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sipr.data import Dataset, higdon, higdon_truth, kfold, load_csv, rmse
from sipr.errors import ArchiveVersionError, IOError_, KTooLarge, NumericalError, TooFewPoints, ValidationError
from sipr.interpolate import solve_interpolation
from sipr.pipeline import (
    crossval,
    fit_dataset,
    fit_regression,
    load_archive,
    save_archive,
)
from sipr.sampler import Regime, SamplerConfig

QUICK = SamplerConfig(chains=2, samples_per_chain=400, burn_in=150, seed=2)

# Finite values at the edges of binary64 and of the 17-digit text; about half
# of a real basis_H is exact zeros.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 2.0**53 + 2, 0.1]


def save_with_basis(fit, H, path) -> None:
    """Archive fit with its basis columns replaced by H (its fitted values, read through H, may overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        save_archive(dataclasses.replace(fit, basis=dataclasses.replace(fit.basis, H=H)), str(path))


def archive_data(data: str) -> Dataset:
    """The data of an archive case: Higdon N = 20 or N = 25, or nine points of a line."""
    if data == "polynomial":
        X = np.linspace(0.0, 10.0, 9)[:, None]
        return Dataset(X=X, y=0.5 - 0.3 * X[:, 0], feature_names=("x",), target_name="y")
    return higdon(20, 0.08, seed=1) if data == "higdon" else higdon(25, 0.08, seed=3)


@pytest.fixture(scope="module")
def higdon_ds():
    return higdon(25, 0.08, seed=3)


@pytest.fixture(scope="module")
def normal_fit(higdon_ds):
    return fit_dataset(higdon_ds, 1.5, noise=0.08, config=QUICK)


class TestRegimes:
    def test_known_noise_normal(self, higdon_ds, normal_fit):
        fit = normal_fit
        assert fit.regime == Regime.NORMAL
        assert fit.noise_known and fit.sigma_y == 0.08
        err = rmse(fit.predict_mean(higdon_ds.X), higdon_truth(higdon_ds.X[:, 0]))
        assert err < 0.1
        evidence = fit.diagnostics_summary  # the profile that chose the regime
        assert evidence["scale"] == "log_tau" and evidence["nodes"] > 0
        assert evidence["gap_nullspace_pole"] > 40.0 and evidence["gap_interpolation_pole"] is None

    def test_unknown_noise_estimates_sigma(self, higdon_ds):
        fit = fit_dataset(higdon_ds, 1.5, noise="unknown", config=QUICK)
        assert not fit.noise_known
        assert fit.regime == Regime.NORMAL
        assert 0.03 < fit.sigma_y < 0.3

    def test_polynomial_data_short_circuits_to_nullspace_pole(self):
        X = np.linspace(0.0, 1.0, 9)[:, None]
        y = 1.0 + 2.0 * X[:, 0]
        fit = fit_regression(X, y, 1.5, noise=0.05, config=QUICK)
        assert fit.regime == Regime.NULLSPACE_POLE
        np.testing.assert_allclose(fit.mean_c, [1.0, 2.0], atol=1e-8)
        assert np.array_equal(fit.mean_a, np.zeros(9))
        # The polynomial extrapolates globally.
        assert fit.predict_mean(np.array([[10.0]]))[0] == pytest.approx(21.0, abs=1e-6)
        assert fit.posterior is None  # no sampling happened

    def test_exact_data_is_interpolation_pole(self):
        X = np.linspace(0.0, 1.0, 8)[:, None]
        y = np.sin(3.0 * X[:, 0])
        fit = fit_regression(X, y, 1.5, noise=0.0)
        assert fit.regime == Regime.INTERPOLATION_POLE
        assert fit.sigma_y == 0.0
        np.testing.assert_allclose(fit.predict_mean(X), y, atol=1e-8)
        band = fit.predict(X)
        np.testing.assert_allclose(band.lower, y, atol=1e-8)
        np.testing.assert_allclose(band.upper, y, atol=1e-8)
        # Between datapoints the band opens up.
        mid = fit.predict(np.array([[0.07]]))
        assert mid.upper[0] - mid.lower[0] > 1e-3

    def test_unknown_noise_interpolation_pole_is_the_interpolant(self):
        # With unknown noise the pole's interpolant comes from the basis
        # coordinates y = E* h_mu, not from a saddle solve: the same function.
        X = np.linspace(0.0, 1.0, 12)[:, None]
        y = np.sin(3.0 * X[:, 0])
        fit = fit_regression(X, y, 1.5, noise="unknown", config=QUICK)
        assert fit.regime == Regime.INTERPOLATION_POLE and fit.sigma_y == 0.0
        model = solve_interpolation(X, y, 1.5)
        np.testing.assert_allclose(fit.mean_a, model.a, rtol=0, atol=1e-8 * np.abs(model.a).max())
        np.testing.assert_allclose(fit.mean_c, model.c, rtol=0, atol=1e-8 * np.abs(model.c).max())
        probes = np.linspace(-0.2, 1.2, 15)[:, None]
        band, (mean, scale, *_) = fit.predict(probes), model.posterior(probes)
        assert np.abs(band.mean - mean).max() <= 1e-10 * np.abs(mean).max()
        assert np.abs(band.scale_t - scale).max() <= 1e-8 * scale.max()

    def test_noise_validation(self):
        X = np.linspace(0.0, 1.0, 6)[:, None]
        y = np.sin(X[:, 0])
        with pytest.raises(ValidationError):
            fit_regression(X, y, 1.5, noise="guess")
        with pytest.raises(ValidationError):
            fit_regression(X, y, 1.5, noise=-0.1)

    def test_unknown_noise_needs_three_kernel_coordinates(self):
        # 4 points at eta = 1.5 leave N - N0 = 2: the noise posterior's
        # variance needs at least 3.
        X = np.linspace(0.0, 1.0, 4)[:, None]
        with pytest.raises(TooFewPoints, match=r"needs N - N0 >= 3"):
            fit_regression(X, np.sin(6.0 * X[:, 0]), 1.5, noise="unknown")

    @pytest.mark.parametrize("noise", ["unknown", 0.1, 0.0])
    def test_constant_target_is_polynomial_data(self, noise):
        # A constant lies in every nullspace, so this short-circuits to the
        # nullspace pole instead of trying to initialize a noise scale.
        X = np.linspace(0.0, 1.0, 6)[:, None]
        fit = fit_regression(X, np.full(6, 3.25), 1.5, noise=noise)
        assert fit.regime == Regime.NULLSPACE_POLE
        np.testing.assert_allclose(fit.mean_c, [3.25, 0.0], atol=1e-9)
        assert fit.posterior is None

    def test_profile_chosen_nullspace_pole_keeps_its_posterior(self, tmp_path):
        # Nearly polynomial data: the interpolant's norm passes the polynomial
        # test, so the exact posterior is computed and its profile picks the
        # pole. The fit keeps that posterior and the evidence that chose it.
        X = np.linspace(0.0, 1.0, 12)[:, None]
        y = 1.0 + 2.0 * X[:, 0] + 0.01 * np.sin(7.0 * X[:, 0])
        fit = fit_regression(X, y, 1.5, noise=1.0, config=QUICK)
        assert fit.regime == Regime.NULLSPACE_POLE and fit.sigma_y == 1.0
        assert fit.posterior is not None and fit.posterior.regime == Regime.NULLSPACE_POLE
        assert fit.diagnostics_summary is fit.posterior.evidence
        ranked = sorted(((m, r) for r, m in fit.diagnostics_summary["log_mass"].items() if m is not None),
                        reverse=True)
        assert ranked[0][1] == Regime.NULLSPACE_POLE.value
        path = tmp_path / "pole.json"
        save_archive(fit, str(path))
        assert load_archive(str(path)).diagnostics_summary == fit.diagnostics_summary


class TestFitIsScaledInternally:
    def test_matches_direct_solve_in_scaled_coordinates(self):
        # noise = 0 routes around the sampler, so the whole pipeline is
        # deterministic: predictions must equal interpolation on the scaled
        # copy of the data, probed at scaled locations.
        ds = higdon(12, 0.05, seed=6)
        fit = fit_dataset(ds, 1.5, noise=0.0)
        probes = np.array([[1.7], [4.2], [8.9]])
        scaled_X = (ds.X - ds.X.min()) / (ds.X.max() - ds.X.min())
        scaled_p = (probes - ds.X.min()) / (ds.X.max() - ds.X.min())
        direct = solve_interpolation(scaled_X, ds.y, 1.5).evaluate(scaled_p)
        np.testing.assert_allclose(fit.predict_mean(probes), direct, rtol=1e-9, atol=1e-11)

    def test_probe_dimension_checked(self, normal_fit):
        with pytest.raises(ValidationError, match="features"):
            normal_fit.predict(np.zeros((2, 3)))

    def test_fitted_tracks_training_points(self, higdon_ds, normal_fit):
        fitted = normal_fit.fitted
        assert fitted.shape == (higdon_ds.n,)
        assert rmse(fitted, higdon_ds.y) < 0.15


class TestArchives:
    @pytest.mark.parametrize(
        "data, noise, regime",
        [
            pytest.param("higdon", 0.08, Regime.NORMAL, id="0.08"),
            pytest.param("higdon-25", "unknown", Regime.NORMAL, id="unknown-normal"),
            pytest.param("higdon", 0.0, Regime.INTERPOLATION_POLE, id="0.0"),
            pytest.param("higdon", "unknown", Regime.INTERPOLATION_POLE, id="unknown"),  # chosen by the profile
            pytest.param("polynomial", 0.08, Regime.NULLSPACE_POLE, id="polynomial-0.08"),
            pytest.param("polynomial", "unknown", Regime.NULLSPACE_POLE, id="polynomial"),
        ],
    )
    def test_roundtrip_preserves_predictions(self, tmp_path, data, noise, regime):
        # Every regime archives its own map, and the loader reads it back as
        # it is: the same H, h, Sigma and dof, so the same bands.
        fit = fit_dataset(archive_data(data), 1.5, noise=noise, config=QUICK)
        assert fit.regime == regime
        path = tmp_path / "model.json"
        save_archive(fit, str(path))
        loaded = load_archive(str(path))
        assert loaded.regime == fit.regime
        assert loaded.eta.value == fit.eta.value
        assert loaded.feature_names == fit.feature_names
        # -0.0 in basis_H reads back as 0.0 (its text is 0); h and Sigma keep every bit
        assert loaded.basis.H.shape == fit.basis.H.shape and np.array_equal(loaded.basis.H, fit.basis.H)
        assert loaded.h.shape == fit.h.shape and loaded.h.tobytes() == fit.h.tobytes()
        assert loaded.Sigma.shape == fit.Sigma.shape and loaded.Sigma.tobytes() == fit.Sigma.tobytes()
        assert loaded.dof == fit.dof
        assert fit.dof == (math.inf if regime == Regime.NULLSPACE_POLE and noise == 0.08 else fit.n_points - 2)
        probes = np.linspace(-2.0, 12.0, 13)[:, None]
        b1 = fit.predict(probes)
        b2 = loaded.predict(probes)
        np.testing.assert_array_equal(b2.mean, b1.mean)
        np.testing.assert_array_equal(b2.lower, b1.lower)
        np.testing.assert_array_equal(b2.sigma_d, b1.sigma_d)
        np.testing.assert_array_equal(loaded.fitted, fit.fitted)

    @pytest.mark.parametrize("entry", ["fit_dataset", "fit_regression"])
    @pytest.mark.parametrize(
        "data, noise, regime",
        [
            pytest.param("higdon-25", "unknown", Regime.NORMAL, id="normal-unknown"),
            pytest.param("higdon-25", 0.1, Regime.NORMAL, id="normal-0.1"),
            pytest.param("higdon", "unknown", Regime.INTERPOLATION_POLE, id="interpolation-unknown"),
            pytest.param("higdon", 0.0, Regime.INTERPOLATION_POLE, id="interpolation-0"),
            pytest.param("polynomial", "unknown", Regime.NULLSPACE_POLE, id="nullspace-unknown"),
            pytest.param("polynomial", 0.1, Regime.NULLSPACE_POLE, id="nullspace-0.1"),
            pytest.param("polynomial", 0.0, Regime.NULLSPACE_POLE, id="nullspace-0"),
        ],
    )
    def test_reloaded_fit_saves_back_byte_for_byte(self, tmp_path, entry, data, noise, regime):
        # A loaded fit holds the whole record, sigma_y's report, the draw
        # plan and the names included, so it writes the archive it came from.
        ds = archive_data(data)
        if entry == "fit_dataset":
            fit = fit_dataset(ds, 1.5, noise=noise, config=QUICK)
        else:  # raw inputs away from the unit box, with the default draw plan
            fit = fit_regression(ds.X + 1e3, ds.y, 1.5, noise=noise)
        assert fit.regime == regime
        p, q = tmp_path / "p.json", tmp_path / "q.json"
        save_archive(fit, str(p))
        loaded = load_archive(str(p))
        save_archive(loaded, str(q))
        assert q.read_bytes() == p.read_bytes()
        assert loaded.sigma_y_quantiles == fit.sigma_y_quantiles
        assert (fit.sigma_y_quantiles is None) == (noise != "unknown" or regime == Regime.NULLSPACE_POLE)
        assert loaded.config == fit.config
        assert loaded.feature_names == fit.feature_names

    def test_archive_is_plain_json(self, tmp_path, normal_fit):
        path = tmp_path / "model.json"
        save_archive(normal_fit, str(path))
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 4
        assert doc["regime"] == "normal"
        assert doc["eta"] == 1.5
        assert doc["sigma_y"]["mode"] == "known"

    def test_sigma_hat_is_one_exact_block(self, tmp_path, normal_fit):
        # Sigma_hat is stored as its raw float64 bytes and comes back
        # bit-identical; the other arrays stay JSON number lists.
        path = tmp_path / "model.json"
        save_archive(normal_fit, str(path))
        doc = json.loads(path.read_text())
        n = normal_fit.n_points
        assert doc["Sigma_hat"]["shape"] == [n, n]
        assert isinstance(doc["Sigma_hat"]["f8le_base64"], str)
        assert isinstance(doc["X"][0][0], float) and isinstance(doc["basis_H"][0][0], float)
        loaded = load_archive(str(path))
        np.testing.assert_array_equal(loaded.Sigma, normal_fit.posterior.Sigma_hat)

    def test_archive_entries_are_their_json_dumps_text(self, tmp_path, normal_fit):
        # Every entry but basis_H, the Sigma_hat block included, is written as
        # the exact text json.dumps gives it.
        path = tmp_path / "model.json"
        save_archive(normal_fit, str(path))
        text = path.read_text()
        for key, value in json.loads(text).items():
            if key != "basis_H":
                assert f"{json.dumps(key)}: {json.dumps(value)}" in text, key

    def test_archive_is_compact_and_parses_like_the_indented_form(self, tmp_path, normal_fit):
        path = tmp_path / "model.json"
        save_archive(normal_fit, str(path))
        text = path.read_text()
        assert "\n" not in text.rstrip("\n")
        doc = json.loads(text)
        assert json.loads(json.dumps(doc, indent=1)) == doc
        # the map, the posterior summary and the --trace draw plan; nothing no reader uses
        assert list(doc) == ["format_version", "package_version", "eta", "regime", "feature_names", "target_name",
                             "scaling", "X", "y", "basis_H", "h_hat", "Sigma_hat", "sigma_y", "config", "diagnostics"]
        assert list(doc["config"]) == ["chains", "samples_per_chain", "burn_in", "seed"]

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_basis_h_comes_back_exactly(self, tmp_path_factory, normal_fit, data):
        H = data.draw(arrays(np.float64, normal_fit.basis.H.shape,
                             elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES)))
        path = tmp_path_factory.mktemp("archive") / "model.json"
        save_with_basis(normal_fit, H, path)
        assert np.array_equal(load_archive(str(path)).basis.H, H)

    def test_basis_h_of_several_text_blocks_comes_back_exactly(self, tmp_path):
        # 80 x 78 values fill two of _float_text's blocks, so the archive's
        # rows are joined across a block boundary as well as inside blocks.
        fit = fit_dataset(higdon(80, 0.1, seed=0), 1.5, noise=0.1, config=QUICK)
        assert fit.regime == Regime.NORMAL and fit.basis.H.shape == (80, 78)
        path = tmp_path / "model.json"
        save_archive(fit, str(path))
        bits = fit.basis.H.view(np.int64)
        assert np.array_equal(np.array(json.loads(path.read_text())["basis_H"], dtype=float).view(np.int64), bits)
        assert np.array_equal(load_archive(str(path)).basis.H.view(np.int64), bits)

    def test_exact_zeros_in_basis_h_are_json_integers(self, tmp_path, normal_fit):
        H = normal_fit.basis.H.copy()
        H[0, :2] = [0.0, -0.0]
        path = tmp_path / "model.json"
        save_with_basis(normal_fit, H, path)
        row = json.loads(path.read_text())["basis_H"][0]
        assert row[:2] == [0, 0] and all(isinstance(v, int) for v in row[:2])
        assert isinstance(row[2], float)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_basis_h_is_refused_before_writing(self, tmp_path, normal_fit, bad, monkeypatch):
        # %.17g would write nan or inf, which json.load cannot read back. The
        # archive is streamed to a temp file, so the check runs before one is
        # made: an archive already at the path is left as it was.
        H = normal_fit.basis.H.copy()
        H[1, 2] = bad
        path = tmp_path / "model.json"
        with pytest.raises(NumericalError, match="non-finite"):
            save_with_basis(normal_fit, H, path)
        assert not path.exists()
        save_archive(normal_fit, str(path))
        before = path.read_bytes()

        def no_temp_file(*args, **kwargs):
            raise AssertionError("a temp file was made before basis_H was checked")

        monkeypatch.setattr(tempfile, "mkstemp", no_temp_file)
        with pytest.raises(NumericalError, match="non-finite"):
            save_with_basis(normal_fit, H, path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob(".tmp-*"))

    def test_indented_archive_still_loads(self, tmp_path, normal_fit):
        path = tmp_path / "model.json"
        save_archive(normal_fit, str(path))
        path.write_text(json.dumps(json.loads(path.read_text()), indent=1) + "\n")
        loaded = load_archive(str(path))
        probes = np.linspace(-2.0, 12.0, 13)[:, None]
        np.testing.assert_array_equal(loaded.predict(probes).mean, normal_fit.predict(probes).mean)
        assert loaded.diagnostics_summary == json.loads(json.dumps(normal_fit.diagnostics_summary))

    def test_version_mismatch_rejected(self, tmp_path, normal_fit):
        path = tmp_path / "model.json"
        save_archive(normal_fit, str(path))
        doc = json.loads(path.read_text())
        doc["format_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ArchiveVersionError, match="999"):
            load_archive(str(path))

    @pytest.mark.parametrize("key", ["basis_H", "h_hat", "Sigma_hat"])
    @pytest.mark.parametrize("polynomial", [False, True], ids=["interpolation_pole", "nullspace_pole"])
    def test_pole_archive_with_a_wrong_map_shape_is_rejected(self, tmp_path, key, polynomial):
        # A pole stores its map as a normal fit does, with one kernel column
        # (the interpolation pole) or none (the nullspace pole); every shape
        # is checked against the archived points and the regime.
        X = np.linspace(0.0, 1.0, 8)[:, None]
        y = 1.0 + 2.0 * X[:, 0] if polynomial else np.sin(3.0 * X[:, 0])
        path = tmp_path / "model.json"
        save_archive(fit_regression(X, y, 1.5, noise=0.0), str(path))
        doc = json.loads(path.read_text())
        if key == "basis_H":
            doc[key] = [row + [0.5] for row in doc[key]]  # one kernel column too many
        elif key == "h_hat":
            doc[key] = doc[key][:-1]
        else:
            n = doc[key]["shape"][0] + 1
            doc[key] = {"shape": [n, n], "f8le_base64": base64.b64encode(bytes(8 * n * n)).decode()}
        path.write_text(json.dumps(doc))
        with pytest.raises(ArchiveVersionError, match="not a model archive"):
            load_archive(str(path))

    def test_non_archive_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ArchiveVersionError):
            load_archive(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IOError_):
            load_archive(str(tmp_path / "absent.json"))


class TestCrossval:
    def test_matches_manual_folds_exactly(self):
        # noise = 0 makes every fold deterministic, so the harness can be
        # checked against running the folds by hand.
        ds = higdon(15, 0.05, seed=1)
        k, seed = 5, 0
        result = crossval(ds, 1.5, noise=0.0, k=k, seed=seed)
        assert len(result.folds) == k
        sq_errors = []
        for i, (train, test) in enumerate(kfold(ds.n, k, seed=seed)):
            sub = Dataset(
                X=ds.X[train], y=ds.y[train], feature_names=ds.feature_names, target_name=ds.target_name
            )
            fit = fit_dataset(sub, 1.5, noise=0.0)
            pred = fit.predict_mean(ds.X[test])
            fold = result.folds[i]
            assert fold.fold == i
            assert fold.n_test == test.size
            assert fold.regime == "interpolation_pole"
            assert fold.rmse == pytest.approx(rmse(pred, ds.y[test]), rel=1e-12)
            sq_errors.extend((pred - ds.y[test]) ** 2)
        assert result.pooled_rmse == pytest.approx(float(np.sqrt(np.mean(sq_errors))), rel=1e-12)

    def test_leave_one_out(self):
        ds = higdon(5, 0.1, seed=4)
        result = crossval(ds, 0.5, noise=0.0, k=5, seed=0)
        assert len(result.folds) == 5
        assert all(f.n_test == 1 for f in result.folds)
        assert result.pooled_rmse > 0

    def test_too_many_folds(self):
        ds = higdon(4, 0.1)
        with pytest.raises(KTooLarge):
            crossval(ds, 0.5, noise=0.0, k=5)

    def test_negative_seed_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            crossval(higdon(12, 0.05, seed=1), 1.5, noise=0.05, k=3, seed=-1)


def test_load_csv_feeds_fit(tmp_path):
    # The CSV loader and the fitting protocol agree on feature ordering.
    p = tmp_path / "d.csv"
    lines = ["x,y"] + [f"{float(v)!r},{float(np.sin(v))!r}" for v in np.linspace(0.0, 3.0, 10)]
    p.write_text("\n".join(lines) + "\n")
    ds = load_csv(str(p), target="y")
    fit = fit_dataset(ds, 1.5, noise=0.0)
    np.testing.assert_allclose(fit.predict_mean(ds.X), ds.y, atol=1e-8)
