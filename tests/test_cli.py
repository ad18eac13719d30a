"""Command-line interface: subcommands, file formats, exit codes."""

from __future__ import annotations

import base64
import json
import math
import shutil
import subprocess

import numpy as np
import pytest

from sipr import __version__
from sipr.basis import build_orthonormal_basis
from sipr.cli import main
from sipr.data import higdon
from sipr.errors import ArchiveVersionError, DuplicatePoints
from sipr.interpolate import solve_interpolation
from sipr.pipeline import fit_regression, load_archive
from tests.conftest import write_csv

def write_higdon(path, n=20, sigma=0.05, seed=1):
    ds = higdon(n, sigma, seed=seed)
    lines = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(ds.X[:, 0], ds.y)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_line(path, x):
    """Exactly linear data y = 1 + 2x."""
    path.write_text("x,y\n" + "\n".join(f"{v!r},{1 + 2 * v!r}" for v in map(float, x)) + "\n")


def read_output(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("# sipr ")
    header = lines[1].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    return lines[0], header, data


class TestInterpolate:
    def test_two_point_example(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("x,y\n0,0\n1,1\n")
        out = tmp_path / "o.csv"
        code = main(
            ["interpolate", "--data", str(data), "--target", "y", "--eta", "0.5",
             "--grid", "0:1:3", "--out", str(out)]
        )
        assert code == 0
        comment, header, rows = read_output(out)
        assert comment == f"# sipr {__version__} seed=0 eta=0.5"
        assert header == ["x", "mean", "scale", "sd"]
        # Linear data: the mean halves the gap; the midpoint t-scale is 1/2.
        np.testing.assert_allclose(rows[1, :3], [0.5, 0.5, 0.5], atol=1e-12)
        # dof = 1 here, so no sd exists.
        assert np.isnan(rows[1, 3])

    def test_probe_at_datapoint_is_point_mass(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("x,y\n0,0.3\n0.5,-1\n1,1\n")
        out = tmp_path / "o.csv"
        code = main(
            ["interpolate", "--data", str(data), "--target", "y", "--eta", "1.5",
             "--grid", "0:1:3", "--out", str(out)]
        )
        assert code == 0
        _, _, rows = read_output(out)
        np.testing.assert_allclose(rows[1], [0.5, -1.0, 0.0, 0.0], atol=1e-12)

    def test_sample_paths_deterministic_per_seed(self, tmp_path):
        data = tmp_path / "d.csv"
        write_higdon(data, n=10)
        args = ["interpolate", "--data", str(data), "--target", "y", "--eta", "1.5",
                "--grid", "0:10:21", "--paths", "3"]
        out1, out2, out3 = (tmp_path / f"o{i}.csv" for i in range(3))
        assert main(args + ["--seed", "5", "--out", str(out1)]) == 0
        assert main(args + ["--seed", "5", "--out", str(out2)]) == 0
        assert main(args + ["--seed", "6", "--out", str(out3)]) == 0
        assert out1.read_text() == out2.read_text()
        assert out1.read_text() != out3.read_text()
        _, header, rows = read_output(out1)
        assert header[-3:] == ["path_0", "path_1", "path_2"]
        assert rows.shape == (21, 7)

    def test_probes_file_with_extra_columns(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("a,b,y\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n0.5,0.2,2\n")
        probes = tmp_path / "p.csv"
        # Columns out of training order plus an ignored extra one.
        probes.write_text("junk,b,a\n9,0.5,0.5\n9,0.1,0.9\n")
        out = tmp_path / "o.csv"
        code = main(
            ["interpolate", "--data", str(data), "--target", "y", "--eta", "1.5",
             "--probes", str(probes), "--out", str(out)]
        )
        assert code == 0
        _, header, rows = read_output(out)
        assert header[:2] == ["a", "b"]
        np.testing.assert_allclose(rows[:, :2], [[0.5, 0.5], [0.9, 0.1]])

    def test_probes_file_missing_feature(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b,y\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n")
        probes = tmp_path / "p.csv"
        probes.write_text("a\n0.5\n")
        code = main(
            ["interpolate", "--data", str(data), "--target", "y", "--eta", "1.5",
             "--probes", str(probes), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2
        assert "missing feature column(s): b" in capsys.readouterr().err


class TestFitAndPredict:
    def test_fit_predict_roundtrip(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_higdon(data)
        model = tmp_path / "model.json"
        code = main(
            ["fit", "--data", str(data), "--target", "y", "--eta", "1.5",
             "--noise", "0.05", "--samples", "400", "--burn", "150", "--seed", "2",
             "--model-out", str(model)]
        )
        assert code == 0
        msg = capsys.readouterr().out
        assert "regime: normal" in msg
        assert "sigma_y (known): 0.05" in msg
        assert "posterior: 128 nodes in log_tau, peak at " in msg and "gap to nullspace plateau " in msg
        doc = json.loads(model.read_text())
        assert doc["format_version"] == 4

        # Predictions at the training inputs (original units; the archive
        # stores the scaled copy) reproduce the archived fit's fitted values.
        out = tmp_path / "pred.csv"
        probes = tmp_path / "probes.csv"
        mins, ranges = doc["scaling"]["mins"][0], doc["scaling"]["ranges"][0]
        xs = [mins + ranges * row[0] for row in doc["X"]]
        probes.write_text("x\n" + "\n".join(repr(float(v)) for v in xs) + "\n")
        assert main(["predict", "--model", str(model), "--probes", str(probes), "--out", str(out)]) == 0
        _, header, rows = read_output(out)
        assert header == ["x", "mean", "sigma_s", "sigma_t", "sigma_f", "sigma_d", "lower", "upper"]
        np.testing.assert_allclose(rows[:, 1], load_archive(str(model)).fitted, atol=1e-10)
        # Interval geometry survives the file round trip.
        np.testing.assert_allclose(rows[:, 4], np.hypot(rows[:, 3], rows[:, 2]), rtol=1e-12)
        assert np.all(rows[:, 6] < rows[:, 1]) and np.all(rows[:, 1] < rows[:, 7])

    @pytest.mark.parametrize("noise", ["unknown", "0.05"])
    def test_fit_prints_the_regime_margin(self, tmp_path, capsys, noise):
        # Every regime's log-mass is archived (null without mass); fit prints
        # the chosen regime's lead over the runner-up.
        data = tmp_path / "d.csv"
        write_higdon(data, n=30, sigma=0.2, seed=4)
        model = tmp_path / "m.json"
        assert main(["fit", "--data", str(data), "--target", "y", "--eta", "1.5", "--noise", noise,
                     "--model-out", str(model)]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("regime margin: "))
        doc = json.loads(model.read_text())
        masses = doc["diagnostics"]["log_mass"]
        assert set(masses) == {"normal", "nullspace_pole", "interpolation_pole"}
        assert (masses["interpolation_pole"] is None) == (noise != "unknown")
        others = {r: m for r, m in masses.items() if r != doc["regime"] and m is not None}
        runner_up = max(others, key=others.get)
        margin, name = line.removeprefix("regime margin: ").split(" nats over ")
        assert name == runner_up
        assert float(margin) >= 0.0
        assert float(margin) == pytest.approx(masses[doc["regime"]] - others[runner_up], rel=1e-3)

    def test_fit_on_a_lone_pole_says_no_other_regime_has_mass(self, tmp_path, capsys):
        # Noise far above the signal: the profile has no interior peak and,
        # with known noise, no interpolation pole, so only the nullspace pole
        # has mass.
        data = tmp_path / "d.csv"
        x = np.linspace(0.0, 1.0, 12)
        write_csv(data, x[:, None], np.sin(6.0 * x), feature_names=["x"])
        assert main(["fit", "--data", str(data), "--target", "y", "--eta", "1.5", "--noise", "1000",
                     "--model-out", str(tmp_path / "m.json")]) == 0
        out = capsys.readouterr().out
        assert "regime: nullspace_pole" in out
        assert "regime margin: no other regime has mass" in out.splitlines()

    def test_fit_is_deterministic(self, tmp_path):
        data = tmp_path / "d.csv"
        write_higdon(data, n=12)
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ["fit", "--data", str(data), "--target", "y", "--eta", "1.5",
                "--noise", "0.05", "--samples", "300", "--burn", "100", "--seed", "3"]
        assert main(args + ["--model-out", str(m1)]) == 0
        assert main(args + ["--model-out", str(m2)]) == 0
        assert m1.read_text() == m2.read_text()

    def test_fit_takes_leapfrog_but_no_target_accept(self, tmp_path, capsys):
        # leapfrog steps tune only the generic HMC sampler, so fit ignores
        # them, even a value that sampler would refuse.
        data = tmp_path / "d.csv"
        write_higdon(data, n=12)
        args = ["fit", "--data", str(data), "--target", "y", "--eta", "1.5", "--noise", "unknown"]
        archives = []
        for steps in ("0", "32"):
            model = tmp_path / f"m{steps}.json"
            assert main(args + ["--leapfrog", steps, "--model-out", str(model)]) == 0
            archives.append(model.read_bytes())
        assert archives[0] == archives[1]
        capsys.readouterr()
        assert main(args + ["--target-accept", "0.8", "--model-out", str(tmp_path / "m.json")]) == 2
        assert "no such option" in capsys.readouterr().err.lower()

    def test_seed_moves_only_the_trace(self, tmp_path):
        # The posterior is exact: the seed only chooses the --trace draws.
        data = tmp_path / "d.csv"
        write_higdon(data, n=30, sigma=0.2, seed=4)
        docs, bands, traces = [], [], []
        for seed in (0, 1):
            model, band, trace = (tmp_path / f"{name}{seed}" for name in ("m.json", "b.csv", "t.csv"))
            assert main(["fit", "--data", str(data), "--target", "y", "--eta", "1.5", "--noise", "unknown",
                         "--seed", str(seed), "--samples", "150", "--burn", "50", "--trace", str(trace),
                         "--model-out", str(model)]) == 0
            assert main(["predict", "--model", str(model), "--grid", "-1:11:25", "--out", str(band)]) == 0
            docs.append(json.loads(model.read_text()))
            bands.append(read_output(band)[2])
            traces.append(trace.read_text())
        assert docs[0]["regime"] == "normal"
        for key in ("h_hat", "Sigma_hat", "sigma_y", "diagnostics"):
            assert docs[0][key] == docs[1][key], key
        np.testing.assert_array_equal(bands[0], bands[1])
        assert traces[0] != traces[1]

    def test_fit_reports_polynomial_coefficients_on_nullspace_pole(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        x = np.linspace(0.0, 1.0, 8)
        data.write_text("x,y\n" + "\n".join(f"{v!r},{1 + 2 * v!r}" for v in map(float, x)) + "\n")
        model = tmp_path / "m.json"
        code = main(
            ["fit", "--data", str(data), "--target", "y", "--eta", "1.5",
             "--noise", "0.1", "--model-out", str(model)]
        )
        assert code == 0
        msg = capsys.readouterr().out
        assert "regime: nullspace_pole" in msg
        assert "polynomial coefficients:" in msg
        # Coefficients are reported in scaled coordinates; the archived model
        # still predicts in original units.
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model), "--grid", "0:1:2", "--out", str(out)]) == 0
        _, _, rows = read_output(out)
        np.testing.assert_allclose(rows[:, 1], [1.0, 3.0], atol=1e-8)

    def test_nullspace_pole_labels_its_estimates(self, tmp_path, capsys):
        # y = 1 + 2x on [0, 4] is 1 + 8u in the scaled feature u = x / 4, and
        # with unknown noise sigma_y is the least-squares residual estimate.
        data = tmp_path / "d.csv"
        write_line(data, np.linspace(0.0, 4.0, 9))
        code = main(["fit", "--data", str(data), "--target", "y", "--eta", "1.5",
                     "--model-out", str(tmp_path / "m.json")])
        assert code == 0
        msg = capsys.readouterr().out
        assert "regime: nullspace_pole" in msg
        assert "sigma_y (residual estimate): " in msg and "posterior median" not in msg
        assert "polynomial coefficients: 1, 8 (in the features min-max scaled to [0, 1])" in msg

    @pytest.mark.parametrize("case", ["exact", "polynomial"])
    def test_trace_on_a_pole_fit_says_no_draws_were_written(self, tmp_path, capsys, case):
        # Exact data and exactly polynomial data skip the posterior, so
        # there are no draws: stderr says so and no trace file appears.
        data = tmp_path / "d.csv"
        if case == "exact":
            write_higdon(data, n=12)
            noise, regime = "0", "interpolation_pole"
        else:
            write_line(data, np.linspace(0.0, 1.0, 8))
            noise, regime = "unknown", "nullspace_pole"
        trace = tmp_path / "t.csv"
        code = main(["fit", "--data", str(data), "--target", "y", "--eta", "1.5", "--noise", noise,
                     "--trace", str(trace), "--model-out", str(tmp_path / "m.json")])
        assert code == 0
        err = capsys.readouterr().err
        assert err == f"{regime}: no posterior draws to trace; {trace} was not written\n"
        assert not trace.exists()

    def test_fit_writes_trace(self, tmp_path):
        data = tmp_path / "d.csv"
        write_higdon(data, n=12)
        trace = tmp_path / "trace.csv"
        code = main(
            ["fit", "--data", str(data), "--target", "y", "--eta", "1.5",
             "--noise", "0.05", "--samples", "120", "--burn", "20", "--seed", "0",
             "--trace", str(trace), "--model-out", str(tmp_path / "m.json")]
        )
        assert code == 0
        lines = trace.read_text().strip().split("\n")
        assert lines[0].split(",")[-1] == "log_posterior"
        assert len(lines) == 1 + 2 * 100

    def test_predict_grid(self, tmp_path):
        data = tmp_path / "d.csv"
        write_higdon(data)
        model = tmp_path / "m.json"
        main(["fit", "--data", str(data), "--target", "y", "--eta", "1.5",
              "--noise", "0.05", "--samples", "300", "--burn", "100",
              "--model-out", str(model)])
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--grid", "-2:12:8",
                     "--level", "0.5", "--out", str(out)]) == 0
        _, _, rows = read_output(out)
        np.testing.assert_allclose(rows[:, 0], np.linspace(-2, 12, 8), rtol=1e-15)

    @pytest.mark.parametrize("level", ["1.5", "0", "nan"])
    def test_predict_checks_level_before_reading_the_archive(self, tmp_path, capsys, level):
        # the archive does not exist: reading it first would exit 4
        code = main(["predict", "--model", str(tmp_path / "absent.json"), "--grid", "0:1:5",
                     "--level", level, "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "level must be in (0, 1)" in capsys.readouterr().err


class TestCrossval:
    def test_leave_one_out_and_pooled_row(self, tmp_path):
        data = tmp_path / "d.csv"
        write_higdon(data, n=6, sigma=0.02)
        out = tmp_path / "cv.csv"
        code = main(
            ["crossval", "--data", str(data), "--target", "y", "--eta", "0.5",
             "--noise", "0", "--folds", "6", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "fold,n_test,rmse,regime"
        body = [ln.split(",") for ln in lines[2:]]
        assert len(body) == 7
        assert all(row[1] == "1" for row in body[:-1])
        assert all(row[3] == "interpolation_pole" for row in body[:-1])
        pooled = body[-1]
        assert pooled[0] == "pooled" and pooled[1] == "6"
        fold_rmses = [float(r[2]) for r in body[:-1]]
        assert min(fold_rmses) <= float(pooled[2]) <= max(fold_rmses)

    @pytest.mark.parametrize("flag", ["--chains", "--samples", "--burn", "--leapfrog", "--target-accept"])
    def test_takes_no_sampler_options(self, tmp_path, capsys, flag):
        # a fold's draws are never read, so nothing sizes or tunes them
        data = tmp_path / "d.csv"
        write_higdon(data, n=6, sigma=0.02)
        code = main(["crossval", "--data", str(data), "--target", "y", "--eta", "0.5", "--noise", "0",
                     flag, "3", "--out", str(tmp_path / "cv.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "no such option" in err.lower() and flag in err


class TestExitCodes:
    def test_missing_data_file_is_4(self, tmp_path, capsys):
        code = main(["interpolate", "--data", str(tmp_path / "nope.csv"), "--target", "y",
                     "--eta", "1.5", "--grid", "0:1:5", "--out", str(tmp_path / "o.csv")])
        assert code == 4
        assert "i/o failure" in capsys.readouterr().err

    def test_integer_eta_is_2(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_higdon(data, n=8)
        code = main(["interpolate", "--data", str(data), "--target", "y",
                     "--eta", "2.0", "--grid", "0:1:5", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "integer" in capsys.readouterr().err

    def test_unknown_target_is_2(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_higdon(data, n=8)
        code = main(["interpolate", "--data", str(data), "--target", "z",
                     "--eta", "1.5", "--grid", "0:1:5", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "available columns: x, y" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:1", "a:b:5", "0:1:0"])
    def test_bad_grid_is_2(self, tmp_path, grid):
        data = tmp_path / "d.csv"
        write_higdon(data, n=8)
        assert main(["interpolate", "--data", str(data), "--target", "y",
                     "--eta", "1.5", "--grid", grid, "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["fit", "crossval"])
    def test_negative_or_non_finite_noise_is_2(self, tmp_path, capsys, command, noise):
        data = tmp_path / "d.csv"
        write_higdon(data, n=8)
        out = ["--model-out", str(tmp_path / "m.json")] if command == "fit" else ["--out", str(tmp_path / "o.csv")]
        code = main([command, "--data", str(data), "--target", "y", "--eta", "1.5", "--noise", noise, *out])
        assert code == 2
        assert f"noise sd must be >= 0, got {float(noise)}" in capsys.readouterr().err
        assert not any(tmp_path.glob("[mo].*"))

    @pytest.mark.parametrize("command", ["fit", "interpolate", "crossval"])
    def test_negative_seed_is_2(self, tmp_path, capsys, command):
        data = tmp_path / "d.csv"
        write_higdon(data, n=12)
        args = {"fit": ["--noise", "0.05", "--trace", str(tmp_path / "t.csv"), "--model-out", str(tmp_path / "m.json")],
                "interpolate": ["--grid", "0:1:5", "--paths", "1", "--out", str(tmp_path / "o.csv")],
                "crossval": ["--out", str(tmp_path / "o.csv")]}[command]
        code = main([command, "--data", str(data), "--target", "y", "--eta", "1.5", "--seed", "-1", *args])
        assert code == 2
        assert "--seed" in capsys.readouterr().err
        assert not any(tmp_path.glob("[mot].*"))

    def test_probes_and_grid_together_is_2(self, tmp_path):
        data = tmp_path / "d.csv"
        write_higdon(data, n=8)
        assert main(["interpolate", "--data", str(data), "--target", "y", "--eta", "1.5",
                     "--grid", "0:1:5", "--probes", str(data),
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_numerical_failure_is_3(self, tmp_path, capsys, monkeypatch):
        from sipr import cli as cli_mod
        from sipr.errors import SingularSystem

        def boom(*args, **kwargs):
            raise SingularSystem("synthetic failure")

        monkeypatch.setattr(cli_mod, "solve_interpolation", boom)
        data = tmp_path / "d.csv"
        write_higdon(data, n=8)
        code = main(["interpolate", "--data", str(data), "--target", "y",
                     "--eta", "1.5", "--grid", "0:1:5", "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_ill_conditioned_basis_is_3_and_names_eta(self, tmp_path, capsys):
        # Evenly spread points, none close together: at eta = 2.5 and N = 200
        # the kernel system itself is too ill-conditioned for the basis gate.
        data = tmp_path / "d.csv"
        x = np.linspace(0.0, 1.0, 200)
        write_csv(data, x, np.sin(6.0 * x))
        code = main(["fit", "--data", str(data), "--target", "y", "--eta", "2.5", "--noise", "0.1",
                     "--model-out", str(tmp_path / "m.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "eta=2.5" in err and "N=200" in err and "condition estimate" in err

    def test_duplicate_points_are_2_at_every_entry_point(self, tmp_path, capsys):
        # The distinctness check runs once, where a point set's kernel
        # system is assembled; every way in still reaches it.
        ds = higdon(12, 0.05, seed=1)
        X, y = np.vstack([ds.X, ds.X[3]]), np.append(ds.y, ds.y[3])
        for call in (lambda: solve_interpolation(X, y, 1.5),
                     lambda: build_orthonormal_basis(X, 1.5),
                     lambda: fit_regression(X, y, 1.5, noise=0.05)):
            with pytest.raises(DuplicatePoints):
                call()

        data, clean = tmp_path / "dup.csv", tmp_path / "d.csv"
        write_csv(data, X, y, feature_names=["x"])
        write_higdon(clean, n=12)
        model = tmp_path / "m.json"
        common = ["--target", "y", "--eta", "1.5"]
        assert main(["fit", "--data", str(clean), *common, "--noise", "0.05", "--samples", "200",
                     "--burn", "100", "--model-out", str(model)]) == 0
        doc = json.loads(model.read_text())
        assert doc["regime"] == "normal"
        doc["X"][5] = doc["X"][2]
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        for args in (["interpolate", "--data", str(data), *common, "--grid", "0:1:5"],
                     ["fit", "--data", str(data), *common, "--noise", "0.05",
                      "--model-out", str(tmp_path / "m2.json")],
                     ["predict", "--model", str(model), "--grid", "0:1:5"]):
            out = ["--out", str(tmp_path / "o.csv")] if args[0] != "fit" else []
            assert main(args + out) == 2, args[0]
            assert "coincide" in capsys.readouterr().err

    def test_unknown_noise_with_two_kernel_coordinates_is_2(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        x = np.linspace(0.0, 1.0, 4)
        write_csv(data, x[:, None], np.sin(6.0 * x), feature_names=["x"])
        code = main(["fit", "--data", str(data), "--target", "y", "--eta", "1.5", "--noise", "unknown",
                     "--model-out", str(tmp_path / "m.json")])
        assert code == 2
        assert "needs N - N0 >= 3" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_non_archive_model_file_is_2(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_higdon(data, n=8)
        code = main(["predict", "--model", str(data), "--grid", "0:1:5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "not a model archive" in capsys.readouterr().err

    @pytest.mark.parametrize("document", ["[]", '{"format_version": 4}'])
    def test_json_that_is_not_an_archive_is_2(self, tmp_path, capsys, document):
        model = tmp_path / "m.json"
        model.write_text(document + "\n")
        code = main(["predict", "--model", str(model), "--grid", "0:1:5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "not a model archive" in capsys.readouterr().err

    @pytest.fixture
    def archive(self, tmp_path):
        data = tmp_path / "d.csv"
        write_higdon(data, n=12)
        model = tmp_path / "m.json"
        assert main(["fit", "--data", str(data), "--target", "y", "--eta", "1.5", "--noise", "0.05",
                     "--samples", "200", "--burn", "100", "--model-out", str(model)]) == 0
        doc = json.loads(model.read_text())
        assert doc["regime"] == "normal"
        return model, doc

    def test_version_1_archive_is_2(self, tmp_path, capsys, archive):
        # Format 1 stored Sigma_hat as decimal numbers; it is not read any more.
        model, doc = archive
        block = doc["Sigma_hat"]
        n = block["shape"][0]
        raw = base64.b64decode(block["f8le_base64"])
        doc.update(format_version=1, Sigma_hat=np.frombuffer(raw, "<f8").reshape(n, n).tolist())
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--grid", "0:1:5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "archive format 1" in capsys.readouterr().err

    def test_version_2_archive_is_2(self, tmp_path, capsys, archive):
        # Format 2 stored a pole's map as spline coefficients; it is not read any more.
        model, doc = archive
        doc.update(format_version=2)
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--grid", "0:1:5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "archive format 2" in capsys.readouterr().err

    def test_version_3_archive_is_2(self, tmp_path, capsys, archive):
        # Format 3 stored a raw-input fit's polynomial block over the caller's
        # monomials, not the unit box's; it is not read any more.
        model, doc = archive
        doc.update(format_version=3)
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--grid", "0:1:5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "archive format 3" in capsys.readouterr().err

    @pytest.mark.parametrize("corruption", ["bad base64", "byte count", "shape"])
    def test_corrupt_sigma_block_is_2(self, tmp_path, capsys, archive, corruption):
        model, doc = archive
        block = doc["Sigma_hat"]
        n = block["shape"][0]
        if corruption == "bad base64":
            block["f8le_base64"] = "*" + block["f8le_base64"][1:]
        elif corruption == "byte count":
            block["f8le_base64"] = base64.b64encode(base64.b64decode(block["f8le_base64"])[8:]).decode()
        else:
            block["shape"] = [n - 1, n + 1]
        model.write_text(json.dumps(doc))
        with pytest.raises(ArchiveVersionError):
            load_archive(str(model))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--grid", "0:1:5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "not a model archive" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["basis_H", "h_hat", "y"])
    def test_truncated_array_is_2(self, tmp_path, capsys, archive, key):
        # A normal fit's map is read from basis_H and h_hat, so their shapes
        # and y's are checked against the archived points.
        model, doc = archive
        doc[key] = doc[key][:-1]
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--grid", "0:1:5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "not a model archive" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [{"burn_in": 5000}, {"chains": 0}, {"seed": 1.5}, {"seed": -1}, {"seed": True}])
    def test_ill_formed_config_is_2(self, tmp_path, capsys, archive, config):
        # The archived draw plan is an entry of the file like any other: a
        # bad one makes the file not a model archive, named as such.
        model, doc = archive
        doc["config"].update(config)
        model.write_text(json.dumps(doc))
        with pytest.raises(ArchiveVersionError, match="not a model archive"):
            load_archive(str(model))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--grid", "0:1:5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"{model} is not a model archive" in capsys.readouterr().err

    def test_archive_without_config_is_2(self, tmp_path, capsys, archive):
        model, doc = archive
        del doc["config"]
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--grid", "0:1:5", "--out", str(tmp_path / "o.csv")]) == 2
        assert f"{model} is not a model archive" in capsys.readouterr().err

    @pytest.fixture
    def unknown_archive(self, tmp_path):
        data = tmp_path / "d.csv"
        write_higdon(data, n=25, sigma=0.08, seed=3)
        model = tmp_path / "m.json"
        assert main(["fit", "--data", str(data), "--target", "y", "--eta", "1.5", "--noise", "unknown",
                     "--samples", "200", "--burn", "100", "--model-out", str(model)]) == 0
        doc = json.loads(model.read_text())
        assert doc["regime"] == "normal" and list(doc["sigma_y"]) == ["mode", "value", "q05", "median", "q95"]
        return model, doc

    @pytest.mark.parametrize(
        "kind, edit",
        [
            pytest.param("archive", lambda s: s.update(value=math.nan), id="nan-value"),
            pytest.param("archive", lambda s: s.update(value=math.inf), id="inf-value"),
            pytest.param("archive", lambda s: s.update(value=-s["value"]), id="negative-value"),
            pytest.param("archive", lambda s: s.update(mode="kown"), id="misspelt-mode"),
            pytest.param("unknown_archive", lambda s: s.update(q95=math.inf), id="inf-quantile"),
            pytest.param("unknown_archive", lambda s: s.update(q05=math.nan), id="nan-quantile"),
            pytest.param("unknown_archive", lambda s: s.pop("q95"), id="missing-quantile"),
            pytest.param("unknown_archive", lambda s: s.update(mode="known"), id="quantiles-of-known-noise"),
            pytest.param("unknown_archive", lambda s: s.update(q05=s["q95"]), id="unordered-quantiles"),
            pytest.param("unknown_archive", lambda s: s.update(value=s["q05"]), id="median-is-not-the-value"),
        ],
    )
    def test_ill_formed_sigma_y_is_2(self, tmp_path, capsys, request, kind, edit):
        # sigma_y's record is read as it was written: a finite sd >= 0 of
        # known or unknown noise, and ordered quantiles of unknown noise
        # whose median is that sd.
        model, doc = request.getfixturevalue(kind)
        edit(doc["sigma_y"])
        model.write_text(json.dumps(doc))
        with pytest.raises(ArchiveVersionError, match="not a model archive"):
            load_archive(str(model))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--grid", "0:1:5", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"{model} is not a model archive" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_output_in_a_missing_directory_is_4(self, tmp_path, capsys, archive):
        model, _ = archive
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--grid", "0:1:5",
                     "--out", str(tmp_path / "missing" / "b.csv")])
        assert code == 4
        assert "i/o failure" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_repeated_probe_column_is_2(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_higdon(data, n=8)
        probes = tmp_path / "p.csv"
        probes.write_text("x,x\n0.5,100\n")
        code = main(["interpolate", "--data", str(data), "--target", "y", "--eta", "1.5",
                     "--probes", str(probes), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "repeated column name(s) in the header: x" in capsys.readouterr().err

    def test_unknown_flag_is_2(self, capsys):
        assert main(["interpolate", "--frobnicate"]) == 2
        assert capsys.readouterr().err != ""

    def test_help_and_version_are_0(self, capsys):
        assert main(["--help"]) == 0
        assert "interpolate" in capsys.readouterr().out
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out


def test_console_script_installed():
    exe = shutil.which("sipr")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert __version__ in proc.stdout
