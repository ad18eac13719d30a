"""Batch command-line interface.

Four subcommands: ``interpolate`` (exact-data pointwise posteriors and sample
paths), ``fit`` (full regression, writes a JSON model archive), ``predict``
(credible bands from an archive), and ``crossval`` (k-fold RMSE harness).
Everything is file-in/file-out and deterministic for a fixed --seed. Exit
codes: 0 success, 2 invalid input, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import sys

import click
import numpy as np

from . import __version__
from ._io import _write_csv, atomic_write
from .data import load_csv, load_probe_csv
from .errors import IOError_, NumericalError, ValidationError
from .geometry import as_regularity
from .interpolate import solve_interpolation
from .pipeline import crossval as run_crossval
from .pipeline import fit_dataset, load_archive, save_archive
from .predict import check_level
from .sampler import Regime, SamplerConfig


def _comment_header(seed, eta) -> str:
    return f"# sipr {__version__} seed={seed} eta={eta:g}"


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--grid expects start:stop:count, got {spec!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"--grid expects numbers in start:stop:count, got {spec!r}") from None
    if count < 1:
        raise ValidationError(f"--grid count must be >= 1, got {count}")
    return np.linspace(start, stop, count)[:, None]


def _load_probes(probes_path, grid, feature_names) -> np.ndarray:
    if (probes_path is None) == (grid is None):
        raise ValidationError("provide exactly one of --probes or --grid")
    if grid is not None:
        if len(feature_names) != 1:
            raise ValidationError("--grid only applies to one-dimensional data; use --probes")
        return _parse_grid(grid)
    return load_probe_csv(probes_path, feature_names)


def _noise_value(noise: str):
    if noise.lower() == "unknown":
        return "unknown"
    try:
        return float(noise)  # fit_regression refuses a negative or non-finite sd
    except ValueError:
        raise ValidationError(f"--noise expects a number or 'unknown', got {noise!r}") from None


@click.group()
@click.version_option(version=__version__, prog_name="sipr")
def cli():
    """Scale-invariant process regression tools."""


@cli.command("interpolate")
@click.option("--data", "data_path", required=True, type=click.Path(), help="Training CSV.")
@click.option("--target", required=True, help="Name of the target column.")
@click.option("--eta", required=True, type=float, help="Regularity exponent (positive non-integer).")
@click.option("--probes", "probes_path", type=click.Path(), help="CSV of probe points.")
@click.option("--grid", help="start:stop:count equispaced probes (1-D data).")
@click.option("--paths", type=int, default=0, show_default=True, help="Append this many sample paths.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output CSV.")
def cmd_interpolate(data_path, target, eta, probes_path, grid, paths, seed, out_path):
    """Exact-data posterior (mean, t-scale, sd) at probe points."""
    reg = as_regularity(eta)
    ds = load_csv(data_path, target)
    probes = _load_probes(probes_path, grid, ds.feature_names)
    if paths < 0:
        raise ValidationError(f"--paths must be >= 0, got {paths}")

    model = solve_interpolation(ds.X, ds.y, reg)
    mean, scale, sd, path_rows = model.posterior(probes, np.random.SeedSequence(seed).spawn(paths))

    header = list(ds.feature_names) + ["mean", "scale", "sd"] + [f"path_{i}" for i in range(paths)]
    table = np.column_stack([probes, mean, scale, sd, path_rows])
    _write_csv(out_path, header, table, _comment_header(seed, reg.value))
    click.echo(f"wrote {len(table)} probes to {out_path}")


@cli.command("fit")
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--target", required=True)
@click.option("--eta", required=True, type=float)
@click.option("--noise", default="unknown", show_default=True,
              help="Known noise sd, or 'unknown' to infer it.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--chains", type=int, default=2, show_default=True,
              help="Draws chains x (samples - burn) for --trace.")
@click.option("--samples", type=int, default=1000, show_default=True,
              help="Sizes the --trace draws, chains x (samples - burn).")
@click.option("--burn", "burn_in", type=int, default=500, show_default=True,
              help="Sizes the --trace draws, chains x (samples - burn).")
@click.option("--leapfrog", type=int, default=32, show_default=True, expose_value=False,
              help="Tunes generic HMC only; fit ignores it.")
@click.option("--trace", "trace_path", type=click.Path(), help="Dump i.i.d. posterior draws to this CSV.")
@click.option("--model-out", "out_path", required=True, type=click.Path(), help="Model archive (JSON).")
def cmd_fit(data_path, target, eta, noise, seed, chains, samples, burn_in, trace_path, out_path):
    """Fit the regression posterior and archive the model."""
    reg = as_regularity(eta)
    ds = load_csv(data_path, target)
    cfg = SamplerConfig(chains=chains, samples_per_chain=samples, burn_in=burn_in, seed=seed)
    fit = fit_dataset(ds, reg, noise=_noise_value(noise), config=cfg)
    post = fit.posterior
    if trace_path is not None and post is not None:
        header = [f"state_{i}" for i in range(post.samples.shape[1])] + ["log_posterior"]
        _write_csv(trace_path, header, np.column_stack([post.samples, post.log_posteriors]))
    save_archive(fit, out_path)

    click.echo(f"regime: {fit.regime.value}")
    label = "known" if fit.noise_known else "residual estimate" if fit.sigma_y_quantiles is None else "posterior median"
    click.echo(f"sigma_y ({label}): {fit.sigma_y:.6g}")
    if fit.regime == Regime.NULLSPACE_POLE:
        click.echo(
            "polynomial coefficients: " + ", ".join(f"{v:.6g}" for v in fit.mean_c)
            + " (in the features min-max scaled to [0, 1])"
        )
    if trace_path is not None and post is None:
        click.echo(f"{fit.regime.value}: no posterior draws to trace; {trace_path} was not written", err=True)
    if fit.diagnostics_summary:
        d = fit.diagnostics_summary
        gap_i = d["gap_interpolation_pole"]
        click.echo(
            f"posterior: {d['nodes']} nodes in {d['scale']}, peak at {d['peak']:.4g}; "
            f"gap to nullspace plateau {d['gap_nullspace_pole']:.4g} nats"
            + ("" if gap_i is None else f", to interpolation plateau {gap_i:.4g} nats")
        )
        ranked = sorted(((m, r) for r, m in d["log_mass"].items() if m is not None), reverse=True)
        if len(ranked) > 1:
            click.echo(f"regime margin: {ranked[0][0] - ranked[1][0]:.4g} nats over {ranked[1][1]}")
        else:
            click.echo("regime margin: no other regime has mass")
    click.echo(f"wrote model archive to {out_path}")


@cli.command("predict")
@click.option("--model", "model_path", required=True, type=click.Path(), help="Archive from fit.")
@click.option("--probes", "probes_path", type=click.Path())
@click.option("--grid", help="start:stop:count equispaced probes (1-D data).")
@click.option("--level", type=float, default=0.95, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_predict(model_path, probes_path, grid, level, out_path):
    """Credible bands at probe points from a fitted model archive."""
    check_level(level)
    fit = load_archive(model_path)
    probes = _load_probes(probes_path, grid, fit.feature_names)
    band = fit.predict(probes, level=level)
    header = list(fit.feature_names) + [
        "mean", "sigma_s", "sigma_t", "sigma_f", "sigma_d", "lower", "upper",
    ]
    table = np.column_stack([probes, band.mean, band.sigma_s, band.sigma_t, band.sigma_f,
                             band.sigma_d, band.lower, band.upper])
    _write_csv(out_path, header, table, _comment_header(fit.config.seed, fit.eta.value))
    click.echo(f"wrote {len(table)} probes to {out_path}")


@cli.command("crossval")
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--target", required=True)
@click.option("--eta", required=True, type=float)
@click.option("--noise", default="unknown", show_default=True)
@click.option("--folds", type=int, default=5, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(), help="Per-fold RMSE CSV.")
def cmd_crossval(data_path, target, eta, noise, folds, seed, out_path):
    """k-fold cross-validation; per-fold and pooled RMSE in original units."""
    reg = as_regularity(eta)
    ds = load_csv(data_path, target)
    result = run_crossval(ds, reg, noise=_noise_value(noise), k=folds, seed=seed)

    lines = [_comment_header(seed, reg.value), "fold,n_test,rmse,regime"]
    for f in result.folds:
        lines.append(f"{f.fold},{f.n_test},{f.rmse!r},{f.regime}")
    lines.append(f"pooled,{ds.n},{result.pooled_rmse!r},-")
    atomic_write(out_path, [("\n".join(lines) + "\n").encode()])
    for f in result.folds:
        click.echo(f"fold {f.fold}: n={f.n_test} rmse={f.rmse:.6g} regime={f.regime}")
    click.echo(f"pooled rmse: {result.pooled_rmse:.6g}")


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:  # --help, --version
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 2
    except click.Abort:
        return 130
    except ValidationError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 3
    except (IOError_, OSError) as exc:
        click.echo(f"i/o failure: {exc}", err=True)
        return 4


if __name__ == "__main__":
    sys.exit(main())
