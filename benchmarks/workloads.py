"""The workloads: seeded inputs, one closed-loop operation each, output gates.

An operation is the sequence of CLI commands a user of the workload runs,
issued one at a time through ``sipr.cli.main``. Each workload writes its
inputs once per run, one input set per operation, and every operation
checks its outputs against gates that do not use sipr's own code: the
truth function and the basis orthonormality identity, computed with numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ess import diagnose
from oracle import orthonormality_residual

ETA = 1.5  # non-integer regularity; N0 = 2 in 1-D
LEVEL = 0.95


def higdon_truth(x: np.ndarray) -> np.ndarray:
    return np.sin(2.0 * np.pi * x / 10.0) + 0.2 * np.sin(2.0 * np.pi * x / 2.5)


def write_csv(path: str, header: list[str], rows: np.ndarray) -> None:
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(rows)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a CSV written by sipr (comment lines skipped)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def off_grid_probes(x: np.ndarray, count: int) -> np.ndarray:
    """`count` probes strictly between equispaced grid points, spread evenly.

    Probes on the grid would hit credible_band's point-mass shortcut and hide
    the cost of the bands.
    """
    per = math.ceil(count / (len(x) - 1))
    frac = np.arange(1, per + 1) / (per + 1)
    cand = (x[:-1, None] + frac[None, :] * np.diff(x)[:, None]).ravel()
    return cand[np.linspace(0, len(cand) - 1, count).round().astype(int)]


def run_cli(main, args: list[str]) -> tuple[int, float, str]:
    """Run one CLI command in-process; returns exit code, wall seconds, output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        code = main(args)
        seconds = time.perf_counter() - t0
    return code, seconds, buf.getvalue()


@dataclass
class Outcome:
    """One operation: wall seconds per command, gate failures, output statistics."""

    seconds: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)

    def command(self, main, name: str, args: list[str]) -> bool:
        code, seconds, text = run_cli(main, args)
        self.seconds[name] = seconds
        if code != 0:
            self.failures.append(f"{name} exited {code}: {text.strip()[-300:]}")
        return code == 0

    def gate(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def check(self, checker, inp) -> None:
        """Run an output check; unreadable or malformed output fails the operation."""
        try:
            checker(inp, self)
        except Exception as exc:  # noqa: BLE001 -- any malformed output is a failed gate
            self.failures.append(f"output check raised {exc!r}")


def _seed_of(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


class Higdon:
    """Noisy 1-D Higdon data on an equispaced grid; `sipr fit` then `sipr predict`."""

    sigma = 0.1
    n_probes = 200

    def __init__(self, name: str, n: int, fit_flags: list[str], *, trace: bool,
                 rmse_max: float, coverage_min: float):
        self.name = name
        self.n = n
        self.fit_flags = fit_flags
        self.trace = trace
        self.rmse_max = rmse_max
        self.coverage_min = coverage_min

    def make_input(self, rng: np.random.Generator, workdir: str, tag: str, small: bool = False):
        n = 20 if small else self.n
        x = np.linspace(0.0, 10.0, n)
        seed = _seed_of(rng)
        y = higdon_truth(x) + self.sigma * rng.standard_normal(n)
        probes = off_grid_probes(x, 10 if small else self.n_probes)
        inp = {k: os.path.join(workdir, f"{tag}-{k}") for k in
               ("data.csv", "probes.csv", "model.json", "band.csv", "draws.csv")}
        write_csv(inp["data.csv"], ["x", "y"], np.column_stack([x, y]))
        write_csv(inp["probes.csv"], ["x"], probes[:, None])
        inp.update(seed=seed, small=small, truth=higdon_truth(probes))
        return inp

    def run(self, main, inp) -> Outcome:
        out = Outcome()
        flags = ["--samples", "40", "--burn", "20", "--leapfrog", "4"] if inp["small"] \
            else self.fit_flags
        fit = ["fit", "--data", inp["data.csv"], "--target", "y", "--eta", str(ETA),
               "--seed", str(inp["seed"]), *flags, "--model-out", inp["model.json"]]
        if self.trace:
            fit += ["--trace", inp["draws.csv"]]
        if not out.command(main, "fit", fit):
            return out
        if not out.command(main, "predict", ["predict", "--model", inp["model.json"], "--probes",
                                              inp["probes.csv"], "--level", str(LEVEL),
                                              "--out", inp["band.csv"]]):
            return out
        if not inp["small"]:
            out.check(self._check, inp)
        return out

    def _check(self, inp, out: Outcome) -> None:
        with open(inp["model.json"]) as fh:
            doc = json.load(fh)
        out.gate(doc["regime"] == "normal", f"regime is {doc['regime']}, expected normal")
        if doc["regime"] != "normal":
            return
        resid = orthonormality_residual(doc["X"], doc["basis_H"], doc["eta"])
        out.stats["orthonormality_resid"] = resid
        out.gate(resid < 1e-6, f"basis orthonormality residual {resid:.2e} >= 1e-6")

        sig = doc["sigma_y"]
        if sig["mode"] == "known":
            out.gate(sig["value"] == self.sigma, f"known sigma_y reported as {sig['value']}")
        else:
            ratio = sig["median"] / self.sigma
            out.stats["sigma_ratio"] = ratio
            out.gate(0.7 < ratio < 1.4, f"sigma_y median {sig['median']:.4g} vs true {self.sigma}")

        header, band = read_csv(inp["band.csv"])
        col = {h: band[:, i] for i, h in enumerate(header)}
        truth = inp["truth"]
        if band.shape[0] != len(truth) or not np.all(np.isfinite(band)):
            out.gate(False, f"{band.shape[0]} band rows for {len(truth)} probes, or non-finite")
            return
        rmse = float(np.sqrt(np.mean((col["mean"] - truth) ** 2)))
        coverage = float(np.mean((col["lower"] <= truth) & (truth <= col["upper"])))
        out.stats.update(rmse=rmse, coverage=coverage)
        out.gate(rmse < self.rmse_max, f"RMSE to truth {rmse:.4f} >= {self.rmse_max}")
        out.gate(coverage >= self.coverage_min,
                 f"{LEVEL:.0%} band covers truth at {coverage:.2f} < {self.coverage_min}")
        out.gate(bool(np.all(col["lower"] < col["upper"])), "band has lower >= upper")

        if self.trace:
            _, draws = read_csv(inp["draws.csv"])
            chains = doc["config"]["chains"]
            kept = chains * (doc["config"]["samples_per_chain"] - doc["config"]["burn_in"])
            out.gate(draws.shape[0] == kept, f"trace has {draws.shape[0]} draws, expected {kept}")
            if draws.shape[0] == kept:
                d = diagnose(draws[:, :-1], chains)  # last column is the log posterior
                out.stats["ess_bulk_median"] = float(np.nanmedian(d.ess_bulk))


WORKLOADS = {
    w.name: w
    for w in [
        # the sampler is ~90% of the fit
        Higdon("higdon-small", 100, ["--noise", "unknown"],
               trace=True, rmse_max=0.08, coverage_min=0.75),
        # a short HMC budget leaves the O(N^4) basis and O(P N^3) bands dominant
        Higdon("higdon-large", 400, ["--noise", str(Higdon.sigma), "--samples", "300",
                                     "--burn", "150", "--leapfrog", "8"],
               trace=False, rmse_max=0.05, coverage_min=0.75),
    ]
}
