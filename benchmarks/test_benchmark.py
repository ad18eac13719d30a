"""Checks of the benchmark's own estimators, oracle, generators and tracer.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import sipr.basis  # noqa: E402
import sipr.cli  # noqa: E402
import sipr.interpolate  # noqa: E402
import sipr.predict  # noqa: E402
from sipr.basis import build_orthonormal_basis  # noqa: E402
from sipr.posterior import PosteriorDensity  # noqa: E402

from ess import diagnose, split_chains  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from oracle import orthonormality_residual  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, off_grid_probes  # noqa: E402


def ar1_chains(rho: float, chains: int, n: int, dim: int, seed: int) -> np.ndarray:
    """Stationary AR(1) chains in sipr's chain-major (chains * n, dim) layout."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((chains, n, dim))
    x = np.empty_like(e)
    x[:, 0] = e[:, 0] / np.sqrt(1.0 - rho**2)
    for t in range(1, n):
        x[:, t] = rho * x[:, t - 1] + e[:, t]
    return x.reshape(chains * n, dim)


# --- ESS and R-hat -------------------------------------------------------------


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_bulk_ess_matches_ar1_theory(rho):
    chains, n = 4, 4000
    d = diagnose(ar1_chains(rho, chains, n, dim=16, seed=int(10 * rho)), chains)
    expected = chains * n * (1.0 - rho) / (1.0 + rho)
    assert np.median(d.ess_bulk) == pytest.approx(expected, rel=0.15)
    # tail indicators of a Gaussian AR(1) decorrelate at least as fast as the chain
    assert np.median(d.ess_tail) > 0.8 * expected
    assert d.rhat.max() < 1.02


def test_rhat_flags_shifted_and_rescaled_chains():
    chains, n = 4, 1000
    shifted = ar1_chains(0.5, chains, n, dim=4, seed=1)
    shifted[:n] += 1.0
    assert diagnose(shifted, chains).rhat.min() > 1.05
    # equal means, one chain four times wider: only the folded draws see it
    wide = ar1_chains(0.5, chains, n, dim=4, seed=2)
    wide[:n] *= 4.0
    assert diagnose(wide, chains).rhat.min() > 1.05


def test_split_chains_uses_chain_major_layout():
    draws = np.arange(2 * 10, dtype=float)[:, None]  # chain 0 is 0..9, chain 1 is 10..19
    halves = split_chains(draws, 2)[:, :, 0]
    assert halves.tolist() == [[0, 1, 2, 3, 4], [10, 11, 12, 13, 14],
                               [5, 6, 7, 8, 9], [15, 16, 17, 18, 19]]


# --- oracle ------------------------------------------------------------------------


def test_orthonormality_residual_of_sipr_basis():
    X = np.linspace(0.0, 1.0, 12)[:, None] ** 1.5
    basis = build_orthonormal_basis(X, 1.5)
    assert orthonormality_residual(X, basis.H, 1.5) < 1e-9
    assert orthonormality_residual(X, 2.0 * basis.H, 1.5) > 1.0


# --- input generators ----------------------------------------------------------------


@pytest.mark.parametrize("n", [100, 400])
def test_off_grid_probes_avoid_the_grid(n):
    x = np.linspace(0.0, 10.0, n)
    P = off_grid_probes(x, 200)
    gap = np.abs(P[:, None] - x[None, :]).min(axis=1)
    assert len(P) == 200 and len(np.unique(P)) == 200
    assert gap.min() > 0.2 * (x[1] - x[0])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed(tmp_path, name):
    wl = WORKLOADS[name]

    def make(tag):
        inp = wl.make_input(np.random.default_rng(np.random.SeedSequence([7, 0])),
                            str(tmp_path), tag)
        with open(inp["data.csv"]) as fh:
            return inp["seed"], fh.read()

    assert make("a") == make("b")


# --- tracer ------------------------------------------------------------------------


def _traced_fit(tracer: Tracer, tmp_path, op: int) -> dict:
    wl = WORKLOADS["higdon-small"]
    inp = wl.make_input(np.random.default_rng(5), str(tmp_path), f"op{op}", small=True)
    tracer.begin_op(op)
    with tracer:
        tracer.span("bench.op", wl.run, sipr.cli.main, inp)
    return tracer.op_metrics(op)


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    originals = (sipr.interpolate.test_function, sipr.basis.test_function,
                 sipr.predict.test_function, PosteriorDensity.grad, sipr.cli.main)
    tracer = Tracer()
    with tracer:
        assert sipr.basis.test_function is sipr.interpolate.test_function
        assert sipr.predict.test_function is sipr.interpolate.test_function
        assert sipr.interpolate.test_function is not originals[0]
        assert PosteriorDensity.grad is not originals[3]
    assert (sipr.interpolate.test_function, sipr.basis.test_function,
            sipr.predict.test_function, PosteriorDensity.grad, sipr.cli.main) == originals


def test_traced_counts_repeat_exactly(tmp_path):
    tracer = Tracer()
    first = _traced_fit(tracer, tmp_path, 1)
    second = _traced_fit(tracer, tmp_path, 2)
    for key in ("linalg.solve_symmetric_calls", "posterior.grad_calls", "posterior.map_iters",
                "linalg.factor_gflop_computed", "trace.spans", "sampler.ess_bulk_median"):
        assert first[key] == second[key] > 0, key
    # self times are what is left of a span after its children
    assert 0.0 < first["sampler.self_s"] < first["sampler.run_mcmc_s"]
    assert first["pipeline.fit_regression_s"] >= first["sampler.run_mcmc_s"]
    spans = [s for s in tracer.spans if s[0] == 1]
    ids = {s[1] for s in spans}
    assert all(parent in ids for _, _, parent, name, _, _ in spans if name != "bench.op")


# --- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
