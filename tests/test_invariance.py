"""The paper's invariances of the regression posterior, exact now that it has no Monte Carlo noise.

Under y -> gamma y + delta (with a known noise sd scaled by |gamma|) the
regime is unchanged, the predictive mean maps to gamma mean + delta and every
band width scales by |gamma|. Permuting the data points changes the basis H
but not the posterior, so the bands stay put; so do they under an isotropic
affine map x -> alpha x + b of the inputs and the probes. Each regime is
checked at eta = 0.5 and 1.5 on N = 24 points. At eta = 2.5 the kernel
system's own conditioning moves a kernel fit's bands by up to a few 1e-6,
so shifts by b = 1e3 and 1e5 check it against a bound calibrated on other
seeds; the polynomial block, in unit-box monomials, moves by rounding only.
"""

from __future__ import annotations

import numpy as np
import pytest

from sipr.data import higdon_truth
from sipr.pipeline import fit_regression
from sipr.sampler import Regime

N = 24
TOL = 1e-8  # of each column's largest magnitude
PROBES = np.linspace(-0.1, 1.1, 31)[:, None]
WIDTHS = ("sigma_s", "sigma_t", "sigma_f", "sigma_d")


def _data(regime: Regime, eta: float):
    rng = np.random.default_rng(5)
    X = np.sort(rng.uniform(0.0, 1.0, N))[:, None]
    truth = higdon_truth(10.0 * X[:, 0])
    if regime == Regime.NORMAL:
        return X, truth + 0.1 * rng.standard_normal(N), 0.1
    if regime == Regime.INTERPOLATION_POLE:
        return X, truth, 0.0
    # exactly a polynomial of the nullspace: a constant at eta = 0.5, a line at 1.5
    return X, 1.0 + (2.0 if eta > 1.0 else 0.0) * X[:, 0], "unknown"


def _gap(a, b) -> float:
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


CASES = [(regime, eta) for regime in Regime for eta in (0.5, 1.5)]


@pytest.mark.parametrize("regime, eta", CASES, ids=[f"{r.value}-{e}" for r, e in CASES])
@pytest.mark.parametrize("gamma, delta", [(-2.5, 3.0), (0.01, -7.0), (40.0, 0.5)])
def test_affine_map_of_the_targets(regime, eta, gamma, delta):
    X, y, noise = _data(regime, eta)
    fit = fit_regression(X, y, eta, noise=noise)
    assert fit.regime == regime
    mapped = fit_regression(X, gamma * y + delta, eta,
                            noise=noise if noise == "unknown" else abs(gamma) * noise)
    assert mapped.regime == regime
    band, moved = fit.predict(PROBES), mapped.predict(PROBES)
    assert _gap(moved.mean, gamma * band.mean + delta) < TOL
    if regime == Regime.NULLSPACE_POLE:
        return  # exactly polynomial data: the widths are rounding noise
    for name in WIDTHS:
        assert _gap(getattr(moved, name), abs(gamma) * getattr(band, name)) < TOL, name
    assert _gap(moved.upper - moved.mean, abs(gamma) * (band.upper - band.mean)) < TOL


@pytest.mark.parametrize("regime, eta", CASES, ids=[f"{r.value}-{e}" for r, e in CASES])
def test_permuting_the_points(regime, eta):
    X, y, noise = _data(regime, eta)
    perm = np.random.default_rng(11).permutation(N)
    fit, shuffled = fit_regression(X, y, eta, noise=noise), fit_regression(X[perm], y[perm], eta, noise=noise)
    assert fit.regime == shuffled.regime == regime
    band, moved = fit.predict(PROBES), shuffled.predict(PROBES)
    names = ("mean",) if regime == Regime.NULLSPACE_POLE else ("mean", "lower", "upper")
    for name in names:
        assert _gap(getattr(moved, name), getattr(band, name)) < TOL, name
    if regime == Regime.NORMAL:
        assert not np.allclose(shuffled.basis.H[np.argsort(perm)], fit.basis.H)  # the basis moved



# (alpha, b) of x -> alpha x + b; the last shrinks the unit interval to [5, 5.02].
MAPS = [(3.0, -1.0), (-1.5, 0.25), (0.02, 5.0)]
INPUT_CASES = [
    pytest.param(regime, eta, alpha, shift, id=f"{regime.value}-{eta}-{alpha}-{shift}")
    for regime, eta in CASES for alpha, shift in MAPS
]


@pytest.mark.parametrize("regime, eta, alpha, shift", INPUT_CASES)
def test_affine_map_of_the_inputs(regime, eta, alpha, shift):
    # The kernel model is covariant under isotropic affine maps of X: the
    # posterior of f(alpha x + b) given the mapped data is that of f(x).
    X, y, noise = _data(regime, eta)
    fit = fit_regression(X, y, eta, noise=noise)
    mapped = fit_regression(alpha * X + shift, y, eta, noise=noise)
    assert fit.regime == mapped.regime == regime
    band, moved = fit.predict(PROBES), mapped.predict(alpha * PROBES + shift)
    names = ("mean",) if regime == Regime.NULLSPACE_POLE else ("mean", *WIDTHS, "lower", "upper")
    for name in names:
        assert _gap(getattr(moved, name), getattr(band, name)) < TOL, name


# x -> x + b at practical offsets. Every solve reads the unit-box monomials,
# which do not see b; what is left is the rounding of x + b and of the
# caller-unit kernel G, which the kernel system's conditioning amplifies at
# eta = 2.5. Over seeds 200-499 of these data (not seed 5, which the tests
# use) the largest gap of such a fit was 7.7e-7; SHIFT_TOL is ten times that,
# rounded up to a power of ten.
SHIFTS = (1e3, 1e5)
SHIFT_TOL = 1e-5


def _noisy_polynomial(eta: float):
    """A line (eta = 1.5) or a quadratic (eta = 2.5) plus noise of sd 0.1, which is known."""
    rng = np.random.default_rng(5)
    X = np.sort(rng.uniform(0.0, 1.0, N))[:, None]
    x = X[:, 0]
    poly = 1.0 + 2.0 * x - (3.0 * x**2 if eta > 2.0 else 0.0)
    return X, poly + 0.1 * rng.standard_normal(N), 0.1


SHIFT_CASES = [
    pytest.param(Regime.NULLSPACE_POLE, 1.5, _noisy_polynomial(1.5), TOL, id="nullspace-line"),
    pytest.param(Regime.NULLSPACE_POLE, 2.5, _noisy_polynomial(2.5), TOL, id="nullspace-quadratic"),
    pytest.param(Regime.NORMAL, 2.5, _data(Regime.NORMAL, 2.5), SHIFT_TOL, id="normal-2.5"),
    pytest.param(Regime.INTERPOLATION_POLE, 2.5, _data(Regime.INTERPOLATION_POLE, 2.5), SHIFT_TOL,
                 id="interpolation-2.5-exact"),
    pytest.param(Regime.INTERPOLATION_POLE, 2.5, (*_data(Regime.INTERPOLATION_POLE, 2.5)[:2], "unknown"), SHIFT_TOL,
                 id="interpolation-2.5-unknown"),
]


@pytest.mark.parametrize("shift", SHIFTS, ids=lambda b: f"{b:g}")
@pytest.mark.parametrize("regime, eta, data, tol", SHIFT_CASES)
def test_shift_of_the_inputs(regime, eta, data, tol, shift):
    X, y, noise = data
    fit = fit_regression(X, y, eta, noise=noise)
    moved_fit = fit_regression(X + shift, y, eta, noise=noise)
    assert fit.regime == moved_fit.regime == regime
    band, moved = fit.predict(PROBES), moved_fit.predict(PROBES + shift)
    names = ("mean", "sigma_s", "lower", "upper") if regime == Regime.NULLSPACE_POLE else (
        "mean", *WIDTHS, "lower", "upper")
    for name in names:
        assert _gap(getattr(moved, name), getattr(band, name)) < tol, name
