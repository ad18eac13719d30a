"""Predictive means and credible bands for normal-regime regression fits.

The predictive mean at x_t is the function at the posterior mean coordinates,
e(x_t) . h_hat. Its uncertainty has two parts that add in quadrature:

    sigma_t  -- the t-process band around any fixed h*, from the norm ratio
                of the fitted function to the probe's test function (read off
                the power function, one saddle solve for all probes), with
                dof nu = Nh (sd exists only for nu > 2; the scale always does)
    sigma_s  -- the spread of the sampled coordinates, e^T Sigma_hat e

sigma_f^2 = sigma_t^2 + sigma_s^2 is the function band and
sigma_d^2 = sigma_f^2 + sigma_y^2 the observation band. Central intervals use
t quantiles at dof nu applied to the scale version of the combined width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import t as student_t

from .basis import SubspaceBasis, evaluation_matrix
from .errors import WrongRegime
from .geometry import as_points
from .sampler import Regime


@dataclass(eq=False)
class CredibleBand:
    """Pointwise posterior summary along a set of probe points.

    sigma_t entries are NaN when dof <= 2 (no standard deviation exists);
    scale_t, the t scale parameter, is always finite and is what the
    intervals are built from.
    """

    probes: np.ndarray  # (P, D)
    mean: np.ndarray  # (P,)
    sigma_s: np.ndarray
    sigma_t: np.ndarray
    sigma_f: np.ndarray
    sigma_d: np.ndarray
    scale_t: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    dof: float
    level: float


def _require_normal(posterior) -> None:
    regime = getattr(posterior, "regime", Regime.NORMAL)
    if regime != Regime.NORMAL:
        raise WrongRegime(
            f"regime is {getattr(regime, 'value', regime)}: use the polynomial mean for the "
            "nullspace pole or the interpolation posterior for the interpolation pole"
        )


def predictive_mean(posterior, basis: SubspaceBasis, probes) -> np.ndarray:
    """Posterior-mean prediction at probe points (normal regime only)."""
    _require_normal(posterior)
    return evaluation_matrix(basis, probes) @ posterior.h_hat


def band_halfwidth(level: float, dof: float, scale: np.ndarray) -> np.ndarray:
    """Half-width of the central interval: t quantile at dof times the scale."""
    if not 0.0 < level < 1.0:
        raise WrongRegime(f"level must be in (0, 1), got {level}")
    q = float(student_t.ppf(0.5 + level / 2.0, dof))
    return q * np.asarray(scale, dtype=float)


def build_band(probes, mean, scale_t, sigma_t, sigma_s, sigma_y, dof, level) -> CredibleBand:
    """Assemble a band from its t part (scale_t, sigma_t) and sampling part sigma_s."""
    sigma_f = np.sqrt(sigma_t**2 + sigma_s**2)
    sigma_d = np.sqrt(sigma_f**2 + sigma_y**2)
    half = band_halfwidth(level, dof, np.sqrt(scale_t**2 + sigma_s**2))
    return CredibleBand(
        probes=probes, mean=mean, sigma_s=sigma_s, sigma_t=sigma_t, sigma_f=sigma_f,
        sigma_d=sigma_d, scale_t=scale_t, lower=mean - half, upper=mean + half,
        dof=dof, level=level,
    )


def credible_band(
    posterior,
    basis: SubspaceBasis,
    probes,
    level: float = 0.95,
    sigma_y: float | None = None,
) -> CredibleBand:
    """Bands of the normal-regime regression posterior at probe points.

    sigma_y feeds only sigma_d; when None it is taken from the posterior's
    noise draws (unknown-noise fits) or as 0.
    """
    _require_normal(posterior)
    P = as_points(probes)
    nu = float(posterior.n_basis)

    if sigma_y is None:
        med = getattr(posterior, "sigma_y_median", None)
        sigma_y = float(med) if med is not None else 0.0

    geometry = basis.geometry
    a, _ = basis.spline_coefficients(posterior.h_hat)
    norm_mean = max(geometry.norm_sq(a), 0.0)

    E = evaluation_matrix(basis, P)
    mean = E @ posterior.h_hat
    sigma_s = np.sqrt(np.maximum(np.einsum("pi,pi->p", E @ posterior.Sigma_hat, E), 0.0))
    _, B, W = geometry.border(P)
    ratio = norm_mean * geometry.power_function(B, W)
    scale_t = np.sqrt(ratio / nu)
    sigma_t = np.sqrt(ratio / (nu - 2.0)) if nu > 2 else np.full_like(ratio, np.nan)
    return build_band(P, mean, scale_t, sigma_t, sigma_s, sigma_y, nu, level)
