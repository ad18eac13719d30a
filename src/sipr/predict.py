"""Predictive means and credible bands of a regression fit, in every regime.

A fit is a linear map and a Gaussian over its coordinates: on its points'
geometry, with kernel columns H (N x k), the function with coordinates h is
read at probes by

    E(P) = [g(P) H, m_u(P)^T],   m_u the monomials of P in the unit box of the points,

and the fit holds its coordinates h, their covariance Sigma and the band dof.
The regimes differ only in these arrays (see RegressionFit). The predictive
mean is E h. Its uncertainty has two parts that add in quadrature:

    sigma_t  -- the t-process band around the fitted function, from the ratio
                of its squared kernel norm ||H h_k||^2 to the probe's test
                function norm (read off the power function, one saddle solve
                for all probes), with the fit's dof (sd exists only for
                dof > 2; the scale always does); skipped when the norm is at
                most POLYNOMIAL_TOL ||y||^2 (see interpolate.t_part)
    sigma_s  -- the spread of the coordinates, diag(E Sigma E^T)

sigma_f^2 = sigma_t^2 + sigma_s^2 is the function band and
sigma_d^2 = sigma_f^2 + sigma_y^2 the observation band. Central intervals use
t quantiles at the dof applied to the scale version of the combined width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .basis import evaluation_matrix
from .errors import ValidationError
from .geometry import as_points
from .interpolate import t_part


@dataclass(eq=False)
class CredibleBand:
    """Pointwise posterior summary along a set of probe points.

    sigma_t entries are NaN when dof <= 2 (no standard deviation exists),
    except at point masses, where they are 0; scale_t, the t scale parameter,
    is always finite and is what the intervals are built from.
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


def check_level(level: float) -> None:
    """Refuse a credible level outside (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must be in (0, 1), got {level}")


def band_halfwidth(level: float, dof: float, scale: np.ndarray) -> np.ndarray:
    """Half-width of the central interval: t quantile at dof times the scale."""
    check_level(level)
    q = float(stdtrit(dof, 0.5 + level / 2.0))
    return q * np.asarray(scale, dtype=float)


def credible_band(fit, probes, level: float = 0.95) -> CredibleBand:
    """Bands of a regression fit (any regime) at probe points in its model coordinates."""
    P = as_points(probes)
    basis = fit.basis
    E = evaluation_matrix(basis, P)
    mean = E @ fit.h
    sigma_s = np.sqrt(np.maximum(np.einsum("pi,pi->p", E @ fit.Sigma, E), 0.0))
    scale_t, sigma_t, *_ = t_part(basis.geometry, basis.geometry.norm_sq(fit.mean_a), fit.y, P, fit.dof)
    sigma_f = np.sqrt(sigma_t**2 + sigma_s**2)
    sigma_d = np.sqrt(sigma_f**2 + fit.sigma_y**2)
    half = band_halfwidth(level, fit.dof, np.sqrt(scale_t**2 + sigma_s**2))
    return CredibleBand(
        probes=P, mean=mean, sigma_s=sigma_s, sigma_t=sigma_t, sigma_f=sigma_f,
        sigma_d=sigma_d, scale_t=scale_t, lower=mean - half, upper=mean + half,
        dof=fit.dof, level=level,
    )
