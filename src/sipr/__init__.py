"""Scale-invariant process regression.

Polyharmonic minimum-norm interpolation with Student-t pointwise posteriors,
and the exact regression posterior over the data-spanned subspace as a scale
mixture, for small noisy datasets with a single regularity knob eta.
"""

from .geometry import Regularity
from .interpolate import (
    InterpolationModel,
    PointwisePosterior,
    pointwise_posterior,
    solve_interpolation,
)

__version__ = "0.1.0"

# these import `__version__` back from the package, so they come after it
from .basis import SubspaceBasis, build_orthonormal_basis
from .data import (
    Dataset,
    higdon,
    higdon_truth,
    load_csv,
    load_probe_csv,
    minmax_scale,
    rmse,
)
from .pipeline import (
    RegressionFit,
    crossval,
    fit_dataset,
    fit_regression,
    load_archive,
    save_archive,
)
from .posterior import KnownNoise, UnknownNoise
from .predict import CredibleBand, credible_band
from .sampler import Regime, SamplerConfig, run_mcmc

__all__ = [
    "Regularity",
    "InterpolationModel",
    "solve_interpolation",
    "PointwisePosterior",
    "pointwise_posterior",
    "SubspaceBasis",
    "build_orthonormal_basis",
    "KnownNoise",
    "UnknownNoise",
    "SamplerConfig",
    "Regime",
    "run_mcmc",
    "CredibleBand",
    "credible_band",
    "Dataset",
    "load_csv",
    "load_probe_csv",
    "minmax_scale",
    "higdon",
    "higdon_truth",
    "rmse",
    "RegressionFit",
    "fit_regression",
    "fit_dataset",
    "save_archive",
    "load_archive",
    "crossval",
    "__version__",
]
