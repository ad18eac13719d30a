"""Scale-invariant process regression.

Polyharmonic minimum-norm interpolation with Student-t pointwise posteriors,
and the exact regression posterior over the data-spanned subspace as a scale
mixture, for small noisy datasets with a single regularity knob eta.
"""

from .geometry import (
    Regularity,
    eta_norm_constant,
    eta_norm_sq,
    greens_matrix,
    monomial_matrix,
    multi_indices,
    nullspace_dim,
)
from .interpolate import (
    InterpolationModel,
    PointwisePosterior,
    draw_sample_path,
    pointwise_posterior,
    solve_interpolation,
)

__version__ = "0.1.0"

# these import `__version__` back from the package, so they come after it
from .basis import SubspaceBasis, build_orthonormal_basis, to_subspace
from .data import (
    Dataset,
    add_jitter,
    higdon,
    higdon_truth,
    kfold,
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
from .posterior import (
    KnownNoise,
    PosteriorDensity,
    UnknownNoise,
    build_density,
    map_estimate,
)
from .predict import CredibleBand, credible_band, predictive_mean
from .sampler import (
    Diagnostics,
    Regime,
    RegressionPosterior,
    SamplerConfig,
    posterior_moments,
    run_mcmc,
)

__all__ = [
    "Regularity",
    "multi_indices",
    "nullspace_dim",
    "eta_norm_constant",
    "greens_matrix",
    "monomial_matrix",
    "InterpolationModel",
    "solve_interpolation",
    "eta_norm_sq",
    "PointwisePosterior",
    "pointwise_posterior",
    "draw_sample_path",
    "SubspaceBasis",
    "build_orthonormal_basis",
    "to_subspace",
    "KnownNoise",
    "UnknownNoise",
    "PosteriorDensity",
    "build_density",
    "map_estimate",
    "SamplerConfig",
    "Regime",
    "RegressionPosterior",
    "Diagnostics",
    "run_mcmc",
    "posterior_moments",
    "CredibleBand",
    "predictive_mean",
    "credible_band",
    "Dataset",
    "load_csv",
    "load_probe_csv",
    "minmax_scale",
    "add_jitter",
    "higdon",
    "higdon_truth",
    "kfold",
    "rmse",
    "RegressionFit",
    "fit_regression",
    "fit_dataset",
    "save_archive",
    "load_archive",
    "crossval",
    "__version__",
]
