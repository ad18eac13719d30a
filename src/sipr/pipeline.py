"""End-to-end regression: scale, basis, exact posterior, regime.

fit_regression runs the full chain on one dataset in one pass: it computes the
interpolant and its norm ||f||^2 (the saddle for exact data, else the basis
and the density), applies one rule for exactly polynomial data (||f||^2 at
most POLYNOMIAL_TOL ||y||^2), and otherwise takes the interpolation pole for
exact data or the regime the exact posterior's profile picks. It then builds
the regime's map and sigma_y's report in one place and returns a RegressionFit:

    normal              -- exact posterior moments; bands combine t and coefficient parts
    nullspace_pole      -- the data is (or collapses to) a polynomial; the fit
                           is weighted polynomial least squares, and keeps the
                           posterior and evidence if the profile chose it
    interpolation_pole  -- the noise collapses to zero; the fit is the exact
                           interpolation posterior

In every regime the fit is one linear map and a Gaussian over its
coordinates, and predict.credible_band gives its bands (see RegressionFit).
Fits can be serialized to a versioned JSON archive and reloaded for
prediction. Format 4 stores that map in every regime under the same entries:
the kernel columns basis_H as JSON numbers with 17 significant digits (see
save_archive), the coordinates h_hat, whose polynomial block weighs the
unit-box monomials of the archived X (the identity map for fit_dataset's
min-max scaled inputs), and their covariance Sigma_hat as one exact block of
float64 bytes (see _block). The loader reads them back without a regime
branch, so a reloaded model predicts bit-identically to the fresh fit and
saves back to the same bytes.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as _pkg_version
from ._io import _float_text, atomic_write
from .basis import SubspaceBasis, build_orthonormal_basis, evaluation_matrix
from .data import Dataset, kfold, minmax_scale, rmse
from .errors import ArchiveVersionError, IOError_, NumericalError, ValidationError
from .geometry import AffineMap, Regularity, _Geometry, as_points, as_regularity
from .interpolate import POLYNOMIAL_TOL, _checked_geometry, solve_interpolation
from .posterior import KnownNoise, UnknownNoise, build_density
from .predict import CredibleBand, credible_band
from .sampler import Regime, RegressionPosterior, SamplerConfig, run_mcmc

ARCHIVE_VERSION = 4


@dataclass(eq=False)
class RegressionFit:
    """A fitted model in model coordinates, plus the transform back to user units.

    Every regime is one linear map and a Gaussian over its coordinates: the
    basis holds the points' geometry and kernel columns H (N x k), h the
    coordinates (kernel part, then the polynomial part c_u over the
    geometry's unit-box monomials M_u) and Sigma their covariance; dof, the
    band's degrees of freedom, follows from the regime. The function with
    coordinates h is read at probes P by E(P) = [g(P) H, m_u(P)^T]
    (predict.credible_band). The archive stores H, h and Sigma as they are, in
    every regime:

        regime              H                     h         Sigma                    dof
        normal              the basis (N x Nh)    h_hat     Sigma_hat                N - N0
        interpolation_pole  the interpolant's a   (1, c_u)  0                        N - N0
        nullspace_pole      no columns (N x 0)    c_u       sigma_y^2 (M_u M_u^T)^+  inf if noise known, else N - N0

    mean_c reads the mean's polynomial over the caller's monomials. The
    archive holds every field but posterior, and load_archive restores them.
    """

    regime: Regime
    basis: SubspaceBasis
    h: np.ndarray
    Sigma: np.ndarray
    y: np.ndarray
    noise_known: bool
    sigma_y: float  # known value, posterior median, or residual estimate
    sigma_y_quantiles: tuple[float, float, float] | None  # (q05, median, q95) when sigma_y is the median
    feature_names: tuple[str, ...]
    config: SamplerConfig = field(repr=False)  # the --trace draw plan
    scaling: AffineMap | None = None  # min-max map of the inputs onto [0, 1]
    target_name: str = "y"
    posterior: RegressionPosterior | None = None  # the exact posterior, if this fit computed one
    diagnostics_summary: dict | None = None

    @property
    def X(self) -> np.ndarray:
        """(N, D) model-space inputs (scaled if scaling is set)."""
        return self.basis.X

    @property
    def eta(self) -> Regularity:
        return self.basis.eta

    @property
    def mean_a(self) -> np.ndarray:
        """Kernel coefficients of the predictive mean."""
        return self.basis.spline_coefficients(self.h)[0]

    @property
    def mean_c(self) -> np.ndarray:
        """Polynomial coefficients of the predictive mean over the monomials of X."""
        return self.basis.geometry.caller_polynomial(self.basis.spline_coefficients(self.h)[1])

    @property
    def n_points(self) -> int:
        return self.X.shape[0]

    @property
    def dof(self) -> float:
        """The band's degrees of freedom: inf at the nullspace pole with known noise, else N - N0."""
        if self.regime == Regime.NULLSPACE_POLE and self.noise_known:
            return math.inf
        return float(self.n_points - self.basis.geometry.n_null)

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def to_model_space(self, probes) -> np.ndarray:
        P = as_points(probes)
        if P.shape[1] != self.dim:
            raise ValidationError(f"probes have {P.shape[1]} features, model has {self.dim}")
        return self.scaling.apply(P) if self.scaling is not None else P

    def predict_mean(self, probes) -> np.ndarray:
        """Predictive mean E h at probes given in original units."""
        return evaluation_matrix(self.basis, self.to_model_space(probes)) @ self.h

    def predict(self, probes, level: float = 0.95) -> CredibleBand:
        """Credible band at probes given in original units."""
        return credible_band(self, self.to_model_space(probes), level=level)

    @property
    def fitted(self) -> np.ndarray:
        """Predictive mean at the training inputs (model space): G a + M_u^T c_u."""
        a, c_u = self.basis.spline_coefficients(self.h)
        return self.basis.geometry.G @ a + self.basis.geometry.M_u.T @ c_u


def fit_regression(X, y, eta, noise="unknown", config: SamplerConfig | None = None) -> RegressionFit:
    """Fit the regression posterior on (X, y) in the given coordinates.

    noise is a positive float (known sd), 0 (exact data), or "unknown".
    Inputs are used as-is; use fit_dataset for the scaled protocol.
    """
    reg = as_regularity(eta)
    X = as_points(X)
    y = np.asarray(y, dtype=float).reshape(-1)
    config = config or SamplerConfig()

    if isinstance(noise, str):
        if noise != "unknown":
            raise ValidationError(f"noise must be a number or 'unknown', got {noise!r}")
        known = False
        sigma_known = None
    else:
        known = True
        sigma_known = float(noise)
        if not (math.isfinite(sigma_known) and sigma_known >= 0.0):
            raise ValidationError(f"known noise sd must be >= 0, got {noise!r}")
    exact = sigma_known == 0.0

    # 1. The interpolant (a, c_u) and its norm ||f||^2. With sigma > 0 the
    # basis and one eigendecomposition serve the interpolant and the
    # posterior: the density's pencil gives the interpolant's coordinates.
    # The exact posterior reads no initial sigma (only the MAP does), so
    # unknown noise takes the unit sd its pencil is built at.
    if exact:
        model = solve_interpolation(X, y, reg)
        geometry, a, c_u, norm_sq = model.geometry, model.a, model.c_u, model.norm_sq
    else:
        geometry, y = _checked_geometry(X, y, reg)
        basis = build_orthonormal_basis(geometry, reg)
        density = build_density(basis, y, KnownNoise(sigma_known) if known else UnknownNoise(1.0))
        a, c_u = basis.spline_coefficients(density.h_mu_star)
        norm_sq = density.h_mu_norm**2  # ||f||^2 = ||h_mu_k||^2: H is orthonormal

    # 2. Exactly polynomial data sit on the nullspace pole; otherwise exact data
    # sit on the interpolation pole, and the exact posterior's profile picks
    # the regime of noisy data.
    posterior = None
    if norm_sq <= POLYNOMIAL_TOL * float(y @ y):
        regime = Regime.NULLSPACE_POLE
    elif exact:
        regime = Regime.INTERPOLATION_POLE
    else:
        posterior = run_mcmc(density, config)
        regime = posterior.regime

    # 3. The regime's map (H, h, Sigma) and sigma_y's report; see RegressionFit.
    N, N0 = geometry.n_points, geometry.n_null
    sigma_y, quantiles = sigma_known, None
    if not known and regime != Regime.NULLSPACE_POLE:
        sigma_y, quantiles = posterior.sigma_y_median, posterior.sigma_y_quantiles
    if regime == Regime.NORMAL:
        h, Sigma = posterior.h_hat, posterior.Sigma_hat
    elif regime == Regime.INTERPOLATION_POLE:
        basis = SubspaceBasis(geometry=geometry, H=a[:, None])
        h, Sigma = np.concatenate([[1.0], c_u]), np.zeros((N0 + 1, N0 + 1))
    else:  # polynomial least squares
        h, *_ = np.linalg.lstsq(geometry.M_u.T, y, rcond=None)
        resid = y - geometry.M_u.T @ h
        if not known:
            sigma_y = float(np.sqrt(resid @ resid / max(N - N0, 1)))
        basis = SubspaceBasis(geometry=geometry, H=np.zeros((N, 0)))
        Sigma = sigma_y**2 * np.linalg.pinv(geometry.M_u @ geometry.M_u.T)
    return RegressionFit(
        regime=regime, basis=basis, h=h, Sigma=Sigma, y=y, noise_known=known, sigma_y=sigma_y,
        sigma_y_quantiles=quantiles, feature_names=tuple(f"x{i}" for i in range(geometry.dim)), config=config,
        posterior=posterior, diagnostics_summary=None if posterior is None else posterior.diagnostics.evidence,
    )


def fit_dataset(dataset: Dataset, eta, noise="unknown", config: SamplerConfig | None = None) -> RegressionFit:
    """Scale features to [0, 1], fit, and attach the transform and names."""
    scaled = minmax_scale(dataset) if dataset.scaling is None else dataset
    fit = fit_regression(scaled.X, scaled.y, eta, noise=noise, config=config)
    fit.scaling = scaled.scaling
    fit.feature_names = dataset.feature_names
    fit.target_name = dataset.target_name
    return fit


# --- archives ---------------------------------------------------------------


def _arr(x) -> list:
    return np.asarray(x, dtype=float).tolist()


def _block(x) -> dict:
    """A float array as its exact little-endian float64 bytes, base64-encoded."""
    x = np.ascontiguousarray(x, dtype="<f8")
    return {"shape": list(x.shape), "f8le_base64": base64.b64encode(x.tobytes()).decode("ascii")}


def _unblock(doc: dict, shape: tuple[int, ...]) -> np.ndarray:
    """The array of a _block, which must have the given shape."""
    if tuple(doc["shape"]) != shape:
        raise ValueError(f"block has shape {doc['shape']}, expected {list(shape)}")
    raw = base64.b64decode(doc["f8le_base64"], validate=True)
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"block holds {len(raw)} bytes, expected {8 * math.prod(shape)}")
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)


_QUANTILE_KEYS = ("q05", "median", "q95")
_CONFIG_KEYS = ("chains", "samples_per_chain", "burn_in", "seed")


def _archive_entries(fit: RegressionFit) -> dict:
    """The archive's entries, with basis_H left as an array for save_archive to format.

    Every regime stores its map as it is: basis_H (N x k), h_hat (k + N0) and
    the Sigma_hat block ((k + N0)^2); see RegressionFit for k.
    """
    sigma_summary: dict = {"mode": "known" if fit.noise_known else "unknown", "value": fit.sigma_y}
    if fit.sigma_y_quantiles is not None:
        sigma_summary.update(zip(_QUANTILE_KEYS, fit.sigma_y_quantiles))
    return {
        "format_version": ARCHIVE_VERSION,
        "package_version": _pkg_version,
        "eta": fit.eta.value,
        "regime": fit.regime.value,
        "feature_names": list(fit.feature_names),
        "target_name": fit.target_name,
        "scaling": None
        if fit.scaling is None
        else {"mins": _arr(fit.scaling.shift), "ranges": _arr(fit.scaling.scale)},
        "X": _arr(fit.X),
        "y": _arr(fit.y),
        "basis_H": fit.basis.H,
        "h_hat": _arr(fit.h),
        "Sigma_hat": _block(fit.Sigma),
        "sigma_y": sigma_summary,
        "config": {key: getattr(fit.config, key) for key in _CONFIG_KEYS},
        "diagnostics": fit.diagnostics_summary,
    }


def save_archive(fit: RegressionFit, path: str) -> None:
    """Write a fit's archive as one line of JSON, streamed block by block to the file.

    basis_H is written as a JSON array of arrays of numbers, exact to the bit:
    each row is _float_text's "%.17g" text, with its newline replaced by the
    "], [" that joins it to the next. %.17g writes nan and inf, which are not
    JSON, so a non-finite entry is refused before the file is opened, rather
    than written into an archive that cannot be read.
    """
    entries = _archive_entries(fit)
    H = entries["basis_H"]
    if not np.all(np.isfinite(H)):
        raise NumericalError(f"cannot archive a {H.shape[0]}x{H.shape[1]} matrix with non-finite entries")

    def blocks():
        sep = b"{"
        for key, value in entries.items():
            yield sep + json.dumps(key).encode() + b": "
            sep = b", "
            if key == "basis_H":
                yield b"[["
                for i, text in enumerate(_float_text(value)):
                    if i:
                        yield b"], ["
                    yield memoryview(text.replace(b"\n", b"], ["))[:-4]  # without the block's last "], ["
                yield b"]]"
            elif key == "Sigma_hat":
                # base64 needs no JSON escaping: the same text as json.dumps, without its scan
                yield b'{"shape": ' + json.dumps(value["shape"]).encode() + b', "f8le_base64": "'
                yield value["f8le_base64"].encode()
                yield b'"}'
            else:
                yield json.dumps(value).encode()
        yield b"}\n"

    atomic_write(path, blocks())


def load_archive(path: str) -> RegressionFit:
    """Rebuild a predicting fit from an archive written by save_archive."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IOError_(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArchiveVersionError(f"{path} is not a model archive: {exc}") from exc
    if not isinstance(doc, dict):
        raise ArchiveVersionError(f"{path} is not a model archive: the document is not a JSON object")
    version = doc.get("format_version")
    if version != ARCHIVE_VERSION:
        raise ArchiveVersionError(
            f"{path} has archive format {version!r}; this build reads {ARCHIVE_VERSION} "
            "(refit the model to write a current archive)"
        )
    try:
        return _fit_from_archive(doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ArchiveVersionError(
            f"{path} is not a model archive: missing or ill-typed entry ({type(exc).__name__}: {exc})"
        ) from exc


def _fit_from_archive(doc: dict) -> RegressionFit:
    regime = Regime(doc["regime"])
    geometry = _Geometry(np.asarray(doc["X"], dtype=float), Regularity(float(doc["eta"])))
    N, N0 = geometry.n_points, geometry.n_null
    k = {Regime.NORMAL: N - N0, Regime.INTERPOLATION_POLE: 1, Regime.NULLSPACE_POLE: 0}[regime]
    scaling = None
    if doc["scaling"] is not None:
        scaling = AffineMap(
            shift=np.asarray(doc["scaling"]["mins"], dtype=float),
            scale=np.asarray(doc["scaling"]["ranges"], dtype=float),
        )
    y, H, h = (np.asarray(doc[key], dtype=float) for key in ("y", "basis_H", "h_hat"))
    if y.shape != (N,) or H.shape != (N, k) or h.shape != (k + N0,):
        raise ValueError(f"y, basis_H and h_hat have shapes {y.shape}, {H.shape} and {h.shape} "
                         f"for {N} points in the {regime.value} regime")
    noise_known, sigma_y, quantiles = _sigma_record(doc["sigma_y"])
    try:
        config = SamplerConfig(**{key: doc["config"][key] for key in _CONFIG_KEYS})
    except ValidationError as exc:  # an ill-formed entry of the file, not of the caller's input
        raise ValueError(f"config: {exc}") from exc
    return RegressionFit(
        regime=regime,
        basis=SubspaceBasis(geometry=geometry, H=H),
        h=h,
        Sigma=_unblock(doc["Sigma_hat"], (k + N0, k + N0)),
        y=y,
        noise_known=noise_known,
        sigma_y=sigma_y,
        sigma_y_quantiles=quantiles,
        feature_names=tuple(doc["feature_names"]),
        config=config,
        scaling=scaling,
        target_name=doc["target_name"],
        diagnostics_summary=doc["diagnostics"],
    )


def _sigma_record(doc: dict) -> tuple[bool, float, tuple[float, float, float] | None]:
    """(noise_known, sigma_y, sigma_y_quantiles) of an archive's sigma_y entry, refusing an ill-formed one."""
    mode, value = doc["mode"], float(doc["value"])
    if mode not in ("known", "unknown") or not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"sigma_y needs mode 'known' or 'unknown' and a finite sd >= 0, got {mode!r} and {value!r}")
    if not any(key in doc for key in _QUANTILE_KEYS):
        return mode == "known", value, None
    q05, median, q95 = quantiles = tuple(float(doc[key]) for key in _QUANTILE_KEYS)
    if mode == "known" or not (math.isfinite(q05) and math.isfinite(q95) and q05 <= median == value <= q95):
        raise ValueError(f"sigma_y quantiles {quantiles} are not finite, ordered unknown-noise quantiles "
                         f"with median {value!r}")
    return False, value, quantiles


# --- cross-validation --------------------------------------------------------


@dataclass(frozen=True)
class FoldResult:
    fold: int
    n_test: int
    rmse: float
    regime: str


@dataclass(frozen=True)
class CrossvalResult:
    folds: tuple[FoldResult, ...]
    pooled_rmse: float


def crossval(
    dataset: Dataset,
    eta,
    noise="unknown",
    k: int = 5,
    seed: int = 0,
) -> CrossvalResult:
    """k-fold CV of the full pipeline; pooled RMSE over all held-out points.

    Each fold scales its own training features, fits, and predicts the
    held-out rows in original units. The seed only shuffles the folds.
    """
    splits = kfold(dataset.n, k, seed=seed)

    folds = []
    sq_errors = []
    for j, (train_idx, test_idx) in enumerate(splits):
        train = Dataset(
            X=dataset.X[train_idx],
            y=dataset.y[train_idx],
            feature_names=dataset.feature_names,
            target_name=dataset.target_name,
        )
        fit = fit_dataset(train, eta, noise=noise)
        pred, actual = fit.predict_mean(dataset.X[test_idx]), dataset.y[test_idx]
        folds.append(
            FoldResult(fold=j, n_test=len(actual), rmse=rmse(pred, actual), regime=fit.regime.value)
        )
        sq_errors.append((pred - actual) ** 2)
    pooled = float(np.sqrt(np.mean(np.concatenate(sq_errors))))
    return CrossvalResult(folds=tuple(folds), pooled_rmse=pooled)
