"""Rank-normalised split-R-hat and bulk/tail effective sample size.

Implements the diagnostics of Vehtari, Gelman, Simpson, Carpenter & Buerkner
(2021), "Rank-normalization, folding, and localization: an improved R-hat for
assessing convergence of MCMC", vectorised over the columns of a draw matrix.

Draws come in sipr's chain-major layout: a (chains * draws_per_chain, dim)
array whose first draws_per_chain rows are chain 0, and so on. This is how
``RegressionPosterior.samples`` and the ``sipr fit --trace`` CSV are laid out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def split_chains(draws: np.ndarray, chains: int) -> np.ndarray:
    """(chains * n, dim) chain-major draws -> (2 * chains, n // 2, dim) half-chains.

    An odd middle draw of each chain is dropped so both halves have equal length.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[:, None]
    total, dim = draws.shape
    if chains < 1 or total % chains:
        raise ValueError(f"{total} draws do not split into {chains} equal chains")
    per = draws.reshape(chains, total // chains, dim)
    half = per.shape[1] // 2
    if half < 2:
        raise ValueError("need at least 4 draws per chain")
    return np.concatenate([per[:, :half], per[:, -half:]], axis=0)


def _rank_normalise(x: np.ndarray) -> np.ndarray:
    """Pooled ranks per column mapped through the normal quantile (Blom offsets)."""
    m, n, dim = x.shape
    flat = x.reshape(m * n, dim)
    ranks = rankdata(flat, axis=0)
    return ndtri((ranks - 0.375) / (m * n + 0.25)).reshape(m, n, dim)


def _rhat(x: np.ndarray) -> np.ndarray:
    """Classic R-hat per column of (m, n, dim) split chains."""
    m, n, _ = x.shape
    within = x.var(axis=1, ddof=1).mean(axis=0)
    between = n * x.mean(axis=1).var(axis=0, ddof=1)
    var_plus = (n - 1) / n * within + between / n
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(var_plus / within)
    return np.where(within > 0, r, np.where(between > 0, np.inf, 1.0))


def _autocov(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance along axis 1 of (m, n, dim), via FFT."""
    n = x.shape[1]
    dev = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(dev, n=size, axis=1)
    return np.fft.irfft(f * np.conj(f), n=size, axis=1)[:, :n] / n


def _ess(x: np.ndarray) -> np.ndarray:
    """Multi-chain ESS per column with Geyer's initial monotone sequence."""
    m, n, dim = x.shape
    acov = _autocov(x)
    mean_var = acov[:, 0].mean(axis=0) * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus = var_plus + x.mean(axis=1).var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus  # (n, dim)
    rho[0] = 1.0
    pairs = n // 2
    P = rho[0 : 2 * pairs : 2] + rho[1 : 2 * pairs : 2]  # (pairs, dim)
    # initial positive sequence: keep pairs up to the first non-positive one
    positive = np.cumprod(P > 0.0, axis=0).astype(bool)
    # initial monotone sequence: running minimum of the kept pair sums
    P = np.minimum.accumulate(np.where(positive, P, np.inf), axis=0)
    tau = -1.0 + 2.0 * np.where(positive, P, 0.0).sum(axis=0)
    total = m * n
    tau = np.maximum(tau, 1.0 / np.log10(total))
    ess = total / tau
    constant = ~np.isfinite(var_plus) | (var_plus <= 0.0)
    return np.where(constant, np.nan, ess)


@dataclass(frozen=True)
class ChainDiagnostics:
    """Per-column diagnostics of one sampler run."""

    ess_bulk: np.ndarray
    ess_tail: np.ndarray
    rhat: np.ndarray


def diagnose(draws: np.ndarray, chains: int) -> ChainDiagnostics:
    """Bulk-ESS, tail-ESS and rank-normalised split-R-hat for every column."""
    x = split_chains(draws, chains)
    z = _rank_normalise(x)
    folded = _rank_normalise(np.abs(x - np.median(x.reshape(-1, x.shape[2]), axis=0)))
    rhat = np.maximum(_rhat(z), _rhat(folded))
    flat = x.reshape(-1, x.shape[2])
    q05, q95 = np.quantile(flat, [0.05, 0.95], axis=0)
    ess_tail = np.minimum(_ess((x <= q05).astype(float)), _ess((x >= q95).astype(float)))
    return ChainDiagnostics(ess_bulk=_ess(z), ess_tail=ess_tail, rhat=rhat)
