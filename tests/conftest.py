"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

MAX_DRAWS = 1000


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_dataset(n: int, dim: int, seed: int = 0, min_gap: float = 1e-3):
    """Random points in [0, 1]^D with a minimum pairwise gap, plus smooth targets.

    The gap keeps the kernel matrix well conditioned so tolerance checks test
    the algorithm, not the conditioning of an adversarial draw. Gives up after
    MAX_DRAWS draws; many points at a wide gap need jittered equispaced points.
    """
    gen = np.random.default_rng(seed)
    for _ in range(MAX_DRAWS):
        X = gen.uniform(0.0, 1.0, size=(n, dim))
        diff = X[:, None, :] - X[None, :, :]
        d2 = np.einsum("nmd,nmd->nm", diff, diff)
        np.fill_diagonal(d2, np.inf)
        if d2.min() > min_gap**2:
            break
    else:
        raise RuntimeError(
            f"no draw of n={n} points in dim={dim} had min_gap={min_gap:g} in {MAX_DRAWS} tries"
        )
    y = np.sin(3.0 * X.sum(axis=1)) + 0.3 * X[:, 0]
    return X, y


def write_csv(path, X, y, feature_names=None, target="y"):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 1 and len(np.asarray(y).reshape(-1)) > 1:
        X = X.T
    y = np.asarray(y, dtype=float).reshape(-1)
    if feature_names is None:
        feature_names = [f"x{i}" for i in range(X.shape[1])]
    lines = [",".join([*feature_names, target])]
    for row, val in zip(X, y):
        lines.append(",".join(repr(float(v)) for v in [*row, val]))
    path.write_text("\n".join(lines) + "\n")
    return str(path)
