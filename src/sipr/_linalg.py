"""Dense solves with an explicit condition-number gate.

Every helper factors once, estimates the reciprocal condition number from
the factorization, and raises SingularSystem below RCOND_MIN instead of
returning garbage. The saddle systems are symmetric indefinite, so they go
through the Bunch-Kaufman path; general square systems use LU, and symmetric
positive definite matrices are Cholesky-factored.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import SingularSystem

RCOND_MIN = 1e-14


class SymmetricFactor:
    """Bunch-Kaufman factorization of a symmetric indefinite matrix, rcond-gated.

    Factor once, then solve against any number of right-hand sides.
    """

    def __init__(self, A: np.ndarray):
        A = np.ascontiguousarray(A, dtype=float)
        sytrf, sycon, self._sytrs = get_lapack_funcs(("sytrf", "sycon", "sytrs"), (A,))
        anorm = np.linalg.norm(A, 1)
        self._ldu, self._ipiv, info = sytrf(A)
        if info != 0:
            raise SingularSystem(f"symmetric factorization failed (info={info})")
        rcond, info = sycon(self._ldu, self._ipiv, anorm)
        if info != 0 or not np.isfinite(rcond) or rcond < RCOND_MIN:
            raise SingularSystem(f"system too ill-conditioned to solve (rcond={rcond:.3e})")

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = self._sytrs(self._ldu, self._ipiv, np.asarray(b, dtype=float))
        if info != 0:
            raise SingularSystem(f"symmetric solve failed (info={info})")
        return x


def solve_square(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for general square A, gating on rcond."""
    A = np.ascontiguousarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    getrf, gecon, getrs = get_lapack_funcs(("getrf", "gecon", "getrs"), (A,))
    anorm = np.linalg.norm(A, 1)
    lu, piv, info = getrf(A)
    if info != 0:
        raise SingularSystem(f"LU factorization failed (info={info})")
    rcond, info = gecon(lu, anorm)
    if info != 0 or not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise SingularSystem(f"system too ill-conditioned to solve (rcond={rcond:.3e})")
    x, info = getrs(lu, piv, b)
    if info != 0:
        raise SingularSystem(f"LU solve failed (info={info})")
    return x


def cholesky(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of symmetric positive definite A, gating on rcond."""
    A = np.ascontiguousarray(A, dtype=float)
    potrf, pocon = get_lapack_funcs(("potrf", "pocon"), (A,))
    anorm = np.linalg.norm(A, 1)
    L, info = potrf(A, lower=1)
    if info != 0:
        raise SingularSystem(f"matrix is not positive definite (potrf info={info})")
    rcond, info = pocon(L, anorm, uplo="L")
    if info != 0 or not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise SingularSystem(f"system too ill-conditioned to factor (rcond={rcond:.3e})")
    return L
