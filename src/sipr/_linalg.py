"""Dense solves with an explicit condition-number gate.

The saddle systems are symmetric indefinite, so they go through the
Bunch-Kaufman path: it factors once, estimates the reciprocal condition
number from the factorization, and raises SingularSystem below RCOND_MIN
instead of returning garbage. The regression posterior gates its
eigendecomposition on the same RCOND_MIN.
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
