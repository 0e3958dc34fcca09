"""Dense linear algebra helpers: null vectors and rank factorizations.

``null_vector`` is one LAPACK singular value decomposition of a small wide
matrix; the rounding walk no longer calls it, as it takes its null vectors
from a Gauss-Jordan tableau (see ``rounding``).  ``rank_factorization`` is
column-pivoted Gram-Schmidt with a fixed relative tolerance for rank
decisions, ``RANK_TOL``, which the rounding walk's pivot test also uses.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateNullspace

RANK_TOL = 1e-10


def null_vector(a: np.ndarray) -> np.ndarray:
    """A unit vector u with a @ u ~ 0, for a matrix with more columns than
    rows, such as the (d, d+1) matrix of one rounding step.

    For a wide matrix the last right singular vector lies in the null space
    whatever the rank, so no rank decision is needed; the residual check
    rejects a matrix that has no null vector.
    """
    a = np.asarray(a, dtype=float)
    u = np.linalg.svd(a)[2][-1]
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.linalg.norm(a @ u) > 1e-6 * scale:
        raise DegenerateNullspace("no numerically reliable null vector found")
    return u


def rank_factorization(m: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Factor m = b @ c with b a well-conditioned set of pivot columns of m.

    Pivots are selected greedily by largest residual norm (column-pivoted
    Gram-Schmidt elimination), which keeps the least-squares coefficients c
    small even when the leading columns are nearly dependent.  Returns
    (pivot_columns, b, c) with b of shape (rows, rank) and c (rank, cols).
    """
    m = np.asarray(m, dtype=float)
    resid = np.array(m, copy=True)
    norms0 = np.linalg.norm(m, axis=0)
    scale = float(np.max(norms0)) if m.size else 0.0
    pivots: list[int] = []
    for _ in range(min(m.shape)):
        norms = np.linalg.norm(resid, axis=0)
        j = int(np.argmax(norms))
        if norms[j] <= RANK_TOL * max(scale, 1.0):
            break
        q = resid[:, j] / norms[j]
        pivots.append(j)
        resid -= np.outer(q, q @ resid)
        resid[:, j] = 0.0
    if not pivots:
        return [], np.zeros((m.shape[0], 0)), np.zeros((0, m.shape[1]))
    b = m[:, pivots]
    c, *_ = np.linalg.lstsq(b, m, rcond=None)
    return pivots, b, c
