"""Independent oracles the tests compare the library's searches against.

``brute_force_best_sign`` enumerates every pattern of one set with its own
loop-free numpy code; it shares only ``_sign_patterns`` and the norms with
the library's search, so a change to that search shows up as a mismatch.
"""

import numpy as np

from narrowops import NoFeasibleSign, SetTooLarge, SignVector, fnorm_many
from narrowops.operators import (
    FULL_SUPPORT_EXHAUSTIVE_LIMIT,
    TERNARY_EXHAUSTIVE_LIMIT,
    _sign_patterns,
)


def brute_force_best_sign(
    T,
    mset,
    require_mean_zero: bool = True,
    objective: str = "min",
    full_support: bool = False,
):
    """Exhaustive oracle over signs supported in `mset`.

    Enumerates {-1,0,+1}^set (or {-1,+1}^set when full support is requested),
    optionally restricted to exactly mean-zero patterns, and returns the
    optimizer of ||Tx|| with deterministic lexicographic tie-breaking.
    """
    if objective not in ("min", "max"):
        raise ValueError("objective must be 'min' or 'max'")
    idx = mset.indices
    s = idx.size
    if s == 0:
        raise NoFeasibleSign("the empty set supports no nonzero sign")
    cap = FULL_SUPPORT_EXHAUSTIVE_LIMIT if full_support else TERNARY_EXHAUSTIVE_LIMIT
    if s > cap:
        raise SetTooLarge(f"set size {s} exceeds the exhaustive cap {cap}")

    patterns = _sign_patterns(s, 2 if full_support else 3)
    if not full_support:
        nonzero = np.any(patterns != 0, axis=1)
        patterns = patterns[nonzero]
    feasible = True
    if require_mean_zero:
        feasible = patterns.astype(np.int64) @ T.space.numerators[idx] == 0
        if not feasible.any():
            raise NoFeasibleSign(
                "no mean-zero sign exists on this set (cannot balance weights)"
            )
    # the images of every pattern, infeasible ones included, over C-ordered
    # columns: the products of the exhaustive cell search, row for row, so
    # as its oracle this returns bit-identical norms (a BLAS product over
    # only the feasible rows may round differently)
    norms = fnorm_many(T.target, patterns.astype(float) @ T.matrix.T[idx])
    if objective == "min":
        best = int(np.argmin(np.where(feasible, norms, np.inf)))
    else:
        best = int(np.argmax(np.where(feasible, norms, -np.inf)))
    values = np.zeros(T.space.n_atoms, dtype=np.int8)
    values[idx] = patterns[best]
    return SignVector(space=T.space, values=values), float(norms[best])
