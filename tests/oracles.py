"""Independent oracles the tests compare the library's searches against.

``brute_force_best_sign`` enumerates every pattern of one set with its own
loop-free numpy code; it shares only ``_sign_patterns`` and the norms with
the library's search, so a change to that search shows up as a mismatch.

``tableau_round_half_integer`` is the half-integer rounding walk written
with numpy calls on the whole window at every step.  It carries its own
``_snap``, ``_factor`` and ``_null_enough``, so a change to the library's
walk that moves a single bit of theta, the step count or the discrepancy
shows up as a mismatch.

``knapsack_fractional`` is the one-item-at-a-time greedy loop of
``check_absolute_continuity``'s knapsack: the library's version must give
the bits of its bound and the same greedy set.

``wave_sums`` is ``measure._wave_sums`` as two ``searchsorted`` calls, one
at each old atom's first child and one past its last, with the prefix wave
taken at both; the library takes it once at the cuts between old atoms.

``l1_example_cells`` reads the cells row by row with a Python set of the
claimed atoms; the library reads them with whole-matrix numpy calls.

``sup_fnorm_many`` is the weighted sup norm as one ``np.max`` reduction
along the last axis; the library folds the weighted columns together with
an elementwise maximum instead.

``is_sign_on`` is the classical "sign on A": nonzero exactly on the set.
"""

import numpy as np

from narrowops import (
    DegenerateNullspace,
    NoFeasibleSign,
    RoundingInstance,
    SetTooLarge,
    SignVector,
    fnorm,
    fnorm_many,
)
from narrowops.linalg import RANK_TOL
from narrowops.operators import (
    FULL_SUPPORT_EXHAUSTIVE_LIMIT,
    TERNARY_EXHAUSTIVE_LIMIT,
    _sign_patterns,
)
from narrowops.rounding import RoundingResult

_SNAP = 1e-12


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


def _snap(lam: np.ndarray) -> None:
    lam[np.abs(lam) <= _SNAP] = 0.0
    lam[np.abs(lam - 1.0) <= _SNAP] = 1.0


def _factor(a: np.ndarray, d: int) -> tuple[list[int], np.ndarray]:
    """Gauss-Jordan elimination with partial pivoting on the rows of ``a``
    (the floating vectors), taken as columns in index order.

    A vector pivots when its part outside the span of the earlier pivots
    exceeds ``RANK_TOL`` times its own largest entry; rows that get no
    pivot are dropped.  Returns the positions of the r <= d pivot vectors
    and the (r, d) matrix ``binv`` of the accumulated row operations, so
    that ``binv @ a[j]`` holds the coordinates of a[j] in the pivot vectors.
    """
    m = a.shape[0]
    g = np.hstack([a.T, np.eye(d)])
    tol = RANK_TOL * np.abs(a).max(axis=1)
    basis: list[int] = []
    c = 0
    for t in range(d):
        # rows t and below have no pivot yet; the next pivot vector is the
        # first with a part outside the span of the pivots so far
        big = np.flatnonzero(np.abs(g[t:, c:m]).max(axis=0) > tol[c:])
        if big.size == 0:
            break
        c += int(big[0])
        p = t + int(np.abs(g[t:, c]).argmax())
        if p != t:
            g[[t, p]] = g[[p, t]]
        prow = g[t] / g[t, c]
        g -= np.outer(g[:, c], prow)
        g[t] = prow
        basis.append(c)
        c += 1
    return basis, g[: len(basis), m:]


def _null_enough(w: np.ndarray, u: np.ndarray) -> bool:
    """The residual test of a step direction u on its window's vectors w
    (rows): ||w.T u|| <= 1e-6 max(1, max|w|) ||u||, compared in squares,
    with max|w|**2 taken as one product."""
    res = u @ w
    res2, size2 = float(res @ res), 1e-12 * float(u @ u)
    m = float(np.abs(w).max())
    return res2 <= size2 or res2 <= size2 * (m * m)


def tableau_round_half_integer(instance: RoundingInstance) -> RoundingResult:
    """The tableau walk as numpy array code: every step gathers its window
    from ``lam``, runs the ratio test, the step and the snap as numpy calls
    and scatters the window back.  ``rounding.round_half_integer`` does the
    same IEEE operations in the same order on Python floats, so the two
    return the same bits."""
    x = instance.vectors
    lam = np.array(instance.coefficients, dtype=float, copy=True)
    d = instance.dim
    _snap(lam)

    # a zero vector never pivots, and its step is u = e_k: it sets its own
    # coefficient to 1 and moves nothing else
    zero = (~x.any(axis=1)).tolist()
    steps = 0
    while True:
        floating = np.flatnonzero((lam > 0.0) & (lam < 1.0))
        n_float = floating.size
        if n_float <= d:
            break
        basis, binv = _factor(x[floating], d)
        r = len(basis)
        window = np.append(floating[basis], 0)  # the basis, then k
        # u = (-binv @ x_k, +1) on (basis, k); tab, u's basis part, is
        # neg_binv @ x_k
        u = np.ones(r + 1)
        tab = u[:r]
        neg_binv = -binv
        with np.errstate(divide="ignore"):
            for k in np.delete(floating, basis).tolist():
                if zero[k]:
                    lam[k] = 1.0
                    steps += 1
                    n_float -= 1
                    if n_float <= d:
                        break
                    continue
                window[r] = k
                np.matmul(neg_binv, x[k], out=tab)
                w = x[window]
                if not _null_enough(w, u):
                    neg_binv = -np.linalg.lstsq(w[:r].T, np.eye(d), rcond=None)[0]
                    np.matmul(neg_binv, x[k], out=tab)
                    if not _null_enough(w, u):
                        raise DegenerateNullspace(
                            "no numerically reliable null vector found")
                # largest step along u keeping the window in [0,1]: each
                # coordinate's distance to the bound it moves toward, over
                # its speed (inf where u is 0); the one that stops the step
                # is set exactly to its bound
                la = lam[window]
                ratio = np.abs(((u > 0) - la) / u)
                i = int(ratio.argmin())
                la += ratio[i] * u
                la[i] = 1.0 if u[i] > 0 else 0.0
                _snap(la)
                lam[window] = la
                steps += 1
                at_bound = la.tolist()
                fixed = at_bound.count(0.0) + at_bound.count(1.0)
                n_float -= fixed
                if fixed > 1 or n_float <= d:
                    break
                if i < r:
                    # k replaces the basic vector i: one pivot on (i, k)
                    prow = neg_binv[i] / -u[i]
                    neg_binv += np.outer(tab, prow)
                    neg_binv[i] = prow
                    window[i] = k

    theta = np.where(lam > 0.5, 1, 0).astype(int)  # ties at 1/2 -> 0
    residual = (instance.coefficients - theta) @ x
    discrepancy = fnorm(instance.norm, residual)
    certificate = 0.5 * d * instance.max_vector_norm()
    return RoundingResult(
        theta=theta,
        discrepancy=discrepancy,
        certificate=certificate,
        elimination_steps=steps,
    )


def knapsack_fractional(values: np.ndarray, nums: np.ndarray, budget_num: int):
    """Fractional upper bound and integral greedy set for the knapsack
    max sum(values) subject to sum(nums) <= budget_num, values >= 0, one
    item at a time in order of decreasing density."""
    idx = np.flatnonzero(values > 0)
    density = values[idx] / nums[idx]
    order = idx[np.argsort(-density, kind="stable")].tolist()
    ub, used, filling = 0.0, 0, True
    greedy = np.zeros(values.size, dtype=bool)
    for i in order:
        n = int(nums[i])
        if used + n <= budget_num:
            used += n
            greedy[i] = True
            if filling:
                ub += float(values[i])
        elif filling:
            # the first item that does not fit closes the fractional bound;
            # the integral greedy set keeps taking smaller items that fit
            ub += float(values[i]) * (budget_num - used) / n
            filling = False
    return ub, np.flatnonzero(greedy)


def wave_sums(mset, rmap, blocks: np.ndarray) -> np.ndarray:
    """Per-parent sums of the +-1 waves with block sizes `blocks` on `mset`,
    times the set's common numerator: an (L, rmap.n_old) int64 array."""
    b = blocks[:, None]
    idx = mset.indices
    begins = np.searchsorted(idx, rmap.starts)
    ends = np.searchsorted(idx, rmap.starts + rmap.counts)
    prefix_diff = np.abs(b - begins % (2 * b)) - np.abs(b - ends % (2 * b))
    return mset.space.numerators[idx[0]] * prefix_diff


def l1_example_cells(T) -> list:
    """One cell per row (its nonzero columns), plus the atoms no row claims."""
    cells = []
    claimed: set[int] = set()
    for r in range(T.target_dim):
        idx = [int(i) for i in np.flatnonzero(T.matrix[r])]
        claimed.update(idx)
        cells.append(T.space.subset(idx))
    residual = [i for i in range(T.space.n_atoms) if i not in claimed]
    if residual:
        cells.append(T.space.subset(residual))
    return cells


def sup_fnorm_many(weights: np.ndarray, ys) -> np.ndarray:
    """max_i w_i |y_i| along the last axis of `ys`, as one reduction."""
    return np.max(weights * np.abs(np.asarray(ys, dtype=float)), axis=-1)


def is_sign_on(values, mset) -> bool:
    """True iff the sign `values` is nonzero exactly on the atoms of `mset`."""
    return np.array_equal(np.flatnonzero(values), mset.indices)
