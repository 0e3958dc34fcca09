"""Constructive rounding of fractional coefficients to {0,1} and {-1,+1}.

The half-integer rounding keeps the running sum ``sum lambda_i x_i``
invariant while eliminating floating (strictly fractional) coefficients,
then rounds the at most ``dim`` survivors to the nearest integer.  Each
elimination step is the Beck-Fiala step (Beck & Fiala 1981): a basis of
the floating vectors plus one further floating vector are linearly
dependent, so their coefficients move along the null vector
``u = (-B^-1 x_k, +1)`` until one of them reaches 0 or 1.  The steps walk
one tableau ``B^-1``: it is factored once by Gauss-Jordan elimination,
and each step that fixes a basic coefficient swaps the entering vector
into the basis with one rank-one pivot, as in the simplex method's basis
exchange, so no step factors anything.  A step costs one small
matrix-vector product in numpy, for ``u``, plus, when it fixes a basic
coefficient, one rank-one pivot.  The steps between two factorizations, a
segment, have their residuals on the original vectors checked together:
one stacked ``np.matmul`` per block of steps gives them, each with the
bits of its own product, since numpy runs one gemv per stacked item; a
segment that fails is rolled back and walked again with the check before
every step.  The scalar-sized work runs on Python floats with the same
IEEE operations as numpy's in the same order: the factorization, over
only the columns it reads; the residual verdict, from sums of squares
outside a narrow band around its threshold; and the ratio test, the step
and the snap on the at most ``dim + 1`` window coefficients.  The
resulting discrepancy is certified by ``(dim/2) * max ||x_i||``; the +-1
variant doubles the certificate.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import DegenerateNullspace, DimensionMismatch
from .linalg import RANK_TOL
from .norms import TargetNorm, fnorm, fnorm_many

_SNAP = 1e-12


@dataclass(frozen=True, eq=False)
class RoundingInstance:
    """Vectors x_1..x_n (rows), coefficients in [0,1], and a target norm."""

    vectors: np.ndarray
    coefficients: np.ndarray
    norm: TargetNorm

    def __post_init__(self):
        x = np.asarray(self.vectors, dtype=float)
        lam = np.asarray(self.coefficients, dtype=float)
        if x.ndim != 2:
            raise DimensionMismatch("vectors must be an (n, d) array")
        if x.shape[1] != self.norm.dim:
            raise DimensionMismatch(
                f"vectors have dimension {x.shape[1]}, norm expects {self.norm.dim}"
            )
        if lam.shape != (x.shape[0],):
            raise DimensionMismatch("one coefficient per vector is required")
        if not (np.isfinite(x).all() and np.isfinite(lam).all()):
            raise ValueError("vectors and coefficients must be finite")
        if lam.size and not (0.0 <= lam.min() and lam.max() <= 1.0):
            raise ValueError("coefficients must lie in [0, 1]")
        object.__setattr__(self, "vectors", x)
        object.__setattr__(self, "coefficients", lam)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def max_vector_norm(self) -> float:
        if self.n == 0:
            return 0.0
        return float(fnorm_many(self.norm, self.vectors).max())


@dataclass(frozen=True, eq=False)
class RoundingResult:
    theta: np.ndarray
    discrepancy: float
    certificate: float
    elimination_steps: int

    def to_json_dict(self) -> dict:
        return {
            "theta": [int(t) for t in self.theta],
            "discrepancy": self.discrepancy,
            "certificate": self.certificate,
            "elimination_steps": self.elimination_steps,
        }


def _snap(values: list[float]) -> int:
    """Set the entries of ``values`` within 1e-12 of 0 or 1 to exactly 0.0
    or 1.0, in place; return how many entries are then 0 or 1."""
    fixed = 0
    for j, v in enumerate(values):
        if abs(v) <= _SNAP:
            values[j] = 0.0
            fixed += 1
        elif abs(v - 1.0) <= _SNAP:
            values[j] = 1.0
            fixed += 1
    return fixed


def _replay(col: list[float], pivots: list) -> list[float]:
    """Apply the recorded Gauss-Jordan pivots, in order, to one column:
    the row swap, then ``piv = col[t] / pc[t]``, ``col[i] - pc[i] * piv``
    and ``col[t] = piv``, each pivot's elementwise operations on the whole
    tableau restricted to this column."""
    for t, p, pc in pivots:
        if p != t:
            col[t], col[p] = col[p], col[t]
        piv = col[t] / pc[t]
        col = [v - q * piv for v, q in zip(col, pc)]
        col[t] = piv
    return col


def _next_pivot(a: np.ndarray, c: int, t: int, pivots: list):
    """The first vector a[j], j >= c, whose column, brought up to date by
    the pivots so far, has a part in rows t and below (those without a
    pivot yet) that exceeds ``RANK_TOL`` times the vector's largest entry:
    returns j, the pivot row (the first largest magnitude in rows t and
    below) and the column, or None if no vector has such a part.  A column
    holding a NaN never pivots, as under numpy's NaN-propagating ``max``."""
    for j in range(c, a.shape[0]):
        row = a[j].tolist()
        tol = RANK_TOL * max(map(abs, row))
        col = _replay(row, pivots)
        mag = list(map(abs, col[t:]))
        top = max(mag)
        # a NaN makes the sum of the magnitudes NaN; nothing else can
        if top > tol and sum(mag) == sum(mag):
            return j, t + mag.index(top), col
    return None


def _factor(a: np.ndarray, d: int) -> tuple[list[int], np.ndarray]:
    """Gauss-Jordan elimination with partial pivoting on the rows of ``a``
    (the floating vectors), taken as columns in index order.

    A vector pivots when its part outside the span of the earlier pivots
    exceeds ``RANK_TOL`` times its own largest entry; rows that get no
    pivot are dropped.  Returns the positions of the r <= d pivot vectors
    and the (r, d) matrix ``binv`` of the accumulated row operations, so
    that ``binv @ a[j]`` holds the coordinates of a[j] in the pivot vectors.

    Elimination acts on each column of the tableau ``[a.T | I]`` apart, so
    only the columns read are computed, as Python floats: each vector's
    column when the scan reaches it, and the d identity columns at the end,
    by replaying the recorded pivots in order.  Every entry gets the same
    IEEE operations as under whole-tableau numpy elimination, with numpy's
    NaN and first-maximum rules, so ``binv`` has the same bits.
    """
    pivots: list = []  # (row, swapped-in row, pivot column after the swap)
    basis: list[int] = []
    c = 0
    for t in range(d):
        found = _next_pivot(a, c, t, pivots)
        if found is None:
            break
        c, p, col = found
        if p != t:
            col[t], col[p] = col[p], col[t]
        pivots.append((t, p, col))
        basis.append(c)
        c += 1
    # C order, as numpy's slice of the tableau was: the walk's products
    # with binv then run the same BLAS kernel
    binv = np.empty((len(basis), d))
    for j in range(d):
        unit = [0.0] * d
        unit[j] = 1.0
        binv[:, j] = _replay(unit, pivots)[: len(basis)]
    return basis, binv


# a sum of n non-negative floats is within n * 2**-53 of its exact value,
# relatively, whatever the order of summation; for the at most 1000 squares
# a Python sum decides on (d + r + 1 in the walk), its verdict agrees with
# numpy's outside this relative band around the threshold
_BAND = 1e-12

# the most steps a segment's check stacks at once
_BLOCK = 1024


def _null_enough(w: np.ndarray, u: np.ndarray) -> bool:
    """The residual test of a step direction u on its window's vectors w
    (rows): ||w.T u|| <= 1e-6 max(1, max|w|) ||u||, compared in squares.

    The residual ``u @ w`` comes from numpy, as its bits matter.  The
    verdict comes from Python sums of squares where they lie outside a
    relative band of ``_BAND`` around the threshold, and from numpy's sums
    in ``_numpy_null_enough`` inside it, so it is numpy's verdict
    throughout."""
    res = u @ w
    r, v = res.tolist(), u.tolist()
    rr, uu = sum(map(mul, r, r)), sum(map(mul, v, v))
    # u.u >= 1 keeps the threshold far above the underflow range, where
    # the relative error bound does not hold
    if len(r) + len(v) <= 1000 and rr < math.inf and 1.0 <= uu < math.inf:
        size2 = 1e-12 * uu
        if rr < size2 * (1.0 - _BAND):
            return True
        m = float(np.abs(w).max())
        bound = size2 * m * m if m > 1.0 else size2
        if bound < math.inf:
            if rr < bound * (1.0 - _BAND):
                return True
            if rr > bound * (1.0 + _BAND):
                return False
    return _numpy_null_enough(res, u, w)


def _square(v: np.ndarray) -> tuple[float, int]:
    """v.v as s * 4**k, s from numpy's sum: k = 0 unless that sum
    overflows, and then v is scaled by 2**-k to a largest |entry| in
    [0.5, 1) first.  A non-finite v gives a non-finite s."""
    with np.errstate(over="ignore"):
        s = float(v @ v)
    if s < math.inf:
        return s, 0
    top = float(np.abs(v).max())
    if not top < math.inf:
        return math.inf, 0
    k = math.frexp(top)[1]
    v = np.ldexp(v, -k)
    return float(v @ v), k


def _numpy_null_enough(res: np.ndarray, u: np.ndarray, w: np.ndarray) -> bool:
    """The residual verdict from numpy's sums of squares.  A non-finite
    res or u fails.  Where res.res, u.u or max|w|**2 overflows, each is
    scaled by a power of two and the exponents are compared apart, which
    gives the verdict of an unbounded exponent range."""
    (res2, a), (uu, b) = _square(res), _square(u)
    if not (res2 < math.inf and uu < math.inf):
        return False
    size2 = 1e-12 * uu
    m = float(np.abs(w).max())
    if a == b == 0:
        if res2 <= size2:
            return True
        # the verdict where nothing overflows squares m with pow, which
        # may differ from m * m by an ulp
        try:
            return res2 <= size2 * m ** 2
        except OverflowError:
            pass
    # res2 4**a <= size2 4**b max(1, m)**2, with max(1, m) = mant 2**exp
    mant, exp = math.frexp(max(1.0, m))
    try:
        return math.ldexp(res2, 2 * (a - b - exp)) <= size2 * (mant * mant)
    except OverflowError:
        return False


def _null_enough_rows(ws: np.ndarray, us: np.ndarray) -> Iterator[bool]:
    """The residual verdicts of the directions us[s] on their windows'
    vectors ws[s] (rows), one per s, in order.

    The residuals come from one stacked ``np.matmul``: numpy runs one gemv
    per stacked item, with the strides of ``us[s] @ ws[s]``, so each
    residual has that product's bits.  A row passes here when numpy's sums
    of squares lie below the threshold by more than the relative
    ``_BAND``: first 1e-12 u.u, then, only if that leaves a row undecided,
    1e-12 u.u max(1, max|w|)**2, the two bounds ``_null_enough`` tries
    first.  Every other row is decided by ``_null_enough`` itself when the
    iteration reaches it, so each verdict is numpy's, and a caller that
    stops at the first failure has it check no later row."""
    with np.errstate(all="ignore"):
        res = np.matmul(us[:, None, :], ws)
        rr = np.einsum("sij,sij->s", res, res)
        uu = np.einsum("ij,ij->i", us, us)
        bound = 1e-12 * uu
        sure = (rr < bound * (1.0 - _BAND)) & (uu >= 1.0)
        if not sure.all():
            m = np.maximum(np.abs(ws).max(axis=(1, 2)), 1.0)
            bound *= m * m
            sure = (rr < bound * (1.0 - _BAND)) & (uu >= 1.0) & (bound < math.inf)
    # the band holds for sums of at most 1000 squares, as in _null_enough
    if ws.shape[1] + ws.shape[2] > 1000:
        sure[:] = False
    for s, ok in enumerate(sure.tolist()):
        yield ok or _null_enough(ws[s], us[s])


def _segment_null_enough(x: np.ndarray, windows: list[int],
                         us: np.ndarray) -> bool:
    """Whether every direction us[s] passes ``_null_enough_rows`` on its
    window: the rows of x at entries s*k to s*k + k - 1 of ``windows``,
    k = us.shape[1].  The steps are checked in order, in blocks of at most
    ``_BLOCK``, so that a long segment's stacked vectors stay small."""
    r1, d = us.shape[1], x.shape[1]
    for a in range(0, len(us), _BLOCK):
        ws = x.take(windows[a * r1:(a + _BLOCK) * r1], axis=0).reshape(-1, r1, d)
        if not all(_null_enough_rows(ws, us[a:a + _BLOCK])):
            return False
    return True


def _walk(x: np.ndarray, lam: list[float], floating: list[int],
          basis: list[int], binv: np.ndarray,
          windows: list[int] | None) -> np.ndarray | None:
    """Take the steps of one tableau ``binv`` of the basis ``floating[b]``,
    b in ``basis``, updating ``lam`` in place; return their directions,
    one row each.

    With ``windows`` None, every direction is checked before its step, and
    a failure rebuilds the tableau by least squares or raises
    ``DegenerateNullspace``.  Otherwise no direction is checked: each
    step's window indices are appended to ``windows``, and the walk returns
    None, with ``lam`` partly updated, at the first non-finite direction.
    """
    d = x.shape[1]
    r = len(basis)
    window = [floating[b] for b in basis] + [0]  # the basis, then k
    basic = set(window[:r])
    ks = [j for j in floating if j not in basic]
    # one direction u = (-binv @ x_k, +1) on (basis, k) per step; its
    # basis part is neg_binv @ x_k
    us = np.ones((len(ks), r + 1))
    la = [lam[j] for j in window]  # the window's coefficients
    n_float = len(floating)
    neg_binv = -binv
    for s, k in enumerate(ks):
        window[r] = k
        la[r] = lam[k]
        u = us[s]
        tab = u[:r]
        xk = x[k]
        np.matmul(neg_binv, xk, out=tab)
        if windows is None:
            w = x[window]
            if not _null_enough(w, u):
                neg_binv = -np.linalg.lstsq(w[:r].T, np.eye(d), rcond=None)[0]
                np.matmul(neg_binv, xk, out=tab)
                if not _null_enough(w, u):
                    raise DegenerateNullspace(
                        "no numerically reliable null vector found")
        speed = u.tolist()
        if windows is not None:
            # before the ratio test, which needs finite speeds; an infinite
            # sum of finite speeds returns None too
            if not abs(sum(speed)) < math.inf:
                return None
            windows += window
        # largest step along u keeping the window in [0,1]: each
        # coordinate's distance to the bound it moves toward, over its
        # speed.  A speed of 0 never stops the step (its ratio would be
        # inf), the first minimum wins a tie, as with argmin, and the
        # coordinate that stops the step is set exactly to its bound
        step = math.inf
        for j, (v, a) in enumerate(zip(speed, la)):
            if v:
                t = abs(((v > 0) - a) / v)
                if t < step:
                    step, i = t, j
        la = [a + step * v for a, v in zip(la, speed)]
        la[i] = 1.0 if speed[i] > 0 else 0.0
        fixed = _snap(la)
        n_float -= fixed
        if fixed > 1 or n_float <= d:
            break
        # the coefficient fixed at i leaves the window
        lam[window[i]] = la[i]
        if i < r:
            # k replaces the basic vector i: one pivot on (i, k)
            prow = neg_binv[i] / -speed[i]
            neg_binv += tab[:, None] * prow
            neg_binv[i] = prow
            window[i] = k
            la[i] = la[r]
    for j, a in zip(window, la):
        lam[j] = a
    return us[: s + 1]


def round_half_integer(instance: RoundingInstance) -> RoundingResult:
    """Round coefficients in [0,1] to {0,1} with certified discrepancy.

    While more than ``dim`` coefficients are strictly fractional, move the
    floating coefficients of a basis of their vectors and one further
    floating coefficient along a null direction of those vectors until one
    of them hits {0,1}; the weighted sum is invariant along such moves.
    Ties at 1/2 round to 0.

    The walk keeps the tableau ``binv`` of the basis B: ``binv @ x_k`` are
    x_k's coordinates in B, so the step direction is
    ``u = (-binv @ x_k, +1)`` on (basis, k).  The basis is factored once by
    Gauss-Jordan elimination over the floating vectors in index order, in
    Python floats and over only the columns it reads; the entering k is the
    next floating non-basic vector in index order, and its coefficient
    always increases.  When a basic coefficient reaches {0,1}, k replaces
    it by one pivot; when a step fixes more than one coefficient at once,
    the basis is factored again.  Zero and repeated vectors take this same
    step; `sum_finite_rank` pairs equal vectors off before it rounds.

    Each direction u must pass ``||W u|| <= 1e-6 max(1, max|W|) ||u||``
    on its window W, the vectors it moves.  The steps of one
    factorization, a segment, are checked together when it ends
    (``_segment_null_enough``): one stacked ``np.matmul`` per block of
    steps gives every residual with the bits of its own product, since
    numpy runs one gemv per stacked item with that product's strides, and
    every verdict is the one ``_null_enough`` gives.  A segment with a failing or non-finite
    direction is rolled back to its start and walked again with the check
    before every step, where a failure rebuilds the tableau from the
    original vectors by least squares, and ``DegenerateNullspace`` is
    raised if the rebuilt direction still fails.  A step makes numpy calls
    only for ``u`` and, when it fixes a basic coefficient, for the pivot.
    The coefficients are a Python list, written only when one leaves the
    window or the segment ends; the ratio test, the step and the snap run
    on the window's at most ``dim + 1`` of them as Python floats.
    """
    x = instance.vectors
    lam = instance.coefficients.tolist()
    d = instance.dim
    _snap(lam)

    steps = 0
    while True:
        floating = [j for j, a in enumerate(lam) if 0.0 < a < 1.0]
        if len(floating) <= d:
            break
        basis, binv = _factor(x[floating], d)
        start, windows = lam[:], []
        # a step the check would have failed may overflow in numpy where
        # no checked step does; the rerun of a failed segment warns
        # wherever the walk with the check before every step warns
        with np.errstate(all="ignore"):
            us = _walk(x, lam, floating, basis, binv, windows)
        if us is None or not _segment_null_enough(x, windows, us):
            lam[:] = start
            us = _walk(x, lam, floating, basis, binv, None)
        steps += len(us)

    theta = (np.array(lam) > 0.5).astype(int)  # ties at 1/2 -> 0
    residual = (instance.coefficients - theta) @ x
    discrepancy = fnorm(instance.norm, residual)
    certificate = 0.5 * d * instance.max_vector_norm()
    return RoundingResult(
        theta=theta,
        discrepancy=discrepancy,
        certificate=certificate,
        elimination_steps=steps,
    )


def sign_round(
    vectors: np.ndarray, norm: TargetNorm
) -> tuple[np.ndarray, float, float, RoundingResult]:
    """Choose signs sigma in {-1,+1}^n with ||sum sigma_i x_i|| <= dim * max.

    Reduction to half-integer rounding at lambda = 1/2: sigma = 1 - 2 theta,
    and the certificate doubles because sum sigma x = 2 sum (1/2 - theta) x.
    """
    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DimensionMismatch("need an (n, d) array with n >= 1")
    instance = RoundingInstance(
        vectors=x, coefficients=np.full(x.shape[0], 0.5), norm=norm
    )
    result = round_half_integer(instance)
    sigma = 1 - 2 * result.theta
    achieved = fnorm(norm, sigma @ x)
    certificate = 2.0 * result.certificate
    return sigma, achieved, certificate, result
