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
matrix-vector product and its residual check in numpy, plus, when it
fixes a basic coefficient, one rank-one pivot; the ratio test, the step
and the snap run on the at most ``dim + 1`` window coefficients as
Python floats, the same IEEE operations as numpy's in the same order.
Every step checks its null vector against the original vectors.  The
resulting discrepancy is certified by ``(dim/2) * max ||x_i||``; the +-1
variant doubles the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if np.any(lam < 0.0) or np.any(lam > 1.0):
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
        return float(np.max(fnorm_many(self.norm, self.vectors)))


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
        g -= g[:, c, None] * prow
        g[t] = prow
        basis.append(c)
        c += 1
    return basis, g[: len(basis), m:]


def _null_enough(w: np.ndarray, u: np.ndarray) -> bool:
    """The residual test of a step direction u on its window's vectors w
    (rows): ||w.T u|| <= 1e-6 max(1, max|w|) ||u||, compared in squares."""
    res = u @ w
    res2, size2 = float(res @ res), 1e-12 * float(u @ u)
    return res2 <= size2 or res2 <= size2 * float(np.abs(w).max()) ** 2


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
    Gauss-Jordan elimination over the floating vectors in index order; the
    entering k is the next floating non-basic vector in index order, and
    its coefficient always increases.  When a basic coefficient reaches
    {0,1}, k replaces it by one pivot; when a step fixes more than one
    coefficient at once, the basis is factored again.  A vector that is
    exactly zero never pivots, so its step is ``u = e_k``: the ratio test
    stops at k itself, which is set to exactly 1 with no numpy call, and
    the basic coefficients do not move.  Every other step makes numpy
    calls only for ``u`` and for the check
    ``||W u|| <= 1e-6 max(1, max|W|) ||u||`` on its window W, whose rows a
    pivot replaces one at a time; on a failure the tableau is rebuilt from
    the original vectors by least squares, and ``DegenerateNullspace`` is
    raised if the rebuilt direction still fails.  The coefficients are a
    Python list during the walk, and the ratio test, the step and the
    snap run on the window's at most ``dim + 1`` of them as Python floats.
    """
    x = instance.vectors
    lam = instance.coefficients.tolist()
    d = instance.dim
    _snap(lam)

    # a zero vector never pivots, and its step is u = e_k: it sets its own
    # coefficient to 1 and moves nothing else
    zero = (~x.any(axis=1)).tolist()
    steps = 0
    while True:
        lam_now = np.array(lam)
        floating = np.flatnonzero((lam_now > 0.0) & (lam_now < 1.0))
        n_float = floating.size
        if n_float <= d:
            break
        basis, binv = _factor(x[floating], d)
        r = len(basis)
        window = floating[basis].tolist() + [0]  # the basis, then k
        # the window's vectors as rows; a pivot replaces one of them
        w = np.empty((r + 1, d))
        w[:r] = x[window[:r]]
        # u = (-binv @ x_k, +1) on (basis, k); tab, u's basis part, is
        # neg_binv @ x_k
        u = np.ones(r + 1)
        tab = u[:r]
        neg_binv = -binv
        for k in np.delete(floating, basis).tolist():
            if zero[k]:
                lam[k] = 1.0
                steps += 1
                n_float -= 1
                if n_float <= d:
                    break
                continue
            window[r] = k
            w[r] = xk = x[k]
            np.matmul(neg_binv, xk, out=tab)
            if not _null_enough(w, u):
                neg_binv = -np.linalg.lstsq(w[:r].T, np.eye(d), rcond=None)[0]
                np.matmul(neg_binv, xk, out=tab)
                if not _null_enough(w, u):
                    raise DegenerateNullspace(
                        "no numerically reliable null vector found")
            # largest step along u keeping the window in [0,1]: each
            # coordinate's distance to the bound it moves toward, over its
            # speed.  A speed of 0 never stops the step (its ratio would be
            # inf), the first minimum wins a tie, as with argmin, and the
            # coordinate that stops the step is set exactly to its bound
            speed = u.tolist()
            la = [lam[j] for j in window]
            step = math.inf
            for j, (s, a) in enumerate(zip(speed, la)):
                if s:
                    t = abs(((s > 0) - a) / s)
                    if t < step:
                        step, i = t, j
            la = [a + step * s for a, s in zip(la, speed)]
            la[i] = 1.0 if speed[i] > 0 else 0.0
            fixed = _snap(la)
            for j, a in zip(window, la):
                lam[j] = a
            steps += 1
            n_float -= fixed
            if fixed > 1 or n_float <= d:
                break
            if i < r:
                # k replaces the basic vector i: one pivot on (i, k)
                prow = neg_binv[i] / -speed[i]
                neg_binv += tab[:, None] * prow
                neg_binv[i] = prow
                window[i] = k
                w[i] = xk

    theta = np.where(np.array(lam) > 0.5, 1, 0).astype(int)  # ties at 1/2 -> 0
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
