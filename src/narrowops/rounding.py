"""Constructive rounding of fractional coefficients to {0,1} and {-1,+1}.

The half-integer rounding keeps the running sum ``sum lambda_i x_i``
invariant while eliminating floating (strictly fractional) coefficients,
then rounds the at most ``dim`` survivors to the nearest integer.  Each
elimination step is the Beck-Fiala step: it takes the first ``dim + 1``
floating vectors, which are linearly dependent, moves only their
coefficients along a null vector of those ``dim + 1`` columns (one small
LAPACK call) and stops when one of them reaches 0 or 1.  The resulting
discrepancy is certified by ``(dim/2) * max ||x_i||``; the +-1 variant
doubles the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import null_vector
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


def _snap(lam: np.ndarray) -> None:
    lam[np.abs(lam) <= _SNAP] = 0.0
    lam[np.abs(lam - 1.0) <= _SNAP] = 1.0


def round_half_integer(instance: RoundingInstance) -> RoundingResult:
    """Round coefficients in [0,1] to {0,1} with certified discrepancy.

    While more than ``dim`` coefficients are strictly fractional, move the
    first ``dim + 1`` of them along a null direction of their vectors until
    one hits {0,1}; the weighted sum is invariant along such moves.  Ties at
    1/2 round to 0.
    """
    x = instance.vectors
    lam = np.array(instance.coefficients, dtype=float, copy=True)
    d = instance.dim
    _snap(lam)

    steps = 0
    floating = np.flatnonzero((lam > 0.0) & (lam < 1.0))
    while floating.size > d:
        # d+1 floating vectors in dimension d are linearly dependent
        act = floating[: d + 1]
        u = null_vector(x[act].T)
        # largest step in the +u direction keeping all coordinates in [0,1]
        la = lam[act]
        with np.errstate(divide="ignore"):
            t = float(np.min(np.where(u > 0, 1.0 - la, la) / np.abs(u)))
        lam[act] = la + t * u
        _snap(lam)
        new_floating = np.flatnonzero((lam > 0.0) & (lam < 1.0))
        if new_floating.size >= floating.size:
            # numerical safety: force-fix the coordinate closest to a boundary
            lf = lam[new_floating]
            dist = np.minimum(lf, 1.0 - lf)
            j = new_floating[int(np.argmin(dist))]
            lam[j] = 0.0 if lam[j] <= 0.5 else 1.0
            new_floating = np.flatnonzero((lam > 0.0) & (lam < 1.0))
        floating = new_floating
        steps += 1

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
