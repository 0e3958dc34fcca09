"""F-norms on finite-dimensional coordinate spaces.

Two kinds are supported, each with positive coordinate weights ``w``:

* ``lp`` with ``p >= 1``: the weighted norm ``(sum w |y|^p)^(1/p)``;
* ``lp`` with ``0 < p < 1``: the metric F-norm form ``sum w |y|^p``
  (subadditive but not homogeneous, hence not locally convex);
* ``sup``: ``max_i w_i |y_i|``.

Weighted coordinates represent step functions: using the atom weights as
coordinate weights embeds the discretized Koethe source space faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotLocallyConvex, ZeroVector

_LP = "lp"
_SUP = "sup"


@dataclass(frozen=True, eq=False)
class TargetNorm:
    kind: str
    p: float | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (_LP, _SUP):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == _LP:
            if self.p is None or not 0 < self.p < np.inf:
                raise ValueError("lp norms need a finite p > 0")
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or not w.size or not np.all((w > 0) & (w < np.inf)):
            raise ValueError("weights must be non-empty, 1-d, positive and finite")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def locally_convex(self) -> bool:
        if self.kind == _LP:
            return self.p >= 1
        return True

    def to_json(self) -> dict:
        if self.kind == _LP:
            return {"kind": _LP, "p": self.p, "weights": self.weights.tolist()}
        return {"kind": _SUP, "weights": self.weights.tolist()}

    @staticmethod
    def from_json(obj: dict) -> "TargetNorm":
        kind = obj["kind"]
        if kind == _LP:
            return lp_norm(obj["p"], weights=obj["weights"])
        if kind == _SUP:
            return sup_norm(weights=obj["weights"])
        raise ValueError(f"unknown norm kind {kind!r}")


def lp_norm(p: float, dim: int | None = None, weights=None) -> TargetNorm:
    if weights is None:
        weights = np.ones(dim)
    return TargetNorm(kind=_LP, p=float(p), weights=np.asarray(weights, dtype=float))


def sup_norm(dim: int | None = None, weights=None) -> TargetNorm:
    if weights is None:
        weights = np.ones(dim)
    return TargetNorm(kind=_SUP, weights=np.asarray(weights, dtype=float))


def _check_dim(norm: TargetNorm, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != norm.dim:
        raise DimensionMismatch(
            f"vector has dimension {y.shape[-1]}, norm expects {norm.dim}"
        )
    return y


def fnorm(norm: TargetNorm, y) -> float:
    """Evaluate the F-norm of a single coordinate vector."""
    y = _check_dim(norm, y)
    return float(fnorm_many(norm, y[None, :])[0])


def fnorm_many(norm: TargetNorm, ys: np.ndarray) -> np.ndarray:
    """Evaluate the F-norm along the last axis of `ys` (shape (..., dim)).

    The sup norm is one elementwise maximum across the dim weighted
    columns, not a reduction over each short row, which numpy runs row by
    row.  A maximum is exact and propagates NaN, so every value has the
    bits of ``fnorm`` on its own row whatever the batch shape.  The lp sum
    is a BLAS product instead, whose last bit can depend on the batch
    shape: a row's value may differ from ``fnorm`` of that row by an ulp.
    """
    ys = _check_dim(norm, ys)
    if norm.kind == _SUP:
        t = np.abs(ys)
        t *= norm.weights
        m = t[..., 0].copy()
        for j in range(1, norm.dim):
            np.maximum(m, t[..., j], out=m)
        # a 1-d input gives a numpy scalar, as a reduction would
        return m[()]
    s = np.abs(ys) ** norm.p @ norm.weights
    if norm.p >= 1:
        return s ** (1.0 / norm.p)
    return s


def dual_unit_functional(norm: TargetNorm, y) -> np.ndarray:
    """Functional g with <g, y> = ||y|| and dual norm exactly 1.

    The computable surrogate for a Hahn-Banach separating functional; only
    defined for locally convex norms.
    """
    if not norm.locally_convex:
        raise NotLocallyConvex(
            f"lp with p={norm.p} < 1 admits no separating functionals"
        )
    y = _check_dim(norm, y)
    value = fnorm(norm, y)
    if value == 0.0:
        raise ZeroVector("dual functional needs a nonzero vector")

    if norm.kind == _SUP:
        j = int(np.argmax(norm.weights * np.abs(y)))
        g = np.zeros(norm.dim)
        g[j] = np.sign(y[j]) * norm.weights[j]
        return g
    p = norm.p
    if p == 1.0:
        return norm.weights * np.sign(y)
    return norm.weights * np.sign(y) * np.abs(y) ** (p - 1.0) / value ** (p - 1.0)
