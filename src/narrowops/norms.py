"""F-norms on finite-dimensional coordinate spaces.

Three kinds are supported:

* ``lp`` with ``p >= 1``: the weighted norm ``(sum w |y|^p)^(1/p)``;
* ``lp`` with ``0 < p < 1``: the metric F-norm form ``sum w |y|^p``
  (subadditive but not homogeneous, hence not locally convex);
* ``sup``: ``max_i w_i |y_i|``;
* ``coefficient_sup``: sup of the coefficients of ``y`` in a fixed basis.

Weighted coordinates represent step functions: using the atom weights as
coordinate weights embeds the discretized Koethe source space faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotLocallyConvex, ZeroVector

_LP = "lp"
_SUP = "sup"
_COEFF_SUP = "coefficient_sup"


@dataclass(frozen=True, eq=False)
class TargetNorm:
    kind: str
    p: float | None = None
    weights: np.ndarray | None = None
    basis: np.ndarray | None = None
    _basis_pinv: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in (_LP, _SUP, _COEFF_SUP):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == _LP:
            if self.p is None or not 0 < self.p < np.inf:
                raise ValueError("lp norms need a finite p > 0")
        if self.kind in (_LP, _SUP):
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or not w.size or not np.all((w > 0) & (w < np.inf)):
                raise ValueError("weights must be non-empty, 1-d, positive and finite")
            object.__setattr__(self, "weights", w)
        if self.kind == _COEFF_SUP:
            b = np.asarray(self.basis, dtype=float)
            if b.ndim != 2 or not 0 < b.shape[1] <= b.shape[0]:
                raise ValueError(
                    "basis must be a (dim, m) full-column-rank matrix with m >= 1"
                )
            if not np.isfinite(b).all():
                raise ValueError("basis must be finite")
            object.__setattr__(self, "basis", b)
            object.__setattr__(self, "_basis_pinv", np.linalg.pinv(b))

    @property
    def dim(self) -> int:
        if self.kind == _COEFF_SUP:
            return self.basis.shape[0]
        return len(self.weights)

    @property
    def locally_convex(self) -> bool:
        if self.kind == _LP:
            return self.p >= 1
        return True

    def to_json(self) -> dict:
        if self.kind == _LP:
            return {"kind": _LP, "p": self.p, "weights": self.weights.tolist()}
        if self.kind == _SUP:
            return {"kind": _SUP, "weights": self.weights.tolist()}
        return {"kind": _COEFF_SUP, "basis": self.basis.tolist()}

    @staticmethod
    def from_json(obj: dict) -> "TargetNorm":
        kind = obj["kind"]
        if kind == _LP:
            return lp_norm(obj["p"], weights=obj["weights"])
        if kind == _SUP:
            return sup_norm(weights=obj["weights"])
        if kind == _COEFF_SUP:
            return coefficient_sup_norm(np.asarray(obj["basis"], dtype=float))
        raise ValueError(f"unknown norm kind {kind!r}")


def lp_norm(p: float, dim: int | None = None, weights=None) -> TargetNorm:
    if weights is None:
        weights = np.ones(dim)
    return TargetNorm(kind=_LP, p=float(p), weights=np.asarray(weights, dtype=float))


def sup_norm(dim: int | None = None, weights=None) -> TargetNorm:
    if weights is None:
        weights = np.ones(dim)
    return TargetNorm(kind=_SUP, weights=np.asarray(weights, dtype=float))


def coefficient_sup_norm(basis: np.ndarray) -> TargetNorm:
    return TargetNorm(kind=_COEFF_SUP, basis=np.asarray(basis, dtype=float))


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
    """Evaluate the F-norm of each row of a (N, dim) array."""
    ys = _check_dim(norm, ys)
    if norm.kind == _SUP:
        return np.max(norm.weights * np.abs(ys), axis=-1)
    if norm.kind == _LP:
        s = np.abs(ys) ** norm.p @ norm.weights
        if norm.p >= 1:
            return s ** (1.0 / norm.p)
        return s
    coeffs = ys @ norm._basis_pinv.T
    return np.max(np.abs(coeffs), axis=-1)


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
    if norm.kind == _COEFF_SUP:
        c = norm._basis_pinv @ y
        j = int(np.argmax(np.abs(c)))
        return np.sign(c[j]) * norm._basis_pinv[j]
    p = norm.p
    if p == 1.0:
        return norm.weights * np.sign(y)
    return norm.weights * np.sign(y) * np.abs(y) ** (p - 1.0) / value ** (p - 1.0)
