"""Discretized linear operators from step functions to F-normed targets.

Column ``i`` of the matrix is the image of the indicator of atom ``i``.
Under refinement a column splits into equal parts (the integral-operator
rule), so applying the refined operator to a lifted sign reproduces the
original image exactly up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoFeasibleSign, SetTooLarge
from .measure import MeasurableSet, MeasureSpace, RefineMap, SignVector
from .norms import TargetNorm, fnorm, fnorm_many

TERNARY_EXHAUSTIVE_LIMIT = 13
FULL_SUPPORT_EXHAUSTIVE_LIMIT = 20


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Matrix operator: column i = image of the indicator of atom i."""

    matrix: np.ndarray
    space: MeasureSpace
    target: TargetNorm

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise DimensionMismatch("operator matrix must be 2-d")
        if m.shape != (self.target.dim, self.space.n_atoms):
            raise DimensionMismatch(
                f"matrix is {m.shape}, expected "
                f"({self.target.dim}, {self.space.n_atoms})"
            )
        if not np.isfinite(m).all():
            raise ValueError("operator matrix must be finite")
        object.__setattr__(self, "matrix", m)

    @property
    def target_dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x) -> np.ndarray:
        """Image of a sign or step vector over the source space."""
        if isinstance(x, SignVector):
            if x.space.n_atoms != self.space.n_atoms:
                raise DimensionMismatch("sign lives on a different space")
            v = x.as_array()
        else:
            v = np.asarray(x, dtype=float)
            if v.shape != (self.space.n_atoms,):
                raise DimensionMismatch(
                    f"vector has shape {v.shape}, expected ({self.space.n_atoms},)"
                )
        return self.matrix @ v

    def image_norm(self, x) -> float:
        return fnorm(self.target, self.apply(x))

    def indicator_image_norm(self, mset: MeasurableSet) -> float:
        """||T 1_A|| for a measurable set A."""
        v = np.zeros(self.space.n_atoms)
        v[mset.indices] = 1.0
        return fnorm(self.target, self.matrix @ v)

    def column_norms(self, indices: np.ndarray | None = None) -> np.ndarray:
        cols = self.matrix.T if indices is None else self.matrix[:, indices].T
        return fnorm_many(self.target, cols)

    def refine(self, rmap: RefineMap, space: MeasureSpace) -> "DiscreteOperator":
        """Operator on the refined space; columns split equally by default."""
        return DiscreteOperator(
            matrix=rmap.split_columns(self.matrix), space=space, target=self.target
        )

    def restrict_rows(self, keep: int) -> "DiscreteOperator":
        """Truncation: zero every target coordinate beyond the first `keep`."""
        m = np.array(self.matrix, copy=True)
        m[keep:, :] = 0.0
        return DiscreteOperator(matrix=m, space=self.space, target=self.target)


def max_sign_image_norm(
    T: DiscreteOperator, mset: MeasurableSet
) -> tuple[float, bool]:
    """Largest ||Tx|| over signs supported inside `mset`, with exactness flag.

    Sup targets are exact via row absolute sums; other targets are exact by
    exhaustion up to the ternary cap and otherwise fall back to the column
    norm sum upper bound.
    """
    idx = mset.indices
    if not idx.size:
        return 0.0, True
    if T.target.kind == "sup":
        row_abs = np.abs(T.matrix[:, idx]).sum(axis=1)
        return float(np.max(T.target.weights * row_abs)), True
    if idx.size <= TERNARY_EXHAUSTIVE_LIMIT:
        _, value = brute_force_best_sign(
            T, mset, require_mean_zero=False, objective="max"
        )
        return value, True
    return float(np.sum(T.column_norms(idx))), False


def _ternary_patterns(s: int) -> np.ndarray:
    """All of {-1,0,+1}^s in lexicographic order (first coordinate slowest)."""
    idx = np.arange(3**s, dtype=np.int64)
    digits = np.empty((3**s, s), dtype=np.int8)
    for j in range(s):
        digits[:, j] = (idx // 3 ** (s - 1 - j)) % 3
    return digits - 1


def _binary_patterns(s: int) -> np.ndarray:
    """All of {-1,+1}^s in lexicographic order."""
    idx = np.arange(2**s, dtype=np.int64)
    digits = np.empty((2**s, s), dtype=np.int8)
    for j in range(s):
        digits[:, j] = (idx // 2 ** (s - 1 - j)) % 2
    return 2 * digits - 1


def brute_force_best_sign(
    T: DiscreteOperator,
    mset: MeasurableSet,
    require_mean_zero: bool = True,
    objective: str = "min",
    full_support: bool = False,
) -> tuple[SignVector, float]:
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

    patterns = _binary_patterns(s) if full_support else _ternary_patterns(s)
    if not full_support:
        nonzero = np.any(patterns != 0, axis=1)
        patterns = patterns[nonzero]
    if require_mean_zero:
        nums = T.space.numerators[idx]
        balanced = patterns.astype(np.int64) @ nums == 0
        patterns = patterns[balanced]
        if patterns.shape[0] == 0:
            raise NoFeasibleSign(
                "no mean-zero sign exists on this set (cannot balance weights)"
            )
    images = patterns.astype(float) @ T.matrix[:, idx].T
    norms = fnorm_many(T.target, images)
    best = int(np.argmin(norms) if objective == "min" else np.argmax(norms))
    values = np.zeros(T.space.n_atoms, dtype=np.int8)
    values[idx] = patterns[best]
    return SignVector(space=T.space, values=values), float(norms[best])
