"""Discretized linear operators from step functions to F-normed targets.

Column ``i`` of the matrix is the image of the indicator of atom ``i``.
Under refinement each child takes the parent's column times its share of the
parent's weight (the integral-operator rule), so applying the refined
operator to a lifted sign reproduces the original image exactly up to
rounding.

A :class:`RefinementContext` takes its operators once, on its starting
space, and keeps them there.  ``ctx.op(key)`` builds an operator on the
current space only when it is read; ``ctx.shares`` gives a sign's exact
share of each starting atom, from per-parent integer sums, and
``ctx.image`` the starting matrix times them, without building the refined
operator.

`best_signs` is the one exhaustive sign search: `brute_force_best_sign` runs
it on one set, ``narrowness.exhaustive_cell_signs`` on many cells at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidAtom,
    NoFeasibleSign,
    RefinementBudgetExceeded,
    SetTooLarge,
)
from .measure import MeasurableSet, MeasureSpace, RefineMap, SignVector, _read_only
from .norms import TargetNorm, fnorm, fnorm_many

TERNARY_EXHAUSTIVE_LIMIT = 13
FULL_SUPPORT_EXHAUSTIVE_LIMIT = 20
# bytes of one chunk's image array in `best_signs`: bounds its memory,
# whatever the number of rows
_CELL_BATCH_BYTES = 2**20


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
        """Image of a step vector (such as a sign's values) over the source
        space."""
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
        """Operator on the refined `space`: each child's column is the
        parent's column times the child's share of the parent's weight.

        The children of every atom must carry its weight exactly.  A share
        that is a power of two, as every refinement in this package makes, is
        computed exactly, so equal children get the bits of ``column / count``.
        """
        old = self.space
        if rmap.n_old != old.n_atoms:
            raise InvalidAtom(f"expected {rmap.n_old} atoms, got {old.n_atoms}")
        if rmap.n_new != space.n_atoms:
            raise DimensionMismatch(
                f"map has {rmap.n_new} children, space has {space.n_atoms} atoms"
            )
        shift = space.denom_log2 - old.denom_log2
        parents = old.numerators << max(shift, 0)
        # the running weights must agree after every parent's last child
        if shift < 0 or space.total != old.total or (
            np.cumsum(space.numerators)[rmap.starts + rmap.counts - 1]
            != np.cumsum(parents)
        ).any():
            raise InvalidAtom("children's weights do not sum to their parent's")
        # numerators above 2^53 round to floats, but the quotient of two
        # that differ by a power of two is still that power exactly
        share = space.numerators / rmap.lift_values(parents)
        return DiscreteOperator(
            matrix=rmap.lift_values(self.matrix) * share, space=space, target=self.target
        )

    def restrict_rows(self, keep: int) -> "DiscreteOperator":
        """Truncation: zero every target coordinate beyond the first `keep`."""
        m = np.array(self.matrix, copy=True)
        m[keep:, :] = 0.0
        return DiscreteOperator(matrix=m, space=self.space, target=self.target)


class RefinementContext:
    """A space, its operators, the map from the starting space, and per-atom
    arrays (labels, signs, rows of signs); a refinement lifts the arrays and
    composes the map at once.  Every refine-and-lift loop of the package runs
    through one.

    Operators enter only through the constructor, on the starting space, and
    stay there as ``ctx.start``.  ``ctx.op(key)`` is the operator on the
    current space, built when first read by one ``refine(total_map, space)``
    and kept until the next refinement; with the power-of-two shares of this
    package that has the bits of refining step by step.  ``ctx.shares``
    gives a sign's exact share of each starting atom, and ``ctx.image`` its
    image under a starting matrix, without building the operator."""

    def __init__(self, space: MeasureSpace, ops: dict):
        if any(op.space != space for op in ops.values()):
            raise DimensionMismatch("a context's operators live on its starting space")
        self.space = space
        self.start = dict(ops)
        self.total_map = RefineMap.identity(space.n_atoms)
        self.arrays: dict[str, np.ndarray] = {}
        self._ops = dict(ops)
        self._parent_weights = None

    def op(self, key: str) -> DiscreteOperator:
        """The operator `key` on the current space."""
        if key not in self._ops:
            self._ops[key] = self.start[key].refine(self.total_map, self.space)
        return self._ops[key]

    def apply_map(self, rmap: RefineMap, space: MeasureSpace) -> None:
        if rmap.is_identity:
            return
        self.space = space
        self.arrays = {k: rmap.lift_values(v) for k, v in self.arrays.items()}
        self.total_map = self.total_map.compose(rmap)
        self._ops = {}
        self._parent_weights = None

    def parent_weights(self) -> np.ndarray:
        """Each starting atom's weight (its children's sum) as an int64
        numerator over the current space's denominator; read-only, once per space."""
        if self._parent_weights is None:
            self._parent_weights = _read_only(
                np.add.reduceat(self.space.numerators, self.total_map.starts))
        return self._parent_weights

    def shares(self, values) -> np.ndarray:
        """Each starting atom's exact share s / w of integer step values on
        the current space: s_j the int64 sum of value times numerator over
        starting atom j's children, w_j its weight.  s is exact, so values
        that cancel within every starting atom have shares of exactly 0."""
        s = np.add.reduceat(np.asarray(values, dtype=np.int64) * self.space.numerators,
                            self.total_map.starts)
        return s / self.parent_weights()

    def image(self, key: str, values) -> np.ndarray:
        """Image of integer step values on the current space under
        ``op(key)``, as ``M @ shares(values)`` with M the starting matrix;
        before any refinement this has the bits of ``apply``."""
        return self.start[key].matrix @ self.shares(values)

    def where(self, key: str, label: int) -> MeasurableSet:
        """The atoms whose `key` label equals `label`."""
        return MeasurableSet._of_mask(self.space, self.arrays[key] == label)

    def refine_atoms(self, indices, parts: int, budget: int) -> None:
        space2, rmap = self.space.refine_atoms(indices, parts)
        if space2.n_atoms > budget:
            raise RefinementBudgetExceeded(
                f"refinement to {space2.n_atoms} atoms exceeds budget {budget}"
            )
        self.apply_map(rmap, space2)


def require_same_space(a, b, what: str) -> None:
    """Raise DimensionMismatch unless `a` and `b` (operators or sets) live
    on the same space."""
    if a.space != b.space:
        raise DimensionMismatch(f"{what} must share the same source space")


def max_sign_image_norm(
    T: DiscreteOperator, mset: MeasurableSet
) -> tuple[float, bool]:
    """Largest ||Tx|| over signs supported inside `mset`, with exactness flag.

    Sup targets are exact via row absolute sums; other targets are exact by
    exhaustion up to the ternary cap and otherwise fall back to the column
    norm sum upper bound.
    """
    require_same_space(T, mset, "the operator and the set")
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


def _sign_patterns(s: int, base: int) -> np.ndarray:
    """All of {-1,+1}^s (base 2) or {-1,0,+1}^s (base 3) as int8 rows in
    lexicographic order (first coordinate slowest)."""
    idx = np.arange(base**s, dtype=np.int64)
    digits = np.empty((base**s, s), dtype=np.int8)
    for j in range(s):
        digits[:, j] = (idx // base ** (s - 1 - j)) % base
    # base evenly spaced values from -1 to +1
    digits *= 2 // (base - 1)
    digits -= 1
    return digits


def best_signs(T: DiscreteOperator, idx: np.ndarray, full_support: bool,
               objective: str, mean_zero: bool) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive search on each row of `idx`, a (rows, s) array of atom
    indices: of the nonzero signs on the row's atoms, with full support or
    not and mean-zero or not, the one with the least (objective "min") or
    greatest ("max") ||Tx||, first in lexicographic order among ties.

    Returns the (rows, s) int8 patterns (0 for a row without such a sign)
    and each row's optimum (inf for "min", -inf for "max", on a row without
    one).  Every pattern's image is taken, feasible or not, over the row's
    gathered columns, so a row's values do not depend on its chunk.
    """
    n_rows, s = idx.shape
    patterns = _sign_patterns(s, 2 if full_support else 3)
    if not full_support:
        patterns = patterns[patterns.any(axis=1)]
    fpatterns = patterns.astype(float)
    ipatterns = patterns.astype(np.int64) if mean_zero else None
    worst, pick = (np.inf, np.argmin) if objective == "min" else (-np.inf, np.argmax)
    best_patterns = np.zeros((n_rows, s), dtype=np.int8)
    values = np.empty(n_rows)
    step = max(1, _CELL_BATCH_BYTES // (8 * len(patterns) * T.target_dim))
    for lo in range(0, n_rows, step):
        chunk = idx[lo:lo + step]
        norms = fnorm_many(T.target, fpatterns @ T.matrix.T[chunk])
        if mean_zero:
            balanced = T.space.numerators[chunk] @ ipatterns.T == 0
            norms = np.where(balanced, norms, worst)
        best = pick(norms, axis=1)
        values[lo:lo + step] = norms[np.arange(len(chunk)), best]
        found = np.flatnonzero(values[lo:lo + step] != worst)
        best_patterns[lo + found] = patterns[best[found]]
    return best_patterns, values


def brute_force_best_sign(
    T: DiscreteOperator,
    mset: MeasurableSet,
    require_mean_zero: bool = True,
    objective: str = "min",
    full_support: bool = False,
) -> tuple[SignVector, float]:
    """Exhaustive search over the nonzero signs supported in `mset`.

    Enumerates {-1,0,+1}^set (or {-1,+1}^set when full support is requested),
    optionally restricted to exactly mean-zero patterns, and returns the
    optimizer of ||Tx|| with deterministic lexicographic tie-breaking: one
    row of `best_signs`.
    """
    if objective not in ("min", "max"):
        raise ValueError("objective must be 'min' or 'max'")
    require_same_space(T, mset, "the operator and the set")
    idx = mset.indices
    s = idx.size
    if s == 0:
        raise NoFeasibleSign("the empty set supports no nonzero sign")
    cap = FULL_SUPPORT_EXHAUSTIVE_LIMIT if full_support else TERNARY_EXHAUSTIVE_LIMIT
    if s > cap:
        raise SetTooLarge(f"set size {s} exceeds the exhaustive cap {cap}")
    best, value = best_signs(T, idx[None, :], full_support, objective,
                             require_mean_zero)
    if not np.isfinite(value[0]):
        raise NoFeasibleSign(
            "no mean-zero sign exists on this set (cannot balance weights)"
        )
    values = np.zeros(T.space.n_atoms, dtype=np.int8)
    values[idx] = best[0]
    return SignVector(space=T.space, values=values), float(value[0])
