"""Sign-finding oracles, small-sign partitions, and the adversarial dual.

``partition_small_cells`` is the constructive counterpart of the small-cell
partition statement; ``adversarial_disjoint_signs`` realizes the proof's
inductive construction of disjoint large-image signs and, when it gets
stuck, certifies the partition instead.  The two outcomes are mutually
exclusive by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AtomTooLarge,
    NoFeasibleSign,
    NoSignFound,
    RefinementBudgetExceeded,
    SetTooLarge,
)
from .measure import MeasurableSet, MeasureSpace, RefineMap, SignVector, rademacher_sign
from .norms import TargetNorm, fnorm
from .operators import (
    DiscreteOperator,
    TERNARY_EXHAUSTIVE_LIMIT,
    brute_force_best_sign,
    max_sign_image_norm,
)

DEFAULT_REFINE_BUDGET = 2**16
_EXHAUSTIVE_SEARCH_LIMIT = 10


def check_budgets(**budgets: float) -> None:
    """Raise ValueError unless every named budget is finite and positive."""
    for name, value in budgets.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True, eq=False)
class NetCover:
    """Greedy metric net: every covered point is within `radius` of a center."""

    centers: list[np.ndarray]
    radius: float
    norm: TargetNorm
    assignments: list[int]
    tags: list[object] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.centers)

    def groups(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for point_idx, center_idx in enumerate(self.assignments):
            out.setdefault(center_idx, []).append(point_idx)
        return out

    def covers(self, point: np.ndarray) -> bool:
        return any(fnorm(self.norm, point - c) <= self.radius for c in self.centers)


def net_cover(
    points: list[np.ndarray],
    radius: float,
    norm: TargetNorm,
    tags: list[object] | None = None,
) -> NetCover:
    """Greedy net: scan points in order, opening a center when none is close."""
    if radius <= 0:
        raise ValueError("net radius must be positive")
    centers: list[np.ndarray] = []
    assignments: list[int] = []
    center_tags: list[object] = []
    for i, p in enumerate(points):
        p = np.asarray(p, dtype=float)
        placed = False
        for k, c in enumerate(centers):
            if fnorm(norm, p - c) <= radius:
                assignments.append(k)
                placed = True
                break
        if not placed:
            centers.append(p)
            assignments.append(len(centers) - 1)
            center_tags.append(tags[i] if tags is not None else i)
    return NetCover(
        centers=centers,
        radius=radius,
        norm=norm,
        assignments=assignments,
        tags=center_tags,
    )


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint cells covering all atoms, each with a certified sign bound."""

    cells: list[MeasurableSet]
    bounds: list[float]
    exact: list[bool]
    epsilon: float

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def validate_cover(self) -> bool:
        n = self.cells[0].space.n_atoms if self.cells else 0
        idx = np.concatenate([c.indices for c in self.cells] or [np.zeros(0, np.int64)])
        return np.array_equal(np.sort(idx), np.arange(n))

    def summary(self) -> dict:
        return {
            "n_cells": self.n_cells,
            "epsilon": self.epsilon,
            "cell_sizes": [c.size for c in self.cells],
            "bounds": list(self.bounds),
            "exact": list(self.exact),
        }


def _atom_bounds(T: DiscreteOperator) -> np.ndarray:
    """Single-atom max sign-image bounds (exact for every norm kind)."""
    return T.column_norms()


def partition_small_cells(T: DiscreteOperator, epsilon: float) -> Partition:
    """Partition all atoms into cells whose certified sign bound is <= epsilon.

    Greedy first-fit decreasing (Johnson 1974): atoms in decreasing
    single-atom bound order, ties by index, each placed in the first open cell
    that stays within epsilon, else in a new cell.  For sup targets the
    per-cell certificate is the exact row-absolute-sum value; otherwise the
    column norm sum upper bound is used.
    """
    check_budgets(epsilon=epsilon)
    bounds = _atom_bounds(T)
    n = T.space.n_atoms
    order = np.lexsort((np.arange(n), -bounds))
    worst = int(order[0])
    if bounds[worst] > epsilon:
        raise AtomTooLarge(worst, float(bounds[worst]), epsilon)

    is_sup = T.target.kind == "sup"
    # one contribution row per atom: weighted |column| (sup), else its bound
    contrib = (
        (T.target.weights[:, None] * np.abs(T.matrix)).T if is_sup else bounds[:, None]
    )
    # row k accumulates cell k's contributions in the order the atoms join it
    accs = np.zeros_like(contrib)
    cell_of = np.empty(n, dtype=np.int64)
    n_cells = 0
    for i in order.tolist():
        c = contrib[i]
        fits = (accs[:n_cells] + c).max(axis=1) <= epsilon
        k = int(fits.argmax()) if fits.any() else n_cells
        n_cells = max(n_cells, k + 1)
        accs[k] += c
        cell_of[i] = k

    # stable, so each cell's slice lists its atoms in increasing index order
    members = np.argsort(cell_of, kind="stable")
    splits = np.cumsum(np.bincount(cell_of, minlength=n_cells))[:-1]
    return Partition(
        cells=[MeasurableSet(space=T.space, indices=c) for c in np.split(members, splits)],
        bounds=accs[:n_cells].max(axis=1).tolist(),
        exact=[is_sup] * n_cells,
        epsilon=epsilon,
    )


@dataclass(frozen=True, eq=False)
class SmallSignResult:
    """Outcome of a small-sign search, possibly on a refined space.

    `refine_map` composes all refinements applied during the search, so the
    caller can lift companion operators, sets, and signs.
    """

    sign: SignVector
    operator: DiscreteOperator
    mset: MeasurableSet
    refine_map: RefineMap
    value: float
    strategy: str


def _kernel_pairing(
    T: DiscreteOperator, mset: MeasurableSet
) -> SignVector | None:
    """Pair equal-weight atoms with equal columns; +1/-1 per pair.

    Returns a full-support mean-zero sign with exactly zero image when every
    atom of the set can be paired, else None.
    """
    idx = mset.indices
    # key: the column's bit pattern plus the atom's numerator, so only
    # bitwise-equal columns of equal-weight atoms share a group
    cols = np.ascontiguousarray(T.matrix[:, idx].T).view(np.int64)
    keys = np.column_stack([cols, T.space.numerators[idx]])
    _, group = np.unique(keys, axis=0, return_inverse=True)
    group = group.ravel()
    if (np.bincount(group) % 2).any():
        return None
    # members of each group in index order; every group has even size, so
    # alternating +1/-1 over the concatenation pairs consecutive members
    order = np.argsort(group, kind="stable")
    values = np.zeros(T.space.n_atoms, dtype=np.int8)
    values[idx[order]] = 1 - 2 * (np.arange(idx.size) % 2)
    return SignVector(space=T.space, values=values)


def _rademacher_scan(
    T: DiscreteOperator, mset: MeasurableSet, epsilon: float
) -> tuple[SignVector | None, SignVector | None, float]:
    """Try block Rademacher signs at every level; return (hit, best, best_val)."""
    s = mset.size
    best: SignVector | None = None
    best_val = float("inf")
    if s < 2:
        return None, None, best_val
    nums = T.space.numerators[mset.indices]
    if (nums != nums[0]).any():
        return None, None, best_val
    level = 1
    while s % (2**level) == 0:
        sign = rademacher_sign(mset, level)
        val = T.image_norm(sign)
        if val < best_val:
            best, best_val = sign, val
        if val < epsilon:
            return sign, best, val
        level += 1
    return None, best, best_val


def find_small_sign(
    T: DiscreteOperator,
    mset: MeasurableSet,
    epsilon: float,
    strategy: str = "auto",
    refine_budget: int = DEFAULT_REFINE_BUDGET,
) -> SmallSignResult:
    """Mean-zero sign on `mset` (full support) with ||Tx|| < epsilon.

    Strategies: ``exhaustive`` (brute-force optimum, small sets only),
    ``rademacher_scan`` (block signs at increasing levels, refining the set's
    atoms as needed within the budget), ``kernel_pairing`` (exact zeros by
    pairing equal columns, refining as needed), or ``auto`` (all of them).
    The result may live on a refined space; `refine_map` lifts companions.
    """
    if strategy not in ("auto", "exhaustive", "rademacher_scan", "kernel_pairing"):
        raise ValueError(f"unknown strategy {strategy!r}")
    check_budgets(epsilon=epsilon)
    if mset.is_empty:
        raise NoSignFound("the empty set supports no sign")

    if strategy == "exhaustive":
        # single shot: refinement cannot improve an exhaustive optimum
        try:
            sign, val = brute_force_best_sign(
                T, mset, require_mean_zero=True, objective="min", full_support=True
            )
        except NoFeasibleSign as exc:
            raise NoSignFound(str(exc)) from exc
        if val < epsilon:
            return SmallSignResult(
                sign=sign, operator=T, mset=mset,
                refine_map=RefineMap.identity(T.space.n_atoms),
                value=val, strategy="exhaustive",
            )
        raise NoSignFound(
            f"exhaustive optimum {val} >= {epsilon}", best_sign=sign, best_value=val
        )

    cur_T, cur_set = T, mset
    total_map = RefineMap.identity(T.space.n_atoms)
    best_sign: SignVector | None = None
    best_val = float("inf")

    while True:
        if strategy == "auto" and cur_set.size <= _EXHAUSTIVE_SEARCH_LIMIT:
            try:
                sign, val = brute_force_best_sign(
                    cur_T, cur_set, require_mean_zero=True,
                    objective="min", full_support=True,
                )
                if val < best_val:
                    best_sign, best_val = sign, val
                if val < epsilon:
                    return SmallSignResult(
                        sign=sign, operator=cur_T, mset=cur_set,
                        refine_map=total_map, value=val, strategy="exhaustive",
                    )
            except (NoFeasibleSign, SetTooLarge):
                pass
        if strategy in ("auto", "kernel_pairing"):
            sign = _kernel_pairing(cur_T, cur_set)
            if sign is not None:
                # paired atoms have bitwise-equal columns, so the image is
                # exactly zero; do not let summation order manufacture noise
                val = 0.0
                if val < best_val:
                    best_sign, best_val = sign, val
                if val < epsilon:
                    return SmallSignResult(
                        sign=sign, operator=cur_T, mset=cur_set,
                        refine_map=total_map, value=val, strategy="kernel_pairing",
                    )
        if strategy in ("auto", "rademacher_scan"):
            hit, best, val = _rademacher_scan(cur_T, cur_set, epsilon)
            if best is not None and val < best_val:
                best_sign, best_val = best, val
            if hit is not None:
                return SmallSignResult(
                    sign=hit, operator=cur_T, mset=cur_set,
                    refine_map=total_map, value=cur_T.image_norm(hit),
                    strategy="rademacher_scan",
                )

        # refine every atom of the working set and retry
        new_total = cur_T.space.n_atoms + cur_set.size
        if new_total > refine_budget:
            raise NoSignFound(
                f"no sign with image norm < {epsilon} within the refinement budget",
                best_sign=best_sign,
                best_value=best_val,
            )
        space2, rmap = cur_T.space.refine_atoms(cur_set.indices, 2)
        cur_T = cur_T.refine(rmap, space2)
        cur_set = cur_set.lift(rmap, space2)
        total_map = total_map.compose(rmap)


@dataclass(frozen=True, eq=False)
class AdversarialOutcome:
    """Either `count` disjoint large-image signs or a partition certificate.

    When `exhausted` is true, `certificate` is a Partition witnessing that
    every sign supported in any one cell has image norm <= epsilon; `signs`
    then holds whatever disjoint signs were found before getting stuck.
    """

    signs: list[SignVector]
    exhausted: bool
    certificate: Partition | None
    operator: DiscreteOperator
    refine_map: RefineMap


def _best_sign_within(
    T: DiscreteOperator, indices: tuple[int, ...]
) -> tuple[SignVector | None, float]:
    """Large-image sign supported inside `indices` (exact for sup targets)."""
    if not indices:
        return None, 0.0
    idx = list(indices)
    if T.target.kind == "sup":
        row_abs = np.abs(T.matrix[:, idx]).sum(axis=1) * T.target.weights
        r = int(np.argmax(row_abs))
        values = np.zeros(T.space.n_atoms, dtype=np.int8)
        values[idx] = np.sign(T.matrix[r, idx])
        if not values.any():
            return None, 0.0
        sign = SignVector(space=T.space, values=values)
        return sign, T.image_norm(sign)
    if len(idx) <= TERNARY_EXHAUSTIVE_LIMIT:
        try:
            return brute_force_best_sign(
                T, T.space.subset(idx), require_mean_zero=False, objective="max"
            )
        except NoFeasibleSign:
            return None, 0.0
    # too many atoms to enumerate: the full-support all-+1 sign on the set,
    # with no direction matching
    values = np.zeros(T.space.n_atoms, dtype=np.int8)
    values[idx] = 1
    sign = SignVector(space=T.space, values=values)
    return sign, T.image_norm(sign)


def _split_support(
    T: DiscreteOperator,
    sign: SignVector,
    epsilon: float,
    refine_budget: int,
) -> tuple[list[SignVector], DiscreteOperator, RefineMap] | None:
    """Split a sign with ||Tx|| > epsilon into two restrictions each >= eps/2.

    Refines the largest-contribution atom when the greedy split overshoots;
    mirrors the proof's narrowness-splitting step via restriction signs.
    """
    total_map = RefineMap.identity(T.space.n_atoms)
    cur_T, cur_sign = T, sign
    while True:
        value = cur_T.image_norm(cur_sign)
        if value <= epsilon:
            return None
        support = cur_sign.support
        contrib = _restriction_values(cur_T, cur_sign)
        order = sorted(support, key=lambda i: (-contrib[i], i))
        acc = 0.0
        part_a: list[int] = []
        for i in order:
            if acc >= epsilon / 2:
                break
            part_a.append(i)
            acc += contrib[i]
        part_b = [i for i in support if i not in set(part_a)]
        za = _restrict(cur_sign, part_a)
        zb = _restrict(cur_sign, part_b)
        if (
            part_b
            and cur_T.image_norm(za) >= epsilon / 2
            and cur_T.image_norm(zb) >= epsilon / 2
        ):
            return [za, zb], cur_T, total_map
        # overshoot: refine the dominant atom so contributions shrink
        big = order[0]
        if cur_T.space.n_atoms + 1 > refine_budget:
            return None
        space2, rmap = cur_T.space.refine_atoms([big], 2)
        cur_T = cur_T.refine(rmap, space2)
        cur_sign = cur_sign.lift(rmap, space2)
        total_map = total_map.compose(rmap)


def _restriction_values(T: DiscreteOperator, sign: SignVector) -> dict[int, float]:
    """Per-atom contribution along the direction realizing ||T sign||."""
    y = T.apply(sign)
    if T.target.kind == "sup":
        r = int(np.argmax(T.target.weights * np.abs(y)))
        return {
            i: float(T.target.weights[r] * T.matrix[r, i] * sign.values[i] * np.sign(y[r]))
            for i in sign.support
        }
    return {
        i: float(fnorm(T.target, T.matrix[:, i]))
        for i in sign.support
    }


def _restrict(sign: SignVector, indices: list[int]) -> SignVector:
    values = np.zeros_like(sign.values)
    values[indices] = sign.values[indices]
    return SignVector(space=sign.space, values=values)


def adversarial_disjoint_signs(
    T: DiscreteOperator,
    epsilon: float,
    count: int,
    refine_budget: int = DEFAULT_REFINE_BUDGET,
    assume_partition_fails: bool = False,
) -> AdversarialOutcome:
    """Disjoint signs with ||Tx_i|| >= epsilon/2, or a partition certificate.

    By default the small-cell partition is attempted first so that the two
    diagnostics are mutually exclusive in outcome; set
    `assume_partition_fails` to force the inductive construction regardless.
    On getting stuck mid-construction, the collected supports plus the
    remainder themselves form a certified partition at epsilon.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    identity = RefineMap.identity(T.space.n_atoms)
    if not assume_partition_fails:
        try:
            part = partition_small_cells(T, epsilon)
            return AdversarialOutcome(
                signs=[], exhausted=True, certificate=part,
                operator=T, refine_map=identity,
            )
        except AtomTooLarge:
            pass

    cur_T = T
    total_map = identity
    signs: list[SignVector] = []
    while len(signs) < count:
        used: set[int] = set()
        for s in signs:
            used.update(s.support)
        remainder = tuple(i for i in range(cur_T.space.n_atoms) if i not in used)
        cand, val = _best_sign_within(cur_T, remainder)
        if cand is not None and val >= epsilon / 2:
            signs.append(cand)
            continue
        # cannot extend: split an existing sign whose support holds a large image
        progressed = False
        for k, s in enumerate(signs):
            sub_best, sub_val = _best_sign_within(cur_T, s.support)
            if sub_best is None or sub_val <= epsilon:
                continue
            split = _split_support(cur_T, sub_best, epsilon, refine_budget)
            if split is None:
                continue
            pieces, new_T, rmap = split
            if not rmap.is_identity:
                signs = [x.lift(rmap, new_T.space) for x in signs]
                total_map = total_map.compose(rmap)
                cur_T = new_T
                # pieces are already on the refined space
            signs.pop(k)
            signs.extend(pieces)
            progressed = True
            break
        if not progressed:
            # stuck: supports plus remainder certify the partition
            cells = [cur_T.space.subset(s.support) for s in signs]
            if remainder:
                cells.append(cur_T.space.subset(remainder))
            bounds = []
            exact = []
            for cell in cells:
                b, ex = max_sign_image_norm(cur_T, cell)
                bounds.append(b)
                exact.append(ex)
            part = Partition(cells=cells, bounds=bounds, exact=exact, epsilon=epsilon)
            return AdversarialOutcome(
                signs=signs, exhausted=True, certificate=part,
                operator=cur_T, refine_map=total_map,
            )
    return AdversarialOutcome(
        signs=signs, exhausted=False, certificate=None,
        operator=cur_T, refine_map=total_map,
    )
