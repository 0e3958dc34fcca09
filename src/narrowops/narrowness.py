"""Sign-finding oracles, small-sign partitions, and the adversarial dual.

``partition_small_cells`` is the constructive counterpart of the small-cell
partition statement; ``adversarial_disjoint_signs`` realizes the proof's
inductive construction of disjoint large-image signs and, when it gets
stuck, certifies the partition instead.  The two outcomes are mutually
exclusive by construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AtomTooLarge,
    InvalidAtom,
    NoFeasibleSign,
    NoSignFound,
    RefinementBudgetExceeded,
    UnequalWeights,
)
from .measure import (
    MeasurableSet,
    MeasureSpace,
    RefineMap,
    SignVector,
    _as_indices,
    _read_only,
    rademacher_signs,
)
from .norms import TargetNorm, fnorm, fnorm_many
from .operators import (
    DiscreteOperator,
    RefinementContext,
    TERNARY_EXHAUSTIVE_LIMIT,
    best_signs,
    brute_force_best_sign,
    max_sign_image_norm,
    require_same_space,
)

DEFAULT_REFINE_BUDGET = 2**16
_EXHAUSTIVE_SEARCH_LIMIT = 10


def check_budgets(**budgets: float) -> None:
    """Raise ValueError unless every named budget is a finite and positive
    real number (not a bool or a string)."""
    for name, value in budgets.items():
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not (math.isfinite(value) and value > 0)):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def check_integers(minimum: int | None = None, /, **values) -> None:
    """Raise ValueError unless every named value is an integer (not a bool),
    and at least `minimum` when one is given."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


@dataclass(frozen=True, eq=False)
class NetCover:
    """Greedy metric net: point k lies within the net's radius of
    ``centers[assignments[k]]``."""

    centers: list[np.ndarray]
    assignments: list[int]

    @property
    def size(self) -> int:
        return len(self.centers)

    def groups(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for point_idx, center_idx in enumerate(self.assignments):
            out.setdefault(center_idx, []).append(point_idx)
        return out


def _net_points(points, radius: float) -> np.ndarray:
    """`points` as a float array, after `net_cover`'s checks: a positive
    finite `radius`, then finite points."""
    check_budgets(radius=radius)
    points = np.asarray(points, dtype=float)
    if not np.isfinite(points).all():
        raise ValueError("net points must be finite")
    return points


def net_cover(points, radius: float, norm: TargetNorm) -> NetCover:
    """Greedy net over the rows of `points`: scan them in order, joining the
    first center within `radius`, else opening a new center."""
    points = _net_points(points, radius)
    # rows [0, n_centers) are the centers opened so far
    centers = np.empty_like(points)
    n_centers = 0
    assignments: list[int] = []
    for p in points:
        near = np.flatnonzero(fnorm_many(norm, p - centers[:n_centers]) <= radius)
        if near.size:
            assignments.append(int(near[0]))
        else:
            centers[n_centers] = p
            assignments.append(n_centers)
            n_centers += 1
    return NetCover(centers=list(centers[:n_centers]), assignments=assignments)


def cell_segments(cell: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The atoms listed by cell, in increasing index order within each cell
    (one stable argsort of the labels `cell`), each cell's size, and where
    each cell's atoms start in that list."""
    members = np.argsort(cell, kind="stable")
    sizes = np.bincount(cell)
    return members, sizes, np.cumsum(sizes) - sizes


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint cells covering all atoms of `space`, each with a certified
    sign bound.

    ``cell`` is a read-only int64 array labelling each atom with its cell;
    the labels are exactly 0..n_cells-1, each one used, where n_cells is
    the number of bounds.  `partition_small_cells` keeps every bound within
    `epsilon`; the cells of `sum_finite_rank` add one-atom cells whose bound
    is the atom's exact single-atom bound, which exceeds it.
    """

    space: MeasureSpace
    cell: np.ndarray
    bounds: list[float]
    exact: list[bool]
    epsilon: float

    def __post_init__(self):
        cell = _as_indices(self.cell)
        if cell.size != self.space.n_atoms:
            raise InvalidAtom("a partition needs one cell label per atom")
        if not np.array_equal(np.unique(cell), np.arange(self.n_cells)):
            raise InvalidAtom(f"cell labels must be 0..{self.n_cells - 1}, each one used")
        object.__setattr__(self, "cell", _read_only(cell))

    @property
    def n_cells(self) -> int:
        return len(self.bounds)

    @cached_property
    def cells(self) -> list[MeasurableSet]:
        members, sizes, starts = cell_segments(self.cell)
        return [MeasurableSet(space=self.space, indices=members[lo:lo + size])
                for lo, size in zip(starts.tolist(), sizes.tolist())]

    def summary(self) -> dict:
        return {
            "n_cells": self.n_cells,
            "epsilon": self.epsilon,
            "cell_sizes": np.bincount(self.cell).tolist(),
            "bounds": list(self.bounds),
            "exact": list(self.exact),
        }


def partition_small_cells(T: DiscreteOperator, epsilon: float) -> Partition:
    """Partition all atoms into cells whose certified sign bound is <= epsilon.

    Greedy first-fit decreasing (Johnson 1974): atoms in decreasing
    single-atom bound order, ties by index, each placed in the first open cell
    that stays within epsilon, else in a new cell.  For sup targets the
    per-cell certificate is the exact row-absolute-sum value; otherwise the
    column norm sum upper bound is used.

    Atoms are placed by runs: stretches of consecutive atoms in that order
    whose contribution rows are bitwise equal, as a refinement's children
    are.  A run of one atom tries every open cell in one numpy reduction.
    A longer run goes to `_place_run`, which places all its copies with a
    few vectorized passes and gives the same cells and bit-identical sums:
    a cell that rejects a copy keeps its sum, so it rejects the rest of the
    run and the copies fill the cells in index order, and every cell's sum
    is the same chain of float additions, one copy at a time, as placing
    the atoms one by one.
    """
    check_budgets(epsilon=epsilon)
    # single-atom max sign-image bounds, exact for every norm kind
    bounds = T.column_norms()
    n = T.space.n_atoms
    order = np.lexsort((np.arange(n), -bounds))
    worst = int(order[0])
    if bounds[worst] > epsilon:
        raise AtomTooLarge(worst, float(bounds[worst]), epsilon)

    is_sup = T.target.kind == "sup"
    # one contribution row per atom, in first-fit order: weighted |column|
    # (sup), else its bound; every row's largest entry is its atom's bound
    contrib = (
        (T.target.weights[:, None] * np.abs(T.matrix)).T if is_sup else bounds[:, None]
    )
    rows = np.ascontiguousarray(contrib[order])
    bits = rows.view(np.int64)
    starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)])
    # row k accumulates cell k's contributions in the order the atoms join
    # it; column-major, so each reduction over a cell's row runs across the
    # few columns, and `accs.T` gives `_place_run` one column per cell
    accs = np.zeros(rows.shape, order="F")
    # the cell of the atom at each position of `order`
    placed = np.empty(n, dtype=np.int64)
    n_cells = 0
    for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [n]):
        c = rows[lo]
        if hi - lo == 1:
            fits = (accs[:n_cells] + c).max(axis=1) <= epsilon
            k = int(fits.argmax()) if fits.any() else n_cells
            accs[k] += c
            placed[lo] = k
        else:
            placed[lo:hi] = _place_run(accs.T[:, :n_cells + hi - lo], c,
                                        hi - lo, epsilon)
            k = int(placed[hi - 1])
        n_cells = max(n_cells, k + 1)
    cell_of = np.empty(n, dtype=np.int64)
    cell_of[order] = placed
    return Partition(
        space=T.space,
        cell=cell_of,
        bounds=accs[:n_cells].max(axis=1).tolist(),
        exact=[is_sup] * n_cells,
        epsilon=epsilon,
    )


def _place_run(
    sums: np.ndarray, c: np.ndarray, count: int, epsilon: float
) -> np.ndarray:
    """First-fit placement of `count` copies of the contribution row `c`
    into the columns of `sums`, one per cell: the open cells, then zero
    columns for the cells the run may open.  Adds the copies in place and
    returns each copy's cell, in order.

    Each pass adds `c` once more to every cell still taking copies, so a
    column is always the chain of additions that placing the copies one by
    one makes; a zero column takes its first copy, as `c` is within
    epsilon.  A cell stops at its first rejection, once `cur + c == cur`
    (it would take every copy left), or once it and the cells before it
    could hold the whole run; the passes skip the cells after the first
    such cell.
    """
    col = c[:, None]
    cur = sums.copy()
    m = cur.shape[1]
    done = np.zeros(m, dtype=np.int64)  # copies added into `cur`
    absorbs = np.zeros(m, dtype=bool)
    live = np.ones(m, dtype=bool)
    hi = m
    while live[:hi].any():
        trial = cur[:, :hi] + col
        fit = live[:hi] & (trial.max(axis=0) <= epsilon)
        same = fit & (trial == cur[:, :hi]).all(axis=0)
        np.copyto(cur[:, :hi], trial, where=fit)
        done[:hi] += fit
        absorbs[:hi] |= same
        live[:hi] = fit & ~same
        cap = np.where(absorbs[:hi], count, done[:hi])
        hi = int(np.searchsorted(np.cumsum(cap), count))
    # first fit: each cell takes what it can of what the cells before it left
    cap = np.where(absorbs, count, done)
    take = np.clip(count - (np.cumsum(cap) - cap), 0, cap)
    # `cur` holds each such cell's column after its copies
    ready = take >= done
    np.copyto(sums, cur, where=ready)
    # at most one cell, where the run runs out, took more copies in `cur`
    # than it keeps: add its copies again, one at a time
    for k in np.flatnonzero(~ready & (take > 0)).tolist():
        for _ in range(int(take[k])):
            sums[:, k] += c
    return np.repeat(np.arange(m), take)


@dataclass(frozen=True, eq=False)
class SmallSignResult:
    """Outcome of a small-sign search, possibly on a refined space.

    `refine_map` composes all refinements applied during the search, so the
    caller can lift companion operators, sets, and signs.
    """

    sign: SignVector
    operator: DiscreteOperator
    refine_map: RefineMap
    value: float
    strategy: str


def _pair_equal_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int8 signs +1, -1, +1, ... in index order within each class of
    bitwise-equal rows of the 2-d int64 `keys`, so that consecutive members
    cancel, and the rows left unpaired (each odd class's last), ascending.
    One stable lexsort lists the classes, each one's members in index order."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    starts = np.flatnonzero(np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)])
    sizes = np.diff(starts, append=order.size)
    rank = np.arange(order.size) - np.repeat(starts, sizes)
    signs = np.empty(order.size, dtype=np.int8)
    signs[order] = 1 - 2 * (rank & 1)
    return signs, np.sort(order[(starts + sizes - 1)[sizes % 2 == 1]])


def _kernel_pairing(
    T: DiscreteOperator, mset: MeasurableSet
) -> SignVector | None:
    """Pair equal-weight atoms with equal columns by `_pair_equal_rows`.

    Returns a full-support mean-zero sign with exactly zero image when every
    atom of the set can be paired, else None.
    """
    idx = mset.indices
    # key: the column's bit pattern plus the atom's numerator, so only
    # bitwise-equal columns of equal-weight atoms share a group
    cols = np.ascontiguousarray(T.matrix[:, idx].T).view(np.int64)
    signs, unpaired = _pair_equal_rows(
        np.column_stack([cols, T.space.numerators[idx]]))
    if unpaired.size:
        return None
    values = np.zeros(T.space.n_atoms, dtype=np.int8)
    values[idx] = signs
    return SignVector(space=T.space, values=values)


def _rademacher_scan(
    T: DiscreteOperator, mset: MeasurableSet, epsilon: float
) -> tuple[SignVector | None, float]:
    """Block Rademacher sign and its image norm: the first level, in level
    order, below epsilon, else the first minimum; (None, inf) when the set
    has no level."""
    try:
        family = rademacher_signs(mset)
    except UnequalWeights:
        return None, float("inf")
    if not len(family):
        return None, float("inf")
    vals = fnorm_many(T.target, family @ T.matrix.T)
    below = np.flatnonzero(vals < epsilon)
    b = int(below[0]) if below.size else int(np.argmin(vals))
    return SignVector(space=T.space, values=family[b]), float(vals[b])


def exhaustive_cell_signs(
    T: DiscreteOperator, cell: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The exhaustive search of `find_small_sign`, for many cells at once.

    `cell[i]` labels atom i with its cell 0..n-1; every label must be used.
    Runs `best_signs` once per cell size up to _EXHAUSTIVE_SEARCH_LIMIT, so
    each cell gets the bits of ``brute_force_best_sign(T, cell,
    full_support=True)``: it tries every mean-zero sign with full support,
    which is why `sum_finite_rank` splits a cell it rejects before searching
    it again.  Returns the signs found as one int8 array over the atoms (0
    on the other cells) and each cell's optimum (inf for a cell without one,
    or over the limit).
    """
    members, sizes, starts = cell_segments(cell)
    signs = np.zeros(T.space.n_atoms, dtype=np.int8)
    values = np.full(sizes.size, np.inf)
    for s in np.unique(sizes[sizes <= _EXHAUSTIVE_SEARCH_LIMIT]).tolist():
        ks = np.flatnonzero(sizes == s)
        # (cells, s) atom indices, increasing along each row
        idx = members[starts[ks][:, None] + np.arange(s)]
        signs[idx], values[ks] = best_signs(T, idx, True, "min", True)
    return signs, values


def find_small_sign(
    T: DiscreteOperator,
    mset: MeasurableSet,
    epsilon: float,
    refine_budget: int = DEFAULT_REFINE_BUDGET,
) -> SmallSignResult:
    """Mean-zero sign on `mset` (full support) with ||Tx|| < epsilon.

    Each round tries, in this order: the exhaustive optimum when the set has
    at most _EXHAUSTIVE_SEARCH_LIMIT atoms, kernel pairing (an exact zero by
    pairing equal columns of equal-weight atoms), and the block Rademacher
    signs level by level.  When none is below epsilon, every atom of the set
    is split in two and the round repeats, within `refine_budget` atoms.
    `strategy` names the step that succeeded.  The result may live on a
    refined space; `refine_map` lifts companions.
    """
    check_budgets(epsilon=epsilon)
    check_integers(1, refine_budget=refine_budget)
    require_same_space(T, mset, "the operator and the set")
    if mset.is_empty:
        raise NoSignFound("the empty set supports no sign")

    ctx = RefinementContext(T.space, {"t": T})
    cur_set = mset
    best_sign: SignVector | None = None
    best_val = float("inf")

    while True:
        cur_T = ctx.op("t")
        if cur_set.size <= _EXHAUSTIVE_SEARCH_LIMIT:
            try:
                sign, val = brute_force_best_sign(cur_T, cur_set, full_support=True)
                if val < best_val:
                    best_sign, best_val = sign, val
                if val < epsilon:
                    return SmallSignResult(
                        sign=sign, operator=cur_T,
                        refine_map=ctx.total_map, value=val, strategy="exhaustive",
                    )
            except NoFeasibleSign:
                pass
        sign = _kernel_pairing(cur_T, cur_set)
        if sign is not None:
            # paired atoms have bitwise-equal columns, so the image is
            # exactly zero (below every positive epsilon); do not let
            # summation order manufacture noise
            return SmallSignResult(
                sign=sign, operator=cur_T,
                refine_map=ctx.total_map, value=0.0, strategy="kernel_pairing",
            )
        sign, val = _rademacher_scan(cur_T, cur_set, epsilon)
        if val < epsilon:
            return SmallSignResult(
                sign=sign, operator=cur_T,
                refine_map=ctx.total_map, value=cur_T.image_norm(sign.values),
                strategy="rademacher_scan",
            )
        if val < best_val:
            best_sign, best_val = sign, val

        # refine every atom of the working set and retry; the set becomes a
        # label only here, as most searches succeed without refining
        if "set" not in ctx.arrays:
            ctx.arrays["set"] = np.zeros(ctx.space.n_atoms, dtype=np.int8)
            ctx.arrays["set"][cur_set.indices] = 1
        try:
            ctx.refine_atoms(cur_set.indices, 2, refine_budget)
        except RefinementBudgetExceeded:
            raise NoSignFound(
                f"no sign with image norm < {epsilon} within the refinement budget",
                best_sign=best_sign,
                best_value=best_val,
            ) from None
        cur_set = ctx.where("set", 1)


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
    T: DiscreteOperator, idx: np.ndarray
) -> tuple[np.ndarray | None, float]:
    """Large-image sign values supported inside the atoms `idx` (exact for
    sup targets)."""
    if not idx.size:
        return None, 0.0
    if T.target.kind == "sup":
        row_abs = np.abs(T.matrix[:, idx]).sum(axis=1) * T.target.weights
        r = int(np.argmax(row_abs))
        values = np.zeros(T.space.n_atoms, dtype=np.int8)
        values[idx] = np.sign(T.matrix[r, idx])
        if not values.any():
            return None, 0.0
        return values, T.image_norm(values)
    if idx.size <= TERNARY_EXHAUSTIVE_LIMIT:
        # a nonempty set always has a nonzero sign, so this cannot raise
        sign, val = brute_force_best_sign(
            T, T.space.subset(idx), require_mean_zero=False, objective="max"
        )
        return sign.values, val
    # too many atoms to enumerate: the full-support all-+1 sign on the set,
    # with no direction matching
    values = np.zeros(T.space.n_atoms, dtype=np.int8)
    values[idx] = 1
    return values, T.image_norm(values)


def _split_support(
    T: DiscreteOperator,
    sign: np.ndarray,
    epsilon: float,
    refine_budget: int,
) -> tuple[np.ndarray, RefinementContext] | None:
    """Split sign values with ||Tx|| > epsilon into two restrictions, each
    with image norm >= eps/2: a (2, n_atoms) array on the returned context's
    space.

    Refines the largest-contribution atom when the greedy split overshoots;
    mirrors the proof's narrowness-splitting step via restriction signs.
    """
    ctx = RefinementContext(T.space, {"t": T})
    ctx.arrays["sign"] = sign
    while True:
        t, x = ctx.op("t"), ctx.arrays["sign"]
        if t.image_norm(x) <= epsilon:
            return None
        support = np.flatnonzero(x)
        contrib = _restriction_values(t, x, support)
        # largest contribution first, ties by atom index (support is sorted)
        rank = np.argsort(-contrib, kind="stable")
        order = support[rank]
        # part A takes atoms in that order until its running sum reaches eps/2
        reached = np.cumsum(np.r_[0.0, contrib[rank]]) >= epsilon / 2
        n_a = int(reached.argmax()) if reached.any() else order.size
        pieces = np.zeros((2, x.size), dtype=np.int8)
        pieces[0, order[:n_a]] = x[order[:n_a]]
        pieces[1, order[n_a:]] = x[order[n_a:]]
        if (
            n_a < order.size
            and t.image_norm(pieces[0]) >= epsilon / 2
            and t.image_norm(pieces[1]) >= epsilon / 2
        ):
            return pieces, ctx
        # overshoot: refine the dominant atom so contributions shrink
        try:
            ctx.refine_atoms([order[0]], 2, refine_budget)
        except RefinementBudgetExceeded:
            return None


def _restriction_values(
    T: DiscreteOperator, sign: np.ndarray, support: np.ndarray
) -> np.ndarray:
    """Contribution of each atom of `support` along the direction realizing
    ||T sign||."""
    if T.target.kind == "sup":
        y = T.apply(sign)
        r = int(np.argmax(T.target.weights * np.abs(y)))
        return (T.target.weights[r] * T.matrix[r, support]
                * sign[support] * np.sign(y[r]))
    return np.array([fnorm(T.target, T.matrix[:, i]) for i in support])


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
    check_budgets(epsilon=epsilon)
    check_integers(1, count=count, refine_budget=refine_budget)
    ctx = RefinementContext(T.space, {"t": T})
    if not assume_partition_fails:
        try:
            part = partition_small_cells(T, epsilon)
            return AdversarialOutcome(
                signs=[], exhausted=True, certificate=part,
                operator=T, refine_map=ctx.total_map,
            )
        except AtomTooLarge:
            pass

    # one row per disjoint sign found so far, in the order they were found
    ctx.arrays["signs"] = np.zeros((0, T.space.n_atoms), dtype=np.int8)
    part = None
    while len(ctx.arrays["signs"]) < count:
        t, signs = ctx.op("t"), ctx.arrays["signs"]
        remainder = np.flatnonzero(~signs.any(axis=0))
        cand, val = _best_sign_within(t, remainder)
        if cand is not None and val >= epsilon / 2:
            ctx.arrays["signs"] = np.vstack([signs, cand])
            continue
        # cannot extend: split an existing sign whose support holds a large image
        for k, row in enumerate(signs):
            sub_best, sub_val = _best_sign_within(t, np.flatnonzero(row))
            if sub_best is None or sub_val <= epsilon:
                continue
            split = _split_support(t, sub_best, epsilon, refine_budget)
            if split is None:
                continue
            pieces, split_ctx = split
            ctx.apply_map(split_ctx.total_map, split_ctx.space)
            ctx.arrays["signs"] = np.vstack(
                [np.delete(ctx.arrays["signs"], k, axis=0), pieces])
            break
        else:
            # stuck: the supports, as cells 0..len(signs)-1, plus the
            # remainder, as the last cell, certify the partition
            cell = np.full(t.space.n_atoms, len(signs))
            rows, atoms = np.nonzero(signs)
            cell[atoms] = rows
            bounds, exact = zip(*(
                max_sign_image_norm(t, t.space.subset(np.flatnonzero(cell == k)))
                for k in range(len(signs) + bool(remainder.size))))
            part = Partition(space=t.space, cell=cell, bounds=list(bounds),
                             exact=list(exact), epsilon=epsilon)
            break
    return AdversarialOutcome(
        signs=[SignVector(space=ctx.space, values=row) for row in ctx.arrays["signs"]],
        exhausted=part is not None, certificate=part,
        operator=ctx.op("t"), refine_map=ctx.total_map,
    )
