"""End-to-end sign-construction pipelines with certified reports.

Each pipeline constructs a mean-zero sign on the whole space whose images
under two operators stay within the requested budgets, re-validating every
claim by direct re-application.  Refinements performed along the way are
recorded in the report's `refine_map` so callers can lift companion objects
from the input space to the final one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import (
    AdaptiveBudgetExhausted,
    NonDyadic,
    NoSignFound,
    NotLocallyConvex,
    NoTruncationSmallEnough,
    PreconditionFailed,
    RankTooLarge,
    RefinementBudgetExceeded,
    StageFailed,
)
from .linalg import rank_factorization
from .measure import (
    MeasurableSet,
    MeasureSpace,
    RefineMap,
    SignVector,
    _check_split,
    _cut_sums,
    _is_power_of_two,
    _wave_sums,
    rademacher_signs,
)
from .narrowness import (
    _EXHAUSTIVE_SEARCH_LIMIT,
    DEFAULT_REFINE_BUDGET,
    Partition,
    _pair_equal_rows,
    cell_segments,
    check_budgets,
    check_integers,
    exhaustive_cell_signs,
    find_small_sign,
    net_cover,
    partition_small_cells,
)
from .norms import dual_unit_functional, fnorm, fnorm_many, sup_norm
from .operators import DiscreteOperator, RefinementContext, require_same_space
from .rounding import sign_round

_TOL = 1e-9
DEFAULT_RANK_LIMIT = 16
# the compact sum's adaptive rounds, its sampled signs and its cap on
# separating functionals (the rank limit of each round's finite-rank run)
_MAX_ADAPTIVE_ROUNDS = 5
_SAMPLE_BUDGET = 24
_FUNCTIONAL_CAP = 64


@dataclass(frozen=True)
class PipelineParams:
    """Budgets of the pairing construction and the compact sum, each
    checked once here.

    `pairing_construction` reads sigma, epsilon, gamma, delta and
    `refine_budget`; `sum_compact_locally_convex` reads epsilon, `seed`
    and `refine_budget`.
    """

    sigma: float = 0.1
    epsilon: float = 0.1
    gamma: float = 0.05
    delta: float = 0.025
    seed: int = 0
    refine_budget: int = DEFAULT_REFINE_BUDGET

    def __post_init__(self):
        check_budgets(sigma=self.sigma, epsilon=self.epsilon,
                      gamma=self.gamma, delta=self.delta)
        check_integers(0, seed=self.seed)
        check_integers(1, refine_budget=self.refine_budget)


@dataclass(eq=False)
class PipelineReport:
    """Constructed sign plus certificates and per-stage diagnostics."""

    pipeline: str
    sign: SignVector | None
    achieved: dict
    budgets: dict
    stages: list
    refine_map: RefineMap
    space: MeasureSpace
    status: str = "success"
    partition_summary: dict | None = None
    rounding_certificate: float | None = None
    adaptive_rounds: int = 0
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "status": self.status,
            "sign": self.sign.values.tolist() if self.sign is not None else None,
            "achieved": self.achieved,
            "budgets": self.budgets,
            "stages": self.stages,
            "partition": self.partition_summary,
            "rounding_certificate": self.rounding_certificate,
            "adaptive_rounds": self.adaptive_rounds,
            "space": self.space.to_json(),
            "extras": {k: v.tolist() if isinstance(v, np.ndarray) else v
                       for k, v in self.extras.items()},
        }


def _certify(ctx: RefinementContext, values, budgets: dict,
             stage: int) -> tuple[SignVector, dict]:
    """The verdict every pipeline returns through: `values` is a mean-zero
    sign with full support on ctx's space, and its exact image
    (`RefinementContext.image`) under each operator ctx.op(key) named in
    `budgets` has norm <= budget + _TOL.  Returns the sign and the
    achieved norms."""
    x = SignVector.from_values(ctx.space, values)
    if not (x.mean_zero and x.values.all()):
        raise StageFailed(stage, "final sign is not a mean-zero sign on Omega")
    achieved = {k: fnorm(ctx.start[k].target, ctx.image(k, x.values))
                for k in budgets}
    if any(achieved[k] > budgets[k] + _TOL for k in budgets):
        raise StageFailed(stage, f"final norms violate the budgets: {achieved}")
    return x, achieved


@dataclass(frozen=True, eq=False)
class AbsContinuityResult:
    """Certified bound on sup ||T 1_A|| over mu(A) <= delta, plus a witness."""

    upper_bound: float
    witness_value: float
    witness_set: MeasurableSet


def _knapsack_fractional(values: np.ndarray, nums: np.ndarray, budget_num: int):
    """Fractional upper bound and integral greedy set for the knapsack
    max sum(values) subject to sum(nums) <= budget_num, values >= 0."""
    idx = np.flatnonzero(values > 0)
    density = values[idx] / nums[idx]
    order = idx[np.argsort(-density, kind="stable")]
    # the items taken before the first one that does not fit; np.cumsum adds
    # in order, so ub has the bits of adding their values one at a time
    used, acc = np.cumsum(nums[order]), np.cumsum(values[order])
    k = int(np.searchsorted(used, budget_num, side="right"))
    greedy = np.zeros(values.size, dtype=bool)
    greedy[order[:k]] = True
    ub = float(acc[k - 1]) if k else 0.0
    if k < order.size:
        # the first item that does not fit closes the fractional bound; the
        # integral greedy set keeps taking later items that fit
        i, left = order[k], budget_num - int(used[k] - nums[order[k]])
        ub += float(values[i]) * left / int(nums[i])
        for i in order[k + 1:][nums[order[k + 1:]] <= left].tolist():
            if nums[i] <= left:
                left -= int(nums[i])
                greedy[i] = True
    return ub, np.flatnonzero(greedy)


def check_absolute_continuity(T: DiscreteOperator, delta: float) -> AbsContinuityResult:
    """Upper bound on sup { ||T 1_A|| : mu(A) <= delta }.

    For sup targets the bound is the per-row fractional knapsack over
    same-sign entries (certified upper bound); the integral greedy set gives
    a witness lower bound.  Other norms use the column norm sum relaxation.
    """
    check_budgets(delta=delta)
    nums = T.space.numerators
    budget_num = int(Fraction(delta) * 2**T.space.denom_log2)
    budget_num = min(budget_num, int(nums.sum()))

    best_ub = 0.0
    candidates: list[np.ndarray] = []
    if T.target.kind == "sup":
        for r in range(T.target_dim):
            row = T.target.weights[r] * T.matrix[r]
            for sgn in (1.0, -1.0):
                vals = np.maximum(sgn * row, 0.0)
                ub, greedy = _knapsack_fractional(vals, nums, budget_num)
                best_ub = max(best_ub, ub)
                if greedy.size:
                    candidates.append(greedy)
    else:
        vals = T.column_norms()
        ub, greedy = _knapsack_fractional(np.asarray(vals), nums, budget_num)
        best_ub = ub
        if greedy.size:
            candidates.append(greedy)

    witness_value = 0.0
    witness = np.zeros(0, dtype=np.int64)
    for cand in candidates:
        v = T.indicator_image_norm(T.space.subset(cand))
        if v > witness_value:
            witness_value = v
            witness = cand
    return AbsContinuityResult(
        upper_bound=float(best_ub),
        witness_value=float(witness_value),
        witness_set=T.space.subset(witness),
    )


def _stage_row(size: int, block_a: int, block_b: int) -> np.ndarray:
    """(row a - row b) / 2 of the block Rademacher family on `size` live
    atoms, as int8: row = 1 - 2 (t // block % 2) at position t.  The space
    is dyadic after uniformize, a stage halves the live set and a retry
    doubles it, so its size and every block are powers of two, and
    t // block % 2 is bit log2(block) of t."""
    t = np.arange(size)
    bit_a, bit_b = int(block_a).bit_length() - 1, int(block_b).bit_length() - 1
    return (((t >> bit_b) & 1) - ((t >> bit_a) & 1)).astype(np.int8)


def pairing_construction(
    T1: DiscreteOperator, T2: DiscreteOperator, params: PipelineParams
) -> PipelineReport:
    """Mean-zero sign x on the whole space with ||T1 x|| <= sigma and
    ||T2 x|| <= epsilon, via paired block Rademacher signs.

    Stage j halves the live set: among block signs on A_j whose T1-image is
    within sigma/2^(j+1), a pigeonhole over a net of their T2-images yields a
    pair whose half-difference x_j has T2-image below (epsilon-gamma)/2^j and
    support of measure exactly mu(Omega)/2^j.  A tail sign on the remaining
    small set (measure <= delta) finishes the construction.

    The stages run on the live atoms alone: a retry splits each of them in
    two in O(live) and a stage freezes its support as a piece, so the
    refined space and its map are laid out once, after stage m
    (`MeasureSpace._tile`).  The images of the block signs come from their
    per-parent sums over the live atoms (`measure._wave_sums`) and the input
    matrices, so no operator is refined for the search; a stage keeps its
    levels' shares across its retries and sums only the level each one
    adds.  Only the chosen pair's half-difference is built, as an int8 row
    on the live atoms, and the stage's checks run on it there: mean zero
    and the support measure from its int64 sums of value times numerator,
    and the T1 and T2 norms from its per-input-atom sums between the cuts,
    which are the exact sums ``ctx.image`` would form on the whole space.
    """
    if not params.gamma < params.epsilon:
        raise ValueError("pairing needs gamma < epsilon")
    require_same_space(T1, T2, "operators")
    ctx = RefinementContext(T1.space, {"t1": T1, "t2": T2})
    us, umap = ctx.space.uniformize()
    ctx.apply_map(umap, us)
    if not _is_power_of_two(ctx.space.n_atoms):
        raise NonDyadic("pairing needs a power-of-two atom count after uniformize")

    ac = check_absolute_continuity(ctx.op("t2"), params.delta)
    if ac.upper_bound > params.gamma / 2 + _TOL:
        raise PreconditionFailed(
            f"||T2 1_A|| can reach {ac.upper_bound} > gamma/2 = {params.gamma / 2} "
            f"for mu(A) <= {params.delta}",
            detail={"witness_set": ac.witness_set, "bound": ac.upper_bound},
        )

    eps1 = params.epsilon - params.gamma
    total = ctx.space.total
    m = 1
    while total / 2**m > Fraction(params.delta):
        m += 1
        if m > 60:
            raise PreconditionFailed("delta too small: would need > 60 stages")

    # the live atoms are [lefts, lefts + num) / 2^d, at positions cuts[k] to
    # cuts[k + 1] - 1 inside input atom k of weight weights[k] / 2^d, in the
    # lowest terms (num odd or d 0) that ctx.refine_atoms would keep; stage
    # j freezes its support as a piece (d, num, lefts, stage label j, sign
    # values) for `_tile`
    n = atoms = ctx.space.n_atoms
    d, num = ctx.space.denom_log2, int(ctx.space.numerators[0])
    lefts = np.arange(n) * num
    cuts, weights = np.append(ctx.total_map.starts, n), ctx.parent_weights()
    pieces, stages = [], []
    for j in range(1, m + 1):
        budget_t1 = params.sigma / 2 ** (j + 1)
        budget_t2 = eps1 / 2**j
        stage_refines = 0
        shares = np.empty((0, T1.space.n_atoms))
        while True:
            # the live set size is a power of two
            blocks = lefts.size >> np.arange(1, lefts.size.bit_length())
            # each level's block sign as s / w over the input atoms, so its
            # image is an input matrix times that.  A retry splits the live atoms
            # in two: each level keeps its s / w bits, and the one new level is summed
            shares = np.vstack([shares, _wave_sums(
                num, lefts.size, blocks[len(shares):], cuts) / weights])
            # candidates: the levels whose block sign passes the T1 filter
            t1_norms = fnorm_many(T1.target, shares @ T1.matrix.T)
            cands = np.flatnonzero(t1_norms <= budget_t1 + _TOL)
            images = shares[cands] @ T2.matrix.T
            pair = None
            if len(cands) >= 2:
                net = net_cover(images, 0.499 * budget_t2, T2.target)
                # pairs within a net group first, then every other pair
                pair_order = [ab for grp in net.groups().values()
                              for ab in combinations(grp, 2)]
                seen = set(pair_order)
                pair_order += [ab for ab in combinations(range(len(cands)), 2)
                               if ab not in seen]
                pair = next(((a, b) for a, b in pair_order if fnorm(
                    T2.target, 0.5 * (images[a] - images[b])) < budget_t2), None)
            if pair is not None:
                break
            # a retry splits every live atom in two, with ctx.refine_atoms's
            # refusals: the int64 range first, then the budget
            stage_refines += 1
            _check_split(int(weights.sum()), 2)
            atoms += lefts.size
            if atoms > params.refine_budget:
                best = min((fnorm(T2.target, 0.5 * (x - y))
                            for x, y in combinations(images, 2)), default=None)
                raise StageFailed(j, f"no candidate pair within budgets (refinement to "
                                  f"{atoms} atoms exceeds budget {params.refine_budget})",
                                  best=best)
            if num % 2:
                lefts, weights, d = 2 * lefts, 2 * weights, d + 1
            else:
                num //= 2
            lefts = np.stack([lefts, lefts + num], axis=1).ravel()
            cuts = 2 * cuts

        a, b = cands[pair[0]], cands[pair[1]]
        v = _stage_row(lefts.size, blocks[a], blocks[b])
        terms = num * v.astype(np.int64)
        if terms.sum() != 0:
            raise StageFailed(j, "stage sign is not mean zero")
        support = v != 0
        if Fraction(num * int(support.sum()), 2**d) != total / 2**j:
            raise StageFailed(j, "support measure is not exactly mu(Omega)/2^j")
        sums = _cut_sums(cuts, terms)
        t1n = fnorm(T1.target, T1.matrix @ (sums / weights))
        t2n = fnorm(T2.target, T2.matrix @ (sums / weights))
        if t1n > params.sigma / 2**j + _TOL or t2n > eps1 / 2**j + _TOL:
            raise StageFailed(j, "stage norms violate the geometric schedule")
        stages.append({
            "stage": j,
            "levels": [int(a) + 1, int(b) + 1],
            "t1_norm": t1n,
            "t2_norm": t2n,
            "support_measure": str(total / 2**j),
            "refinements": stage_refines,
            "n_atoms": atoms,
        })
        # the atoms its sign leaves at 0 stay live; each cut moves to the
        # count of them before it
        pieces.append((d, num, lefts[support], np.full(support.sum(), j, dtype=np.int8),
                       v[support]))
        cuts = np.concatenate(([0], np.cumsum(~support)))[cuts]
        lefts = lefts[~support]

    # stage labels are 0 on the live atoms, j <= m <= 60 on stage j's and
    # m + 1 on the tail, so int8 holds them; x is the sum of the stage signs
    zeros = np.zeros(lefts.size, dtype=np.int8)
    space, rmap, (stage, x) = ctx.space._tile(d, pieces + [(d, num, lefts, zeros, zeros)])
    ctx.apply_map(rmap, space)
    ctx.arrays = {"stage": stage, "x": x}
    live = ctx.where("stage", 0)

    # tail sign z on the remaining small set
    res = find_small_sign(ctx.op("t1"), live, params.sigma / 2**m + _TOL,
                          refine_budget=params.refine_budget)
    ctx.apply_map(res.refine_map, res.operator.space)
    tail = ctx.where("stage", 0)
    z = res.sign
    t2z = fnorm(T2.target, ctx.image("t2", z.values))
    if t2z > params.gamma + _TOL:
        raise StageFailed(m + 1, f"tail sign T2-image {t2z} exceeds gamma")
    if not z.is_sign_on(tail):
        raise StageFailed(m + 1, "tail sign does not have full support on the rest")

    stage = ctx.arrays["stage"]
    stage[tail.indices] = m + 1
    x, achieved = _certify(ctx, ctx.arrays["x"] + z.values,
                           {"t1": params.sigma, "t2": params.epsilon}, m + 1)

    stages.append({
        "stage": m + 1,
        "role": "tail",
        "t1_norm": res.value,
        "t2_norm": t2z,
        "strategy": res.strategy,
        "n_atoms": ctx.space.n_atoms,
    })
    return PipelineReport(
        pipeline="pairing_construction",
        sign=x,
        achieved=achieved,
        budgets={"sigma": params.sigma, "epsilon": params.epsilon,
                 "gamma": params.gamma, "delta": params.delta},
        stages=stages,
        refine_map=ctx.total_map,
        space=ctx.space,
        extras={
            "n_stages": m,
            "abs_continuity_bound": ac.upper_bound,
            # each final atom's stage label, m + 1 on the tail: stage j's
            # sign is sign * (stage == j), for independent verification of
            # disjointness and the exact support measures
            "stage": stage,
        },
    )


def _coefficient_cells(coeff: DiscreteOperator, cell_budget: float) -> Partition:
    """The cells of `sum_finite_rank` over its coefficient operator: the
    first-fit cells (`partition_small_cells`) of the atoms whose column
    norm is within `cell_budget`, labelled first, then each atom over it as
    a cell of its own, in atom order, whose bound is the atom's exact
    single-atom bound."""
    bounds = coeff.column_norms()
    over = bounds > cell_budget
    small = np.flatnonzero(~over)
    cell = np.empty(coeff.space.n_atoms, dtype=np.int64)
    cell_bounds, exact = [], []
    if small.size:
        space = MeasureSpace(coeff.space.denom_log2, coeff.space.numerators[small])
        part = partition_small_cells(
            DiscreteOperator(coeff.matrix[:, small], space, coeff.target), cell_budget)
        cell[small], cell_bounds, exact = part.cell, part.bounds, part.exact
    singles = np.flatnonzero(over)
    cell[singles] = len(cell_bounds) + np.arange(singles.size)
    return Partition(space=coeff.space, cell=cell,
                     bounds=cell_bounds + bounds[singles].tolist(),
                     exact=exact + [True] * singles.size, epsilon=cell_budget)


def sum_finite_rank(
    T1: DiscreteOperator,
    T2: DiscreteOperator,
    sigma: float,
    epsilon: float,
    rank_limit: int = DEFAULT_RANK_LIMIT,
    refine_budget: int = DEFAULT_REFINE_BUDGET,
) -> PipelineReport:
    """Mean-zero sign x with ||T1 x|| <= sigma and ||T2 x|| <= epsilon for a
    finite-rank T2.

    Factor T2 through its pivot-column basis, partition the atoms so every
    cell's coefficient-norm sign bound is <= delta/(2m), pick a small-T1 sign
    per cell on the geometric schedule sigma/2^k, and balance the coefficient
    images by +-1 signs so the total coefficient norm stays <= delta,
    which forces ||T2 x|| <= epsilon: equal images cancel in pairs
    (`_pair_equal_rows`), and `sign_round` signs the rest, one per odd
    class, with `rounding_certificate` its certificate (0.0 if none is
    left).  Here delta = epsilon / sum ||b_i|| over the basis columns b_i,
    or (epsilon / sum ||b_i||)^(1/p) for an lp target with p < 1, whose
    F-norm is p-homogeneous.

    An atom whose coefficient column alone exceeds the cell budget
    delta/(2m) becomes a cell of its own (`_coefficient_cells`), and the
    report's `partition` gives that cell the atom's exact single-atom
    bound, above the cell budget.  A one-atom cell has no mean-zero sign
    with full support, so the search below splits it; each child carries
    its parent's share of every column, so the split sign's T1 and
    coefficient images are exactly 0.  The check of each cell's achieved
    coefficient norm against delta/m stays the verdict.

    The cell signs come from one batched exhaustive search over every cell
    (`exhaustive_cell_signs`); the cells it leaves, too large or without a
    sign within budget, then go through `find_small_sign` in cell order.
    A rejected cell of at most _EXHAUSTIVE_SEARCH_LIMIT atoms is split in
    two first, as the batched pass has tried every sign (all mean-zero with
    full support) that a first round of `find_small_sign` on it would try;
    a split over the refinement budget raises that search's `NoSignFound`.
    The coefficient images are exact in the atom weights: per-(cell, input
    atom) int64 sums of sign times numerator, then one product with the
    coefficient matrix on the input space, so a cell sign that cancels
    within every input atom has an image of exactly 0.
    Their check, each cell's coefficient norm <= delta/m, runs after every
    cell's search, so a search that raises `NoSignFound` on any cell takes
    precedence over `StageFailed` for a cell's coefficient norm.
    """
    check_budgets(sigma=sigma, epsilon=epsilon)
    check_integers(0, rank_limit=rank_limit)
    check_integers(1, refine_budget=refine_budget)
    require_same_space(T1, T2, "operators")
    # decide the rank in the target's norm: each row scaled as the norm
    # weighs it (w for sup, w^(1/p) for lp), so tiny entries under large
    # weights still count
    w = T2.target.weights
    if T2.target.kind == "lp":
        w = w ** (1.0 / T2.target.p)
    pivots, _, coeff = rank_factorization(T2.matrix * w[:, None])
    m = len(pivots)
    if m > rank_limit:
        raise RankTooLarge(f"numerical rank {m} exceeds limit {rank_limit}")

    budgets = {"sigma": sigma, "epsilon": epsilon}
    if m == 0:
        ctx = RefinementContext(T1.space, {"t1": T1, "t2": T2})
        res = find_small_sign(
            T1, T1.space.full_set(), sigma + _TOL, refine_budget=refine_budget
        )
        ctx.apply_map(res.refine_map, res.operator.space)
        x, achieved = _certify(ctx, res.sign.values, {"t1": sigma, "t2": epsilon}, 0)
        return PipelineReport(
            pipeline="sum_finite_rank",
            sign=x,
            achieved=achieved,
            budgets=budgets,
            stages=[{"cell": 1, "t1_norm": res.value, "strategy": res.strategy}],
            refine_map=ctx.total_map,
            space=ctx.space,
            extras={"rank": 0},
        )

    basis = T2.matrix[:, pivots]
    basis_norms = fnorm_many(T2.target, basis.T)
    norms_sum = float(np.sum(basis_norms))
    delta = epsilon / norms_sum
    if not T2.target.locally_convex:
        # ||c b|| = |c|^p ||b|| for p < 1, so coefficients within delta
        # give ||T2 x|| <= delta^p * sum ||b_i||; the root can round that
        # product above epsilon, so step delta down until it does not
        p = T2.target.p
        delta **= 1.0 / p
        while delta**p * norms_sum > epsilon:
            delta = math.nextafter(delta, 0.0)
    coeff_target = sup_norm(dim=m)
    ctx = RefinementContext(T1.space, {
        "t1": T1, "t2": T2, "coeff": DiscreteOperator(coeff, T1.space, coeff_target)})

    cell_budget = delta / (2 * m)
    partition = _coefficient_cells(ctx.op("coeff"), cell_budget)

    # rank the cells by decreasing measure, ties by index (a stable sort),
    # comparing exact int64 numerator sums over the atoms listed by cell
    n_cells = partition.n_cells
    members, _, starts = cell_segments(partition.cell)
    measures = np.add.reduceat(ctx.space.numerators[members], starts)
    order = np.argsort(-measures, kind="stable")
    rank = np.empty(n_cells, dtype=np.int64)
    rank[order] = np.arange(n_cells)
    # the label of atom i is the measure-order rank of its cell
    ctx.arrays = {"cell": rank[partition.cell]}
    cert_bounds = [partition.bounds[k] for k in order.tolist()]
    if n_cells > 32:
        # one global split makes every cell pairable at once, avoiding a
        # quadratic cascade of per-cell refinements on large partitions
        ctx.refine_atoms(range(ctx.space.n_atoms), 2, refine_budget)

    # one batched exhaustive pass first; a cell it accepts is final, as the
    # searches below refine only their own cell's atoms and carry every
    # other atom's column and weight over unchanged.  x holds the cell
    # signs, each on its own cell
    t1_budgets = [sigma * 2.0**-k for k in range(1, n_cells + 1)]
    cell = ctx.arrays["cell"]
    signs, t1_norms = exhaustive_cell_signs(ctx.op("t1"), cell)
    accepted = t1_norms < np.array(t1_budgets) + _TOL
    ctx.arrays["x"] = signs * accepted[cell]
    sizes = np.bincount(cell).tolist()
    strategies = ["exhaustive"] * n_cells
    for rank_k in np.flatnonzero(~accepted).tolist():
        cell_set = ctx.where("cell", rank_k)
        if sizes[rank_k] <= _EXHAUSTIVE_SEARCH_LIMIT:
            # the first round of find_small_sign would try no sign the
            # batched pass has not tried on this cell, so split it first
            try:
                ctx.refine_atoms(cell_set.indices, 2, refine_budget)
            except RefinementBudgetExceeded:
                # no search has refined this cell: its atoms, in order, are
                # those the batched sign was found on
                x = np.zeros(ctx.space.n_atoms, dtype=np.int8)
                x[cell_set.indices] = signs[cell == rank_k]
                val = float(t1_norms[rank_k])
                best = SignVector(space=ctx.space, values=x) if val < np.inf else None
                raise NoSignFound(
                    f"no sign with image norm < {t1_budgets[rank_k] + _TOL} "
                    "within the refinement budget", best_sign=best, best_value=val,
                ) from None
            cell_set = ctx.where("cell", rank_k)
        res = find_small_sign(
            ctx.op("t1"), cell_set, t1_budgets[rank_k] + _TOL,
            refine_budget=refine_budget,
        )
        ctx.apply_map(res.refine_map, res.operator.space)
        ctx.arrays["x"] += res.sign.values
        t1_norms[rank_k], strategies[rank_k] = res.value, res.strategy

    # each cell's coefficient image: over the atoms listed by cell, the
    # input atoms of each cell run in increasing order, so the (cell, input
    # atom) pairs are the runs of equal (cell, parent); s / w per pair, then
    # one segment sum per cell
    cell, x_cells = ctx.arrays["cell"], ctx.arrays["x"]
    members, _, starts = cell_segments(cell)
    parent = ctx.total_map.lift_values(np.arange(T1.space.n_atoms))[members]
    cuts = np.zeros(members.size, dtype=bool)
    cuts[starts] = True
    cuts[1:] |= parent[1:] != parent[:-1]
    pairs = np.flatnonzero(cuts)
    signed = x_cells.astype(np.int64) * ctx.space.numerators
    s = np.add.reduceat(signed[members], pairs)
    shares = s / ctx.parent_weights()[parent[pairs]]
    vectors = np.add.reduceat(coeff.T[parent[pairs]] * shares[:, None],
                              np.searchsorted(pairs, starts))
    coeff_norms = fnorm_many(coeff_target, vectors)
    over = np.flatnonzero(coeff_norms > delta / m + _TOL)
    if over.size:
        raise StageFailed(int(over[0]) + 1, f"cell coefficient norm "
                          f"{coeff_norms[over[0]]} exceeds delta/m")

    theta_signs, unpaired = _pair_equal_rows(vectors.view(np.int64))
    achieved_p = certificate = 0.0
    if unpaired.size:
        theta_signs[unpaired], achieved_p, certificate, _ = sign_round(
            vectors[unpaired], coeff_target)
    if certificate > delta + _TOL:
        raise StageFailed(0, f"rounding certificate {certificate} exceeds delta")
    if achieved_p > delta + _TOL:
        raise StageFailed(0, f"rounded coefficient norm {achieved_p} exceeds delta")

    x, achieved = _certify(ctx, theta_signs[cell] * x_cells,
                           {"t1": sigma, "t2": epsilon}, 0)

    columns = zip(sizes, t1_budgets, t1_norms.tolist(), coeff_norms.tolist(),
                  cert_bounds, strategies, theta_signs.tolist())
    stages = [{
        "cell": rank_k + 1,
        "size": size,
        "t1_budget": t1_budget,
        "t1_norm": t1_norm,
        "coeff_norm": coeff_norm,
        "cert_bound": cert_bound,
        "strategy": strategy,
        "theta": theta,
    } for rank_k, (size, t1_budget, t1_norm, coeff_norm, cert_bound, strategy, theta)
        in enumerate(columns)]
    return PipelineReport(
        pipeline="sum_finite_rank",
        sign=x,
        achieved={**achieved, "coefficient_norm": achieved_p},
        budgets={**budgets, "delta": delta, "cell_budget": cell_budget},
        stages=stages,
        refine_map=ctx.total_map,
        space=ctx.space,
        partition_summary=partition.summary(),
        rounding_certificate=certificate,
        extras={"rank": m, "basis_norms": [float(b) for b in basis_norms]},
    )


def _sample_signs(space: MeasureSpace, rng: np.random.Generator):
    """_SAMPLE_BUDGET deterministic sign samples, one int8 row each: block
    Rademacher family plus random signs."""
    n = space.n_atoms
    out = list(rademacher_signs(space.full_set())[:_SAMPLE_BUDGET])
    while len(out) < _SAMPLE_BUDGET:
        kind = rng.integers(0, 2)
        if kind == 0:
            out.append(rng.integers(0, 2, n) * 2 - 1)
        else:
            out.append(rng.integers(-1, 2, n))
    return np.array(out, dtype=np.int8).reshape(len(out), n)


def sum_compact_locally_convex(
    T1: DiscreteOperator, T2: DiscreteOperator, params: PipelineParams
) -> PipelineReport:
    """Mean-zero sign x with ||T1 x|| <= epsilon/2 and ||T2 x|| <= epsilon/2,
    via separating functionals over an adaptive net of sampled T2-images.

    Sampled sign images with norm > epsilon/2 are net-covered at radius
    epsilon/5; each center yields a normalized dual functional, and the
    stacked functionals reduce the problem to a finite-rank run with sup
    budget 1/2.  If the constructed sign's true T2-image escapes the net,
    the image is added as a new center and the round repeats, at most
    _MAX_ADAPTIVE_ROUNDS times.  The budget epsilon is `params.epsilon`.
    """
    epsilon = params.epsilon
    if not T2.target.locally_convex:
        raise NotLocallyConvex("the compact-sum pipeline needs a locally convex target")
    require_same_space(T1, T2, "operators")
    ctx = RefinementContext(T1.space, {"t1": T1, "t2": T2})
    us, umap = ctx.space.uniformize()
    ctx.apply_map(umap, us)
    rng = np.random.default_rng(params.seed)
    ctx.arrays["samples"] = _sample_signs(ctx.space, rng)

    target = T2.target
    extra_images: list[np.ndarray] = []
    trace: list[dict] = []
    rounds_log: list[dict] = []
    for rnd in range(1, _MAX_ADAPTIVE_ROUNDS + 1):
        t2c = ctx.op("t2")
        images = np.vstack([ctx.arrays["samples"] @ t2c.matrix.T, *extra_images])
        k1 = images[fnorm_many(target, images) > epsilon / 2]
        centers = net_cover(k1, epsilon / 5, target).centers
        if len(centers) > _FUNCTIONAL_CAP:
            raise RankTooLarge(
                f"net produced {len(centers)} functionals > cap {_FUNCTIONAL_CAP}"
            )
        rows = []
        functional_checks = []
        for y in centers:
            ny = fnorm(target, y)
            f = dual_unit_functional(target, y) / ny
            # |f(v)| <= (eps/5)/||y|| < 1/2 on the radius-eps/5 ball
            functional_checks.append((epsilon / 5) / ny)
            rows.append(f @ t2c.matrix)
        if any(c >= 0.5 for c in functional_checks):
            raise StageFailed(rnd, "a functional is not strictly separated from V")
        if rows:
            s1_matrix = np.stack(rows)
        else:
            s1_matrix = np.zeros((1, ctx.space.n_atoms))
        s1 = DiscreteOperator(s1_matrix, ctx.space, sup_norm(dim=s1_matrix.shape[0]))

        inner = sum_finite_rank(
            ctx.op("t1"), s1, sigma=epsilon / 2, epsilon=0.5,
            rank_limit=_FUNCTIONAL_CAP,
            refine_budget=params.refine_budget,
        )
        ctx.apply_map(inner.refine_map, inner.space)
        t2x = ctx.image("t2", inner.sign.values)
        val = fnorm(target, t2x)
        rounds_log.append({
            "round": rnd,
            "n_functionals": len(centers),
            "inner_t1": inner.achieved["t1"],
            "t2_norm": val,
        })
        if val <= epsilon / 2 + _TOL:
            x, achieved = _certify(ctx, inner.sign.values,
                                   {"t1": epsilon / 2, "t2": epsilon / 2}, rnd)
            if T1.target_dim == T2.target_dim:
                achieved["sum"] = fnorm(target, ctx.image("t1", x.values) + t2x)
            return replace(
                inner,
                pipeline="sum_compact_locally_convex",
                sign=x,
                achieved=achieved,
                budgets={"epsilon": epsilon, "t1": epsilon / 2, "t2": epsilon / 2},
                stages=rounds_log,
                adaptive_rounds=rnd,
                refine_map=ctx.total_map,
                extras={"net_size": len(centers)},
            )
        trace.append({"round": rnd, "norm": val, "image": [float(v) for v in t2x]})
        extra_images.append(t2x)
    raise AdaptiveBudgetExhausted(
        f"no success within {_MAX_ADAPTIVE_ROUNDS} adaptive rounds", trace
    )


def sum_compact_via_truncation(
    T1: DiscreteOperator,
    T2: DiscreteOperator,
    sigma: float,
    epsilon: float,
    tail_bound,
    refine_budget: int = DEFAULT_REFINE_BUDGET,
) -> PipelineReport:
    """Finite-rank reduction through a certified truncation schedule.

    `tail_bound(n)` must bound sup over signs z of ||T2 z - S_n z|| where
    S_n zeroes every target coordinate beyond n.  The smallest n with
    tail_bound(n) <= epsilon/2 is used, the finite-rank pipeline runs on S_n
    at budget epsilon/2, and the final sign is re-checked against the full
    operator.
    """
    check_budgets(sigma=sigma, epsilon=epsilon)
    check_integers(1, refine_budget=refine_budget)
    require_same_space(T1, T2, "operators")
    level = None
    for n in range(1, T2.target_dim + 1):
        if tail_bound(n) <= epsilon / 2:
            level = n
            break
    if level is None:
        raise NoTruncationSmallEnough(
            f"no truncation level up to {T2.target_dim} has tail <= {epsilon / 2}"
        )
    s_n = T2.restrict_rows(level)
    inner = sum_finite_rank(T1, s_n, sigma, epsilon / 2, refine_budget=refine_budget)
    ctx = RefinementContext(T1.space, {"t1": T1, "t2": T2})
    ctx.apply_map(inner.refine_map, inner.space)
    x, achieved = _certify(ctx, inner.sign.values, {"t1": sigma, "t2": epsilon}, 0)
    return replace(
        inner,
        pipeline="sum_compact_via_truncation",
        sign=x,
        achieved={"t1": achieved["t1"], "t2_truncated": inner.achieved["t2"],
                  "t2_full": achieved["t2"]},
        budgets={"sigma": sigma, "epsilon": epsilon,
                 "tail_bound": float(tail_bound(level))},
        extras={"truncation_level": level},
    )
