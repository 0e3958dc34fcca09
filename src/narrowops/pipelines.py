"""End-to-end sign-construction pipelines with certified reports.

Each pipeline constructs a mean-zero sign on the whole space whose images
under two operators stay within the requested budgets, re-validating every
claim by direct re-application.  Refinements performed along the way are
recorded in the report's `refine_map` so callers can lift companion objects
from the input space to the final one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import (
    AdaptiveBudgetExhausted,
    AtomTooLarge,
    DimensionMismatch,
    NonDyadic,
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
    _is_power_of_two,
    rademacher_sign,
)
from .narrowness import (
    check_budgets,
    find_small_sign,
    net_cover,
    partition_small_cells,
)
from .norms import dual_unit_functional, fnorm, fnorm_many, sup_norm
from .operators import DiscreteOperator
from .rounding import sign_round

_TOL = 1e-9


@dataclass(frozen=True)
class PipelineParams:
    """Budgets and knobs shared by the pipelines."""

    sigma: float = 0.1
    epsilon: float = 0.1
    gamma: float = 0.05
    delta: float = 0.025
    net_radius: float | None = None
    seed: int = 0
    max_adaptive_rounds: int = 5
    refine_budget: int = 2**16
    sample_budget: int = 24
    functional_cap: int = 64

    def __post_init__(self):
        check_budgets(sigma=self.sigma, epsilon=self.epsilon,
                      gamma=self.gamma, delta=self.delta)
        if not self.gamma < self.epsilon:
            raise ValueError("need 0 < gamma < epsilon")


@dataclass(eq=False)
class PipelineReport:
    """Constructed sign plus certificates and per-stage diagnostics."""

    pipeline: str
    status: str
    sign: SignVector | None
    achieved: dict
    budgets: dict
    stages: list
    partition_summary: dict | None
    rounding_certificate: float | None
    adaptive_rounds: int
    refine_map: RefineMap
    space: MeasureSpace
    operators: dict
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
            "extras": self.extras,
        }


class _Ctx:
    """Mutable bundle of a space plus everything that must refine together."""

    def __init__(self, space: MeasureSpace, ops: dict):
        self.space = space
        self.ops = dict(ops)
        self.signs: list[SignVector] = []
        self.sets: dict[str, MeasurableSet] = {}
        self.total_map = RefineMap.identity(space.n_atoms)
        self.refinements = 0

    def apply_map(self, rmap: RefineMap, space: MeasureSpace) -> None:
        if rmap.is_identity:
            return
        self.space = space
        self.ops = {k: op.refine(rmap, space) for k, op in self.ops.items()}
        self.signs = [s.lift(rmap, space) for s in self.signs]
        self.sets = {k: v.lift(rmap, space) for k, v in self.sets.items()}
        self.total_map = self.total_map.compose(rmap)
        self.refinements += 1

    def refine_atoms(self, indices, parts: int, budget: int) -> None:
        space2, rmap = self.space.refine_atoms(indices, parts)
        if space2.n_atoms > budget:
            raise RefinementBudgetExceeded(
                f"refinement to {space2.n_atoms} atoms exceeds budget {budget}"
            )
        self.apply_map(rmap, space2)


def _require_same_space(T1: DiscreteOperator, T2: DiscreteOperator) -> None:
    if T1.space != T2.space:
        raise DimensionMismatch("operators must share the same source space")


def _uniformized_ctx(ops: dict) -> tuple[_Ctx, RefineMap]:
    space = next(iter(ops.values())).space
    us, umap = space.uniformize()
    ctx = _Ctx(us, {k: op.refine(umap, us) for k, op in ops.items()})
    return ctx, umap


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
    ub = 0.0
    used = 0
    greedy: list[int] = []
    for i in order:
        n = int(nums[i])
        if used + n <= budget_num:
            used += n
            ub += float(values[i])
            greedy.append(int(i))
        else:
            rest = budget_num - used
            if rest > 0:
                ub += float(values[i]) * rest / n
            used = budget_num
            # integral greedy keeps scanning for smaller items that still fit
    used_g = sum(int(nums[i]) for i in greedy)
    for i in order:
        i = int(i)
        if i in greedy:
            continue
        n = int(nums[i])
        if used_g + n <= budget_num:
            greedy.append(i)
            used_g += n
    return ub, sorted(greedy)


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
    candidates: list[list[int]] = []
    if T.target.kind == "sup":
        for r in range(T.target_dim):
            row = T.target.weights[r] * T.matrix[r]
            for sgn in (1.0, -1.0):
                vals = np.maximum(sgn * row, 0.0)
                if not np.any(vals > 0):
                    continue
                ub, greedy = _knapsack_fractional(vals, nums, budget_num)
                best_ub = max(best_ub, ub)
                if greedy:
                    candidates.append(greedy)
    else:
        vals = T.column_norms()
        ub, greedy = _knapsack_fractional(np.asarray(vals), nums, budget_num)
        best_ub = ub
        if greedy:
            candidates.append(greedy)

    witness_value = 0.0
    witness: list[int] = []
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
    """
    _require_same_space(T1, T2)
    ctx, umap = _uniformized_ctx({"t1": T1, "t2": T2})
    if not _is_power_of_two(ctx.space.n_atoms):
        raise NonDyadic("pairing needs a power-of-two atom count after uniformize")

    ac = check_absolute_continuity(ctx.ops["t2"], params.delta)
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

    ctx.sets["live"] = ctx.space.full_set()
    stages: list[dict] = []
    for j in range(1, m + 1):
        budget_t1 = params.sigma / 2 ** (j + 1)
        budget_t2 = eps1 / 2**j
        stage_refines = 0
        while True:
            live = ctx.sets["live"]
            t1c, t2c = ctx.ops["t1"], ctx.ops["t2"]
            cands: list[tuple[int, SignVector, np.ndarray]] = []
            level = 1
            while live.size % 2**level == 0 and 2**level <= live.size:
                r = rademacher_sign(live, level)
                if fnorm(t1c.target, t1c.apply(r)) <= budget_t1 + _TOL:
                    cands.append((level, r, t2c.apply(r)))
                level += 1
            pair = None
            if len(cands) >= 2:
                radius = params.net_radius or 0.499 * budget_t2
                net = net_cover(
                    [c[2] for c in cands], radius, t2c.target,
                    tags=[c[0] for c in cands],
                )
                pair_order: list[tuple[int, int]] = []
                for grp in net.groups().values():
                    if len(grp) >= 2:
                        pair_order.extend(combinations(grp, 2))
                seen = set(pair_order)
                for ab in combinations(range(len(cands)), 2):
                    if ab not in seen:
                        pair_order.append(ab)
                for a, b in pair_order:
                    diff = 0.5 * (cands[a][2] - cands[b][2])
                    if fnorm(t2c.target, diff) < budget_t2:
                        pair = (a, b)
                        break
            if pair is not None:
                break
            stage_refines += 1
            try:
                ctx.refine_atoms(live.indices, 2, params.refine_budget)
            except RefinementBudgetExceeded as exc:
                best = min((fnorm(t2c.target, 0.5 * (x[2] - y[2]))
                            for x, y in combinations(cands, 2)), default=None)
                raise StageFailed(
                    j, f"no candidate pair within budgets ({exc})", best=best
                ) from exc

        a, b = pair
        live = ctx.sets["live"]
        t1c, t2c = ctx.ops["t1"], ctx.ops["t2"]
        vals = (cands[a][1].values - cands[b][1].values) // 2
        x_j = SignVector.from_values(ctx.space, vals)
        b_set = x_j.support_set()
        if not x_j.mean_zero:
            raise StageFailed(j, "stage sign is not mean zero")
        if ctx.space.measure(b_set.indices) != total / 2**j:
            raise StageFailed(j, "support measure is not exactly mu(Omega)/2^j")
        t1n = fnorm(t1c.target, t1c.apply(x_j))
        t2n = fnorm(t2c.target, t2c.apply(x_j))
        if t1n > params.sigma / 2**j + _TOL or t2n > eps1 / 2**j + _TOL:
            raise StageFailed(j, "stage norms violate the geometric schedule")
        ctx.signs.append(x_j)
        ctx.sets["live"] = live.difference(b_set)
        stages.append({
            "stage": j,
            "levels": [cands[a][0], cands[b][0]],
            "t1_norm": t1n,
            "t2_norm": t2n,
            "support_measure": str(total / 2**j),
            "refinements": stage_refines,
            "n_atoms": ctx.space.n_atoms,
        })

    # tail sign z on the remaining small set
    tail = ctx.sets["live"]
    res = find_small_sign(
        ctx.ops["t1"], tail, params.sigma / 2**m + _TOL,
        strategy="auto", refine_budget=params.refine_budget,
    )
    ctx.apply_map(res.refine_map, res.operator.space)
    z = res.sign
    t2z = fnorm(ctx.ops["t2"].target, ctx.ops["t2"].apply(z))
    if t2z > params.gamma + _TOL:
        raise StageFailed(m + 1, f"tail sign T2-image {t2z} exceeds gamma")
    if not z.is_sign_on(ctx.sets["live"]):
        raise StageFailed(m + 1, "tail sign does not have full support on the rest")

    x = z
    for s in ctx.signs:
        x = x.add_disjoint(s)
    achieved_t1 = fnorm(ctx.ops["t1"].target, ctx.ops["t1"].apply(x))
    achieved_t2 = fnorm(ctx.ops["t2"].target, ctx.ops["t2"].apply(x))
    status = "success"
    if achieved_t1 > params.sigma + _TOL or achieved_t2 > params.epsilon + _TOL:
        raise StageFailed(m + 1, "final norms violate the budgets")
    if not (x.mean_zero and x.values.all()):
        raise StageFailed(m + 1, "final sign is not a mean-zero sign on Omega")

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
        status=status,
        sign=x,
        achieved={"t1": achieved_t1, "t2": achieved_t2},
        budgets={"sigma": params.sigma, "epsilon": params.epsilon,
                 "gamma": params.gamma, "delta": params.delta},
        stages=stages,
        partition_summary=None,
        rounding_certificate=None,
        adaptive_rounds=0,
        refine_map=umap.compose(ctx.total_map),
        space=ctx.space,
        operators=ctx.ops,
        extras={
            "n_stages": m,
            "abs_continuity_bound": ac.upper_bound,
            # stage signs lifted to the final space, for independent
            # verification of disjointness and the exact support measures
            "stage_signs": [s.values.tolist() for s in ctx.signs],
            "tail_sign": z.values.tolist(),
        },
    )


def sum_finite_rank(
    T1: DiscreteOperator,
    T2: DiscreteOperator,
    sigma: float,
    epsilon: float,
    rank_limit: int = 16,
    refine_budget: int = 2**16,
    cell_strategy: str = "auto",
    pre_refine: bool | None = None,
) -> PipelineReport:
    """Mean-zero sign x with ||T1 x|| <= sigma and ||T2 x|| <= epsilon for a
    finite-rank T2.

    Factor T2 through its pivot-column basis, partition the atoms so every
    cell's coefficient-norm sign bound is <= delta/(2m), pick a small-T1 sign
    per cell on the geometric schedule sigma/2^k, and balance the coefficient
    images by +-1 rounding so the total coefficient norm stays <= delta,
    which forces ||T2 x|| <= epsilon.
    """
    check_budgets(sigma=sigma, epsilon=epsilon)
    _require_same_space(T1, T2)
    pivots, basis, coeff = rank_factorization(T2.matrix)
    m = len(pivots)
    if m > rank_limit:
        raise RankTooLarge(f"numerical rank {m} exceeds limit {rank_limit}")

    budgets = {"sigma": sigma, "epsilon": epsilon}
    if m == 0:
        res = find_small_sign(
            T1, T1.space.full_set(), sigma + _TOL,
            strategy=cell_strategy, refine_budget=refine_budget,
        )
        t2f = T2.refine(res.refine_map, res.operator.space)
        achieved_t2 = fnorm(t2f.target, t2f.apply(res.sign))
        return PipelineReport(
            pipeline="sum_finite_rank",
            status="success",
            sign=res.sign,
            achieved={"t1": res.value, "t2": achieved_t2},
            budgets=budgets,
            stages=[{"cell": 1, "t1_norm": res.value, "strategy": res.strategy}],
            partition_summary=None,
            rounding_certificate=None,
            adaptive_rounds=0,
            refine_map=res.refine_map,
            space=res.operator.space,
            operators={"t1": res.operator, "t2": t2f},
            extras={"rank": 0},
        )

    basis_norms = fnorm_many(T2.target, basis.T)
    delta = epsilon / float(np.sum(basis_norms))
    coeff_target = sup_norm(dim=m)
    ctx = _Ctx(T1.space, {
        "t1": T1,
        "t2": T2,
        "coeff": DiscreteOperator(coeff, T1.space, coeff_target),
    })

    cell_budget = delta / (2 * m)
    while True:
        try:
            partition = partition_small_cells(ctx.ops["coeff"], cell_budget)
            break
        except AtomTooLarge:
            bounds = ctx.ops["coeff"].column_norms()
            too_big = np.flatnonzero(bounds > cell_budget)
            ctx.refine_atoms(too_big, 2, refine_budget)

    order = sorted(
        range(partition.n_cells),
        key=lambda k: (-partition.cells[k].measure, k),
    )
    for rank_k, k in enumerate(order):
        ctx.sets[f"cell{rank_k}"] = partition.cells[k]
    cert_bounds = [partition.bounds[k] for k in order]
    if pre_refine is None:
        # one global split makes every cell pairable at once, avoiding a
        # quadratic cascade of per-cell refinements on large partitions
        pre_refine = partition.n_cells > 32
    if pre_refine:
        ctx.refine_atoms(range(ctx.space.n_atoms), 2, refine_budget)

    diagnostics: list[dict] = []
    for rank_k in range(partition.n_cells):
        k = rank_k + 1
        cell = ctx.sets[f"cell{rank_k}"]
        res = find_small_sign(
            ctx.ops["t1"], cell, sigma * 2.0**-k + _TOL,
            strategy=cell_strategy, refine_budget=refine_budget,
        )
        ctx.apply_map(res.refine_map, res.operator.space)
        x_k = res.sign
        p_k = fnorm(coeff_target, ctx.ops["coeff"].apply(x_k))
        if p_k > delta / m + _TOL:
            raise StageFailed(k, f"cell coefficient norm {p_k} exceeds delta/m")
        ctx.signs.append(x_k)
        diagnostics.append({
            "cell": k,
            "size": cell.size,
            "t1_budget": sigma * 2.0**-k,
            "t1_norm": res.value,
            "coeff_norm": p_k,
            "cert_bound": cert_bounds[rank_k],
            "strategy": res.strategy,
        })

    vectors = np.stack([ctx.ops["coeff"].apply(s) for s in ctx.signs])
    theta_signs, achieved_p, certificate, _ = sign_round(vectors, coeff_target)
    if certificate > delta + _TOL:
        raise StageFailed(0, f"rounding certificate {certificate} exceeds delta")
    if achieved_p > delta + _TOL:
        raise StageFailed(0, f"rounded coefficient norm {achieved_p} exceeds delta")

    values = np.zeros(ctx.space.n_atoms, dtype=np.int64)
    for sgn, s in zip(theta_signs, ctx.signs):
        values += int(sgn) * s.values
    x = SignVector.from_values(ctx.space, values)
    if not x.mean_zero:
        raise StageFailed(0, "combined sign is not mean zero")
    achieved_t1 = fnorm(ctx.ops["t1"].target, ctx.ops["t1"].apply(x))
    achieved_t2 = fnorm(ctx.ops["t2"].target, ctx.ops["t2"].apply(x))
    scale = max(1.0, float(np.max(np.abs(T2.matrix))) * ctx.space.n_atoms)
    if achieved_t1 > sigma + _TOL or achieved_t2 > epsilon + _TOL * scale:
        raise StageFailed(0, "final norms violate the budgets")

    for i, sgn in enumerate(theta_signs):
        diagnostics[i]["theta"] = int(sgn)
    return PipelineReport(
        pipeline="sum_finite_rank",
        status="success",
        sign=x,
        achieved={"t1": achieved_t1, "t2": achieved_t2,
                  "coefficient_norm": achieved_p},
        budgets={**budgets, "delta": delta, "cell_budget": cell_budget},
        stages=diagnostics,
        partition_summary=partition.summary(),
        rounding_certificate=certificate,
        adaptive_rounds=0,
        refine_map=ctx.total_map,
        space=ctx.space,
        operators=dict(ctx.ops),
        extras={"rank": m, "basis_norms": [float(b) for b in basis_norms]},
    )


def _sample_signs(space: MeasureSpace, rng: np.random.Generator, budget: int):
    """Deterministic sign samples: block Rademacher family plus random signs."""
    out: list[SignVector] = []
    full = space.full_set()
    n = space.n_atoms
    level = 1
    while n % 2**level == 0 and 2**level <= n and len(out) < budget:
        out.append(rademacher_sign(full, level))
        level += 1
    while len(out) < budget:
        kind = rng.integers(0, 2)
        if kind == 0:
            vals = rng.integers(0, 2, n) * 2 - 1
        else:
            vals = rng.integers(-1, 2, n)
        out.append(SignVector.from_values(space, vals))
    return out


def sum_compact_locally_convex(
    T1: DiscreteOperator,
    T2: DiscreteOperator,
    epsilon: float,
    params: PipelineParams,
) -> PipelineReport:
    """Mean-zero sign x with ||T1 x|| <= epsilon/2 and ||T2 x|| <= epsilon/2,
    via separating functionals over an adaptive net of sampled T2-images.

    Sampled sign images with norm > epsilon/2 are net-covered at radius
    epsilon/5; each center yields a normalized dual functional, and the
    stacked functionals reduce the problem to a finite-rank run with sup
    budget 1/2.  If the constructed sign's true T2-image escapes the net,
    the image is added as a new center and the round repeats.
    """
    check_budgets(epsilon=epsilon)
    if not T2.target.locally_convex:
        raise NotLocallyConvex("the compact-sum pipeline needs a locally convex target")
    _require_same_space(T1, T2)
    ctx, umap = _uniformized_ctx({"t1": T1, "t2": T2})
    rng = np.random.default_rng(params.seed)
    ctx.signs = _sample_signs(ctx.space, rng, params.sample_budget)

    target = T2.target
    extra_images: list[np.ndarray] = []
    trace: list[dict] = []
    rounds_log: list[dict] = []
    for rnd in range(1, params.max_adaptive_rounds + 1):
        t2c = ctx.ops["t2"]
        images = [t2c.apply(s) for s in ctx.signs] + extra_images
        k1 = [y for y in images if fnorm(target, y) > epsilon / 2]
        centers: list[np.ndarray] = []
        if k1:
            centers = net_cover(k1, epsilon / 5, target).centers
        if len(centers) > params.functional_cap:
            raise RankTooLarge(
                f"net produced {len(centers)} functionals > cap {params.functional_cap}"
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
            ctx.ops["t1"], s1, sigma=epsilon / 2, epsilon=0.5,
            rank_limit=max(params.functional_cap, 1),
            refine_budget=params.refine_budget,
        )
        ctx.apply_map(inner.refine_map, inner.space)
        x = inner.sign
        t2x = ctx.ops["t2"].apply(x)
        val = fnorm(target, t2x)
        rounds_log.append({
            "round": rnd,
            "n_functionals": len(centers),
            "inner_t1": inner.achieved["t1"],
            "t2_norm": val,
        })
        if val <= epsilon / 2 + _TOL:
            achieved = {"t1": inner.achieved["t1"], "t2": val}
            if ctx.ops["t1"].target_dim == ctx.ops["t2"].target_dim:
                total_img = ctx.ops["t1"].apply(x) + t2x
                achieved["sum"] = fnorm(target, total_img)
            return PipelineReport(
                pipeline="sum_compact_locally_convex",
                status="success",
                sign=x,
                achieved=achieved,
                budgets={"epsilon": epsilon, "t1": epsilon / 2, "t2": epsilon / 2},
                stages=rounds_log,
                partition_summary=inner.partition_summary,
                rounding_certificate=inner.rounding_certificate,
                adaptive_rounds=rnd,
                refine_map=umap.compose(ctx.total_map),
                space=ctx.space,
                operators=dict(ctx.ops),
                extras={"net_size": len(centers)},
            )
        trace.append({"round": rnd, "norm": val, "image": [float(v) for v in t2x]})
        extra_images.append(t2x)
    raise AdaptiveBudgetExhausted(
        f"no success within {params.max_adaptive_rounds} adaptive rounds", trace
    )


def sum_compact_via_truncation(
    T1: DiscreteOperator,
    T2: DiscreteOperator,
    sigma: float,
    epsilon: float,
    tail_bound,
    rank_limit: int = 16,
    refine_budget: int = 2**16,
    pre_refine: bool | None = None,
) -> PipelineReport:
    """Finite-rank reduction through a certified truncation schedule.

    `tail_bound(n)` must bound sup over signs z of ||T2 z - S_n z|| where
    S_n zeroes every target coordinate beyond n.  The smallest n with
    tail_bound(n) <= epsilon/2 is used, the finite-rank pipeline runs on S_n
    at budget epsilon/2, and the final sign is re-checked against the full
    operator.
    """
    check_budgets(sigma=sigma, epsilon=epsilon)
    _require_same_space(T1, T2)
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
    inner = sum_finite_rank(
        T1, s_n, sigma, epsilon / 2,
        rank_limit=rank_limit, refine_budget=refine_budget, pre_refine=pre_refine,
    )
    t2_final = T2.refine(inner.refine_map, inner.space)
    val = fnorm(T2.target, t2_final.apply(inner.sign))
    if val > epsilon + _TOL:
        raise StageFailed(0, f"full-operator image {val} exceeds epsilon")
    report = PipelineReport(
        pipeline="sum_compact_via_truncation",
        status="success",
        sign=inner.sign,
        achieved={"t1": inner.achieved["t1"], "t2_truncated": inner.achieved["t2"],
                  "t2_full": val},
        budgets={"sigma": sigma, "epsilon": epsilon,
                 "tail_bound": float(tail_bound(level))},
        stages=inner.stages,
        partition_summary=inner.partition_summary,
        rounding_certificate=inner.rounding_certificate,
        adaptive_rounds=0,
        refine_map=inner.refine_map,
        space=inner.space,
        operators={**inner.operators, "t2_full": t2_final},
        extras={"truncation_level": level},
    )
    return report
