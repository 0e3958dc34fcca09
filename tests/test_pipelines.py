"""Pipeline tests: preconditions, trivial reductions, certified success
reports, and independent re-validation of every constructed sign."""

import gc
import json
import re
import weakref
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from narrowops import (
    AdaptiveBudgetExhausted,
    DiscreteOperator,
    MeasureSpace,
    NarrowOpsError,
    NoSignFound,
    NotLocallyConvex,
    NonDyadic,
    NoTruncationSmallEnough,
    PipelineParams,
    PipelineReport,
    PreconditionFailed,
    RefinementBudgetExceeded,
    SignVector,
    StageFailed,
    check_absolute_continuity,
    find_small_sign,
    fnorm,
    fnorm_many,
    lp_norm,
    net_cover,
    pairing_construction,
    random_finite_rank,
    random_narrow_operator,
    rademacher_signs,
    sign_round,
    sum_compact_locally_convex,
    sum_compact_via_truncation,
    sum_finite_rank,
    sup_norm,
)
from narrowops import narrowness, operators, pipelines, rounding
from narrowops.instances import build_l1_example, l1_example_tail_bound
from narrowops.linalg import rank_factorization
from narrowops.narrowness import _EXHAUSTIVE_SEARCH_LIMIT, exhaustive_cell_signs
from narrowops.operators import RefinementContext
from narrowops.pipelines import _TOL, _certify, _coefficient_cells, _knapsack_fractional
import oracles
from revalidation import revalidate


def _oracle_knapsack(values, nums, budget_num):
    """The list-based greedy the boolean-mask version replaced."""
    idx = np.flatnonzero(values > 0)
    order = idx[np.argsort(-(values[idx] / nums[idx]), kind="stable")]
    ub, used, greedy = 0.0, 0, []
    for i in order:
        n = int(nums[i])
        if used + n <= budget_num:
            used += n
            ub += float(values[i])
            greedy.append(int(i))
        else:
            if budget_num - used > 0:
                ub += float(values[i]) * (budget_num - used) / n
            used = budget_num
    used_g = sum(int(nums[i]) for i in greedy)
    for i in order:
        i = int(i)
        if i not in greedy and used_g + int(nums[i]) <= budget_num:
            greedy.append(i)
            used_g += int(nums[i])
    return ub, sorted(greedy)


class TestAbsoluteContinuity:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), min_size=1,
                           max_size=12),
           data=st.data())
    def test_knapsack_matches_list_loop(self, values, data):
        vals = np.array(values)
        nums = np.array(data.draw(st.lists(st.integers(1, 8), min_size=vals.size,
                                           max_size=vals.size)))
        budget = data.draw(st.integers(0, int(nums.sum())))
        ub, greedy = _knapsack_fractional(vals, nums, budget)
        assert (ub, greedy.tolist()) == _oracle_knapsack(vals, nums, budget)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), size=st.integers(1, 24))
    def test_knapsack_has_the_bits_of_the_loop(self, data, size):
        # values from a small pool (density ties, zeros) or any float, so
        # the running sum in the bound rounds; small numerators, where later
        # items often fit exactly, or numerators up to 2^40
        values = st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.0, 0.1, 1 / 3]),
                           st.floats(0.0, 1e6, allow_subnormal=False))
        vals = np.array(data.draw(st.lists(values, min_size=size, max_size=size)))
        top = data.draw(st.sampled_from([4, 2**40]))
        nums = np.array(data.draw(st.lists(st.integers(1, top), min_size=size,
                                           max_size=size)), dtype=np.int64)
        total = int(nums.sum())
        budget = data.draw(st.one_of(st.just(0), st.integers(0, total),
                                     st.integers(total, 2 * total)))
        ub, greedy = _knapsack_fractional(vals, nums, budget)
        want_ub, want_greedy = oracles.knapsack_fractional(vals, nums, budget)
        assert ub.hex() == want_ub.hex()
        assert greedy.tolist() == want_greedy.tolist()

    def test_zero_operator(self):
        space = MeasureSpace.uniform(8)
        T = DiscreteOperator(np.zeros((2, 8)), space, sup_norm(dim=2))
        res = check_absolute_continuity(T, 0.25)
        assert res.upper_bound == 0.0

    def test_unconstrained(self):
        space = MeasureSpace.uniform(4)
        T = DiscreteOperator(np.ones((1, 4)), space, sup_norm(dim=1))
        res = check_absolute_continuity(T, 2.0)  # delta >= total measure
        assert res.upper_bound == pytest.approx(4.0)
        assert res.witness_value == pytest.approx(4.0)

    def test_exhaustive_subset_oracle(self):
        rng = np.random.default_rng(5)
        space = MeasureSpace.uniform(8)
        for _ in range(20):
            T = DiscreteOperator(rng.standard_normal((2, 8)), space, sup_norm(dim=2))
            delta = 3 / 8
            res = check_absolute_continuity(T, delta)
            # oracle: every subset with measure <= delta
            best = 0.0
            for r in range(1, 9):
                for combo in combinations(range(8), r):
                    if Fraction(r, 8) <= Fraction(3, 8):
                        best = max(best, T.indicator_image_norm(space.subset(combo)))
            assert res.upper_bound >= best - 1e-12
            assert res.witness_value <= best + 1e-12

    def test_l1_example(self):
        T = build_l1_example(5)
        # ||T 1_A||_l1 = mu(A intersect union of cells) <= mu(A) <= delta
        res = check_absolute_continuity(T, 1 / 32)
        assert res.upper_bound <= 1 / 32 + 1e-12


def _reference_pairing_construction(T1, T2, params):
    """The stage loop that refines the whole space at every retry, which the
    loop on the live atoms replaced: the live set is read back from the
    stage labels after each retry, every level's share is summed from the
    full block Rademacher family, a stage's norms come from its full-space
    image, and the same tail search and verdict follow."""
    ctx = RefinementContext(T1.space, {"t1": T1, "t2": T2})
    us, umap = ctx.space.uniformize()
    ctx.apply_map(umap, us)
    assert ctx.space.n_atoms & (ctx.space.n_atoms - 1) == 0
    ac = check_absolute_continuity(ctx.op("t2"), params.delta)
    assert ac.upper_bound <= params.gamma / 2 + _TOL
    eps1, total, m = params.epsilon - params.gamma, ctx.space.total, 1
    while total / 2**m > Fraction(params.delta):
        m += 1
    n = ctx.space.n_atoms
    ctx.arrays = {"stage": np.zeros(n, dtype=np.int8), "x": np.zeros(n, dtype=np.int8)}
    stages = []
    for j in range(1, m + 1):
        stage_refines = 0
        while True:
            live = ctx.where("stage", 0)
            family = rademacher_signs(live).astype(np.int64) * ctx.space.numerators
            shares = np.add.reduceat(family, ctx.total_map.starts, axis=1) \
                / ctx.parent_weights()
            t1_norms = fnorm_many(T1.target, shares @ T1.matrix.T)
            cands = np.flatnonzero(t1_norms <= params.sigma / 2 ** (j + 1) + _TOL)
            images = shares[cands] @ T2.matrix.T
            pair = None
            if len(cands) >= 2:
                net = net_cover(images, 0.499 * eps1 / 2**j, T2.target)
                pair_order = [ab for grp in net.groups().values()
                              for ab in combinations(grp, 2)]
                seen = set(pair_order)
                pair_order += [ab for ab in combinations(range(len(cands)), 2)
                               if ab not in seen]
                pair = next(((a, b) for a, b in pair_order if fnorm(
                    T2.target, 0.5 * (images[a] - images[b])) < eps1 / 2**j), None)
            if pair is not None:
                break
            stage_refines += 1
            try:
                ctx.refine_atoms(live.indices, 2, params.refine_budget)
            except RefinementBudgetExceeded as exc:
                best = min((fnorm(T2.target, 0.5 * (x - y))
                            for x, y in combinations(images, 2)), default=None)
                raise StageFailed(
                    j, f"no candidate pair within budgets ({exc})", best=best) from exc
        a, b = cands[pair[0]], cands[pair[1]]
        blocks = live.size >> np.arange(1, live.size.bit_length())
        t = np.arange(live.size)
        v = ((t // blocks[b] % 2) - (t // blocks[a] % 2)).astype(np.int8)
        n = ctx.space.n_atoms
        values = np.zeros(n, dtype=np.int8)
        values[live.indices] = v
        x_j = SignVector.from_values(ctx.space, values)
        assert x_j.mean_zero and x_j.support_set().measure == total / 2**j
        t1n = fnorm(T1.target, ctx.image("t1", values))
        t2n = fnorm(T2.target, ctx.image("t2", values))
        assert t1n <= params.sigma / 2**j + _TOL and t2n <= eps1 / 2**j + _TOL
        ctx.arrays["stage"][live.indices[v != 0]] = j
        ctx.arrays["x"] += values
        stages.append({"stage": j, "levels": [int(a) + 1, int(b) + 1],
                       "t1_norm": t1n, "t2_norm": t2n,
                       "support_measure": str(total / 2**j),
                       "refinements": stage_refines, "n_atoms": n})
    res = find_small_sign(ctx.op("t1"), ctx.where("stage", 0),
                          params.sigma / 2**m + _TOL, refine_budget=params.refine_budget)
    ctx.apply_map(res.refine_map, res.operator.space)
    tail = ctx.where("stage", 0)
    t2z = fnorm(T2.target, ctx.image("t2", res.sign.values))
    if t2z > params.gamma + _TOL:
        raise StageFailed(m + 1, f"tail sign T2-image {t2z} exceeds gamma")
    assert res.sign.is_sign_on(tail)
    ctx.arrays["stage"][tail.indices] = m + 1
    x, achieved = _certify(ctx, ctx.arrays["x"] + res.sign.values,
                           {"t1": params.sigma, "t2": params.epsilon}, m + 1)
    stages.append({"stage": m + 1, "role": "tail", "t1_norm": res.value,
                   "t2_norm": t2z, "strategy": res.strategy,
                   "n_atoms": ctx.space.n_atoms})
    return PipelineReport(
        pipeline="pairing_construction", sign=x, achieved=achieved,
        budgets={"sigma": params.sigma, "epsilon": params.epsilon,
                 "gamma": params.gamma, "delta": params.delta},
        stages=stages, refine_map=ctx.total_map, space=ctx.space,
        extras={"n_stages": m, "abs_continuity_bound": ac.upper_bound,
                "stage": ctx.arrays["stage"]})


def _pairing_outcome(pipeline, t1, t2, params):
    """A pairing run's report, refine map and space, or its error's type,
    message and best pair value."""
    try:
        rep = pipeline(t1, t2, params)
    except NarrowOpsError as exc:
        return type(exc), str(exc), getattr(exc, "best", None)
    return rep.to_json_dict(), rep.refine_map.counts.tolist(), rep.space


class TestPairing:
    def test_both_zero(self):
        space = MeasureSpace.uniform(8)
        z = DiscreteOperator(np.zeros((2, 8)), space, sup_norm(dim=2))
        rep = pairing_construction(z, z, PipelineParams(delta=0.25))
        assert rep.status == "success"
        assert rep.achieved["t1"] == rep.achieved["t2"] == 0.0
        assert rep.sign.mean_zero

    def test_t2_zero_reduces_to_t1(self):
        t1 = random_narrow_operator(1, 16, 3, 0.5)
        z = DiscreteOperator(np.zeros((3, 16)), t1.space, sup_norm(dim=3))
        rep = pairing_construction(t1, z, PipelineParams(sigma=0.1, delta=0.25))
        revalidate(rep, t1, z, 0.1, 0.1)

    def test_precondition_failure(self):
        space = MeasureSpace.uniform(4)
        big = DiscreteOperator(10 * np.ones((1, 4)), space, sup_norm(dim=1))
        t1 = DiscreteOperator(np.zeros((1, 4)), space, sup_norm(dim=1))
        with pytest.raises(PreconditionFailed):
            pairing_construction(t1, big, PipelineParams(delta=0.5))

    def test_l1_example_stages_exact(self):
        t2 = build_l1_example(5)
        t1 = random_narrow_operator(9, None, 3, 0.5, space=t2.space)
        params = PipelineParams(sigma=0.1, epsilon=0.1, gamma=0.05,
                                delta=1 / 64, refine_budget=2**14)
        rep = pairing_construction(t1, t2, params)
        revalidate(rep, t1, t2, 0.1, 0.1)
        total, m, stage = rep.space.total, rep.extras["n_stages"], rep.extras["stage"]
        # one label per atom: stages 1..m, then the tail, which holds the
        # rest of the measure
        assert np.isin(stage, np.arange(1, m + 2)).all()
        for j in range(1, m + 2):
            sign = SignVector.from_values(rep.space, rep.sign.values * (stage == j))
            assert sign.mean_zero
            assert sign.support_set().measure == total / 2**min(j, m)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_stages_match_the_refine_per_retry_loop(self, data, seed):
        # reports, maps and spaces, or errors with their best pair, equal
        # those of refining the whole space at every retry, on the L1
        # example and on uniformizable spaces of unequal dyadic weights,
        # with budgets on both sides of the atoms a run needs
        if data.draw(st.booleans()):
            t2 = build_l1_example(data.draw(st.integers(3, 9)))
            t1 = random_narrow_operator(seed, None, 3, 0.5, space=t2.space)
            params = PipelineParams(delta=1 / 64)
        else:
            # an atom of 2^k equal ones split in halves, at random, into 2
            # or more input atoms of unequal weights
            exps = [data.draw(st.integers(3, 5))]
            for _ in range(data.draw(st.integers(1, 6))):
                i = data.draw(st.sampled_from([i for i, e in enumerate(exps) if e]))
                exps[i:i + 1] = [exps[i] - 1] * 2
            num = data.draw(st.sampled_from([1, 2, 3, 5, 6]))
            space = MeasureSpace(data.draw(st.integers(0, 8)), [num << e for e in exps])
            rng = np.random.default_rng(seed)
            k = space.n_atoms
            t1 = DiscreteOperator(rng.standard_normal((2, k)) * data.draw(
                st.sampled_from([1e-4, 1e-3, 0.03, 1.0])), space, sup_norm(dim=2))
            t2 = DiscreteOperator(rng.standard_normal((2, k)) * 1e-5, space,
                                  lp_norm(1, dim=2))
            params = PipelineParams(delta=float(space.total) / data.draw(
                st.sampled_from([2, 8, 64])))
        rep = _pairing_outcome(pairing_construction, t1, t2,
                               replace(params, refine_budget=2**16))
        if isinstance(rep[2], MeasureSpace):
            n = rep[2].n_atoms
            params = replace(params, refine_budget=data.draw(st.sampled_from(
                [max(1, n // 2), max(1, n - 1), n, 2 * n])))
        got = _pairing_outcome(pairing_construction, t1, t2, params)
        want = _pairing_outcome(_reference_pairing_construction, t1, t2, params)
        assert got == want

    def test_stages_refine_no_space(self, monkeypatch):
        # the level-10 shape of the benchmark: its seven retries split the
        # live atoms alone, and the space is laid out once, after the stages
        calls = []
        for owner in (MeasureSpace, RefinementContext):
            refine = owner.refine_atoms
            monkeypatch.setattr(owner, "refine_atoms", lambda *args, refine=refine:
                                calls.append(args) or refine(*args))
        t2 = build_l1_example(10)
        t1 = random_narrow_operator(1, None, 3, 0.5, space=t2.space)
        rep = pairing_construction(t1, t2, PipelineParams(delta=1 / 64))
        assert sum(s.get("refinements", 0) for s in rep.stages) == 7
        assert rep.space.n_atoms == 14336 and calls == []

    def test_a_retry_past_the_int64_range_is_refused(self):
        # total 1 + 2^-60: two halves of it need a 2^62 numerator
        z = DiscreteOperator(np.zeros((1, 2)), MeasureSpace(61, [2**60 + 1] * 2),
                             sup_norm(dim=1))
        with pytest.raises(NonDyadic, match="^refining into 2 parts leaves the "
                                            "exact int64 range$"):
            pairing_construction(z, z, PipelineParams(delta=0.25))
        # integer weights of 2^59 halve the shared numerator at each retry,
        # in the lowest terms of refining the whole space, and stay clear of it
        z = DiscreteOperator(np.zeros((1, 2)), MeasureSpace(0, [2**59] * 2),
                             sup_norm(dim=1))
        params = PipelineParams(delta=2.0**58)
        got = _pairing_outcome(pairing_construction, z, z, params)
        assert sum(s.get("refinements", 0) for s in got[0]["stages"]) == 2
        assert got == _pairing_outcome(_reference_pairing_construction, z, z, params)

    @pytest.mark.parametrize("name, forged, message", [
        ("_stage_row", lambda row: lambda *args: np.abs(row(*args)),
         "stage sign is not mean zero"),
        ("_stage_row", lambda row: lambda *args: np.zeros_like(row(*args)),
         "support measure is not exactly mu\\(Omega\\)/2\\^j"),
        ("_cut_sums", lambda sums: lambda *args: sums(*args) + 2**40,
         "stage norms violate the geometric schedule"),
    ], ids=["mean-zero", "support", "norms"])
    def test_stage_checks(self, monkeypatch, name, forged, message):
        # the level-4 pairing report's first stage, with its row or its
        # per-input-atom sums forged so that exactly one check fails
        monkeypatch.setattr(pipelines, name, forged(getattr(pipelines, name)))
        with pytest.raises(StageFailed, match=f"^stage 1: {message}$"):
            _pairing_report()

    def test_determinism(self):
        t2 = build_l1_example(4)
        t1 = random_narrow_operator(2, None, 2, 0.5, space=t2.space)
        # delta = 1/16 allows indicator mass up to 1/16, so gamma/2 must
        # exceed that for the precondition to pass
        params = PipelineParams(sigma=0.1, epsilon=0.2, gamma=0.15, delta=1 / 16)
        a = pairing_construction(t1, t2, params)
        b = pairing_construction(t1, t2, params)
        assert a.to_json_dict() == b.to_json_dict()


class TestBudgets:
    @pytest.mark.parametrize("name", ["sigma", "epsilon", "gamma", "delta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0, True, "0.1", [0.1], None])
    def test_params_reject_bad_budget(self, name, value):
        # a string used to escape as a bare TypeError from math.isfinite
        with pytest.raises(ValueError, match=name):
            PipelineParams(**{name: value})

    @pytest.mark.parametrize("name", ["seed", "refine_budget"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_params_reject_non_integer_counts(self, name, value):
        # a float used to be truncated, or to fail later inside range()
        with pytest.raises(ValueError, match=name):
            PipelineParams(**{name: value})

    @pytest.mark.parametrize("name, minimum", [("refine_budget", 1), ("seed", 0)])
    def test_params_reject_counts_below_their_minimum(self, name, minimum):
        # seed=-1 used to fail inside numpy without naming the field
        with pytest.raises(ValueError, match=f"{name} must be >= {minimum}"):
            PipelineParams(**{name: minimum - 1})
        assert getattr(PipelineParams(**{name: minimum}), name) == minimum

    @pytest.mark.parametrize("sigma,epsilon", [
        (0.1, np.nan),  # used to return status="success"
        (0.1, -1.0),  # used to refine to 131072 atoms before failing
        (np.inf, 0.1),
        ("0.1", 0.1),
        (0.1, None),
    ])
    def test_sum_pipelines_reject_bad_budget(self, sigma, epsilon):
        t2 = build_l1_example(4)
        t1 = random_narrow_operator(1, None, 3, 0.5, space=t2.space)
        with pytest.raises(ValueError):
            sum_finite_rank(t1, t2, sigma, epsilon)
        with pytest.raises(ValueError):
            sum_compact_via_truncation(t1, t2, sigma, epsilon, l1_example_tail_bound(4))

    @pytest.mark.parametrize("name", ["rank_limit", "refine_budget"])
    @pytest.mark.parametrize("value", [np.nan, 1.5, True, -1])
    def test_sum_pipelines_reject_bad_integer_params(self, name, value):
        # rank_limit=nan used to skip RankTooLarge, and refine_budget=nan to
        # turn the refinement budget off; truncation takes no rank limit
        t2 = build_l1_example(6)
        t1 = random_narrow_operator(1, None, 3, 0.5, space=t2.space)
        with pytest.raises(ValueError, match=name):
            sum_finite_rank(t1, t2, 0.1, 0.125, **{name: value})
        if name == "refine_budget":
            with pytest.raises(ValueError, match=name):
                sum_compact_via_truncation(t1, t2, 0.1, 0.125, l1_example_tail_bound(6),
                                           refine_budget=value)

    @pytest.mark.parametrize("gamma", [0.1, 0.2])
    def test_pairing_needs_gamma_below_epsilon(self, gamma):
        t2 = build_l1_example(4)
        t1 = random_narrow_operator(1, None, 3, 0.5, space=t2.space)
        params = PipelineParams(epsilon=0.1, gamma=gamma, delta=1 / 16)
        with pytest.raises(ValueError, match="gamma < epsilon"):
            pairing_construction(t1, t2, params)

    def test_compact_adaptive_rejects_bad_epsilon(self):
        t1 = random_narrow_operator(1, 16, 3, 0.5)
        t2 = random_finite_rank(2, 1, None, 4, space=t1.space)
        with pytest.raises(ValueError):
            sum_compact_locally_convex(t1, t2, PipelineParams(epsilon=np.nan))


class TestCertify:
    def test_rejects_a_zero_entry_and_an_image_over_budget(self):
        space = MeasureSpace.uniform(4)
        T = DiscreteOperator(np.array([[1.0, 0.0, 0.0, 0.0]]), space, sup_norm(dim=1))
        ctx = RefinementContext(space, {"t": T})
        # mean zero, but atoms 2 and 3 carry no sign
        with pytest.raises(StageFailed, match="not a mean-zero sign"):
            _certify(ctx, [1, -1, 0, 0], {"t": 1.0}, 3)
        # a full-support mean-zero sign whose image 1.0 is over budget 0.5
        with pytest.raises(StageFailed, match="final norms"):
            _certify(ctx, [1, -1, 1, -1], {"t": 0.5}, 3)
        x, achieved = _certify(ctx, [1, -1, 1, -1], {"t": 1.0}, 3)
        assert x.values.tolist() == [1, -1, 1, -1] and achieved == {"t": 1.0}
        with pytest.raises(StageFailed):
            _certify(ctx, [1, -1, 1, -1], {"t": 1.0 - 1.5e-9}, 3)

    def test_finite_rank_gives_large_entries_no_extra_tolerance(self):
        # row 0 has entries of 1000 under weight 1e-12, so the rank decision,
        # on the weighted rows, keeps rank 1 and drops the 144 equal rows of
        # entries below its 1e-10 tolerance; the sign they see on atoms 3-14
        # gives them an image of epsilon + 4e-9, and row 0 adds 1e-9
        n, rows, eps = 16, 144, 8e-9
        space = MeasureSpace.uniform(n)
        t1 = DiscreteOperator(np.zeros((1, n)), space, sup_norm(dim=1))
        m = np.zeros((rows + 1, n))
        m[0] = 1000.0
        m[0, 0] = 2000.0
        m[1:, 3:15] = (eps + 4e-9) / (rows * 12) * np.array(
            [-1, -1, 1, 1, 1, 1, -1, -1, -1, -1, 1, 1])
        t2 = DiscreteOperator(m, space, lp_norm(1, weights=[1e-12] + [1.0] * rows))
        assert np.abs(m).max() * n > 5
        with pytest.raises(StageFailed, match="final norms") as exc:
            sum_finite_rank(t1, t2, 0.1, eps)
        t2_norm = float(re.search(r"'t2': ([^,}]+)", str(exc.value)).group(1))
        assert t2_norm == pytest.approx(eps + 5e-9, abs=1e-15)


def _reference_sum_finite_rank(T1, T2, sigma, epsilon, refine_budget=2**16):
    """The per-cell loop the batched cell search replaced, for rank >= 1:
    one find_small_sign per cell in cell order, each cell's coefficient
    image by a full-space apply, and the same rounding and verdict."""
    w = T2.target.weights
    if T2.target.kind == "lp":
        w = w ** (1.0 / T2.target.p)
    pivots, _, coeff = rank_factorization(T2.matrix * w[:, None])
    m = len(pivots)
    assert m >= 1
    delta = epsilon / float(np.sum(fnorm_many(T2.target, T2.matrix[:, pivots].T)))
    coeff_target = sup_norm(dim=m)
    ctx = RefinementContext(T1.space, {
        "t1": T1, "t2": T2, "coeff": DiscreteOperator(coeff, T1.space, coeff_target)})
    # the same cells: first-fit cells of the atoms within the cell budget,
    # then each atom over it as a cell of its own
    partition = _coefficient_cells(ctx.op("coeff"), delta / (2 * m))
    cells = [ctx.space.subset(np.flatnonzero(partition.cell == k))
             for k in range(partition.n_cells)]
    order = sorted(range(partition.n_cells), key=lambda k: (-cells[k].measure, k))
    cell = np.empty(ctx.space.n_atoms, dtype=np.int64)
    for rank_k, k in enumerate(order):
        cell[cells[k].indices] = rank_k
    ctx.arrays = {"cell": cell, "x": np.zeros(ctx.space.n_atoms, dtype=np.int8)}
    if partition.n_cells > 32:
        ctx.refine_atoms(range(ctx.space.n_atoms), 2, refine_budget)
    stages = []
    for rank_k in range(partition.n_cells):
        k = rank_k + 1
        cell_set = ctx.where("cell", rank_k)
        res = find_small_sign(ctx.op("t1"), cell_set, sigma * 2.0**-k + _TOL,
                              refine_budget=refine_budget)
        ctx.apply_map(res.refine_map, res.operator.space)
        p_k = fnorm(coeff_target, ctx.op("coeff").apply(res.sign.values))
        if p_k > delta / m + _TOL:
            raise StageFailed(k, f"cell coefficient norm {p_k} exceeds delta/m")
        ctx.arrays["x"] += res.sign.values
        stages.append({"cell": k, "size": cell_set.size, "t1_budget": sigma * 2.0**-k,
                       "t1_norm": res.value, "coeff_norm": p_k,
                       "strategy": res.strategy})
    cell, x_cells = ctx.arrays["cell"], ctx.arrays["x"]
    vectors = np.stack([ctx.op("coeff").apply(np.where(cell == rank_k, x_cells, 0))
                        for rank_k in range(partition.n_cells)])
    theta, achieved_p, certificate, _ = sign_round(vectors, coeff_target)
    assert certificate <= delta + _TOL and achieved_p <= delta + _TOL
    x, achieved = _certify(ctx, theta[cell] * x_cells, {"t1": sigma, "t2": epsilon}, 0)
    return PipelineReport(pipeline="sum_finite_rank", sign=x, achieved=achieved,
                          budgets={}, stages=stages, refine_map=ctx.total_map,
                          space=ctx.space)


# (seed, atoms, rank, target_dim, scale): random_narrow T1 with decay 0.5
# and a random finite-rank T2 on its space
_FINITE_RANK_CASES = [
    (8, 32, 2, 4, 1e-3), (21, 32, 2, 6, 1e-3), (22, 128, 3, 6, 1e-3),
    (23, 64, 1, 6, 1e-2), (6, 64, 3, 6, 1e-4), (20, 64, 3, 6, 1e-4),
    (24, 256, 4, 6, 1e-4), (31, 64, 2, 4, 1e-5),
]


class TestSumFiniteRank:
    def test_cells_match_the_per_cell_loop(self):
        seen = set()
        for seed, atoms, rank, dim, scale in _FINITE_RANK_CASES:
            t1 = random_narrow_operator(seed, atoms, 3, 0.5)
            t2 = random_finite_rank(seed + 1, rank, None, dim, scale=scale,
                                    space=t1.space)
            rep = sum_finite_rank(t1, t2, 0.1, 0.1)
            ref = _reference_sum_finite_rank(t1, t2, 0.1, 0.1)
            assert len(rep.stages) == len(ref.stages)
            for got, want in zip(rep.stages, ref.stages):
                for key in ("cell", "size", "t1_budget", "t1_norm", "strategy"):
                    assert got[key] == want[key], (seed, got["cell"], key)
                assert got["coeff_norm"] == pytest.approx(want["coeff_norm"], abs=1e-12)
                if got["size"] > 10:
                    seen.add("over the exhaustive limit")
                elif got["strategy"] != "exhaustive":
                    seen.add("rejected by the exhaustive pass")
                if got["strategy"] == "kernel_pairing":
                    seen.add("kernel pairing")
            revalidate(rep, t1, t2, 0.1, 0.1)
            revalidate(ref, t1, t2, 0.1, 0.1)
        assert seen == {"over the exhaustive limit", "rejected by the exhaustive pass",
                        "kernel pairing"}

    def test_each_small_cell_is_searched_once(self):
        # three cells of at most 10 atoms fail their budget in the batched
        # pass here; an unrefined cell keeps its columns' bits, so a second
        # search of one would repeat a row of columns
        t1 = random_narrow_operator(20, 64, 3, 0.5)
        t2 = random_finite_rank(21, 3, None, 6, scale=1e-4, space=t1.space)
        search = mock.Mock(wraps=operators.best_signs)
        with mock.patch.object(operators, "best_signs", search), \
                mock.patch.object(narrowness, "best_signs", search):
            rep = sum_finite_rank(t1, t2, 0.1, 0.1)
        rows = [c.args[0].matrix[:, row].tobytes()
                for c in search.call_args_list for row in c.args[1]]
        small = [s for s in rep.stages if s["size"] <= _EXHAUSTIVE_SEARCH_LIMIT]
        assert sum(s["strategy"] != "exhaustive" for s in small) == 3
        assert len(set(rows)) == len(rows) == len(small)

    def test_a_split_over_budget_fails_as_the_per_cell_loop(self):
        # from 89 atoms on, the budget stops the split of a rejected cell of
        # at most 10 atoms (10, 8 or 7 atoms; the last has no balanced
        # sign): the error carries the same message, best sign and value
        # as the per-cell loop's find_small_sign, whose first round searched
        # the unrefined cell
        t1 = random_narrow_operator(20, 64, 3, 0.5)
        t2 = random_finite_rank(21, 3, None, 6, scale=1e-4, space=t1.space)
        for budget in range(64, 114):
            errors = []
            for pipeline in (sum_finite_rank, _reference_sum_finite_rank):
                with pytest.raises(NoSignFound) as exc:
                    pipeline(t1, t2, 0.1, 0.1, refine_budget=budget)
                best = exc.value.best_sign
                errors.append((str(exc.value), exc.value.best_value, None if best is None
                               else (best.space.n_atoms, best.values.tolist())))
            assert errors[0] == errors[1], budget
        sum_finite_rank(t1, t2, 0.1, 0.1, refine_budget=114)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(3, 24), rank=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_cell_ranks_follow_the_exact_measures(self, data, n, rank, seed):
        # unequal dyadic weights from three sizes, so cell measures often tie
        weights = data.draw(st.lists(
            st.sampled_from([Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)]),
            min_size=n, max_size=n))
        space = MeasureSpace.from_weights(weights)
        t1 = random_narrow_operator(seed, None, 3, 0.5, space=space)
        t2 = random_finite_rank(seed + 1, rank, None, 4, scale=1e-3, space=space)
        seen = {}

        def record_partition(*args):
            seen["partition"] = _coefficient_cells(*args)
            return seen["partition"]

        def record_cells(T, cell):
            seen["cell"] = cell.copy()
            return exhaustive_cell_signs(T, cell)

        with mock.patch.object(pipelines, "_coefficient_cells",
                               side_effect=record_partition), \
                mock.patch.object(pipelines, "exhaustive_cell_signs",
                                  side_effect=record_cells):
            try:
                sum_finite_rank(t1, t2, 0.1, 0.1)
            except NarrowOpsError:
                pass
        part = seen["partition"]
        # the labels are read before any split of every atom
        assume(part.n_cells <= 32)
        cells = [part.space.subset(np.flatnonzero(part.cell == k))
                 for k in range(part.n_cells)]
        order = sorted(range(part.n_cells), key=lambda k: (-cells[k].measure, k))
        want = np.empty(part.space.n_atoms, dtype=np.int64)
        for rank_k, k in enumerate(order):
            want[cells[k].indices] = rank_k
        assert seen["cell"].tolist() == want.tolist()

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("scale", [0.1, 1.0])
    def test_atoms_over_the_cell_budget_are_cells_of_their_own(self, rank, scale):
        # each atom over the cell budget is a cell of its own, which its
        # search splits once, so the output stays within 2n atoms however
        # large ||T2|| / epsilon is
        t1 = random_narrow_operator(17 + rank, 64, 3, 0.5)
        t2 = random_finite_rank(29 + rank, rank, None, 6, scale, space=t1.space)
        rep = sum_finite_rank(t1, t2, 0.1, 0.1)
        assert rep.space.n_atoms <= 128
        revalidate(rep, t1, t2, 0.1, 0.1)
        part, budget = rep.partition_summary, rep.budgets["cell_budget"]
        assert part["n_cells"] == len(rep.stages)
        assert sum(part["cell_sizes"]) == 64
        assert any(b > budget for b in part["bounds"])
        assert all(size == 1 for size, b in zip(part["cell_sizes"], part["bounds"])
                   if b > budget)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 64), rank=st.integers(1, 3),
           seed=st.integers(0, 2**16), log_scale=st.floats(-4.0, 0.5))
    def test_any_scale_certifies_or_fails_with_a_package_error(
            self, data, n, rank, seed, log_scale):
        exponents = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        space = MeasureSpace.from_weights([Fraction(1, 2**e) for e in exponents])
        t1 = random_narrow_operator(seed, None, 3, 0.5, space=space)
        t2 = random_finite_rank(seed + 1, min(rank, n), None, 4,
                                scale=10.0**log_scale, space=space)
        try:
            rep = sum_finite_rank(t1, t2, 0.1, 0.1)
        except NarrowOpsError:
            return
        revalidate(rep, t1, t2, 0.1, 0.1)
        # a cell over the cell budget is one atom, split by its search into
        # two children that cancel every column
        over = [s for s in rep.stages if s["cert_bound"] > rep.budgets["cell_budget"]]
        assert all(s["coeff_norm"] == 0.0 for s in over)

    def test_rank_zero(self):
        t1 = random_narrow_operator(3, 16, 3, 0.5)
        z = DiscreteOperator(np.zeros((4, 16)), t1.space, lp_norm(1, dim=4))
        rep = sum_finite_rank(t1, z, 0.1, 0.1)
        assert rep.extras["rank"] == 0
        revalidate(rep, t1, z, 0.1, 0.1)

    def test_rank_zero_checks_the_t2_budget(self):
        # T2's entries fall below the rank tolerance, so it is called rank 0,
        # yet the rank-0 sign (chosen for T1 = 0 alone) has a T2-image of
        # 3.2e-9, over epsilon and its allowance
        space = MeasureSpace.uniform(64)
        t1 = DiscreteOperator(np.zeros((1, 64)), space, sup_norm(dim=1))
        row = np.zeros((1, 64))
        row[0, ::2] = 1e-10
        t2 = DiscreteOperator(row, space, lp_norm(1, dim=1))
        with pytest.raises(StageFailed, match="final norms"):
            sum_finite_rank(t1, t2, 0.1, 1e-12)

    def test_rank_is_decided_in_the_weighted_norm(self):
        # raw entries near 1e-11 fall below the rank tolerance, but under the
        # weight 1e9 they are images of about 0.01 > epsilon: rank 1
        rng = np.random.default_rng(0)
        space = MeasureSpace.uniform(8)
        t1 = DiscreteOperator(1e-3 * rng.standard_normal((2, 8)), space, sup_norm(dim=2))
        t2 = DiscreteOperator(rng.uniform(0, 1e-11, (1, 8)), space,
                              lp_norm(1, weights=[1e9]))
        rep = sum_finite_rank(t1, t2, 0.1, 1e-3)
        assert rep.extras["rank"] == 1
        revalidate(rep, t1, t2, 0.1, 1e-3)

    def test_rank_one_certificate(self):
        t1 = random_narrow_operator(4, 32, 3, 0.5)
        t2 = random_finite_rank(5, 1, None, 4, scale=1e-3, space=t1.space)
        rep = sum_finite_rank(t1, t2, 0.1, 0.1)
        assert rep.extras["rank"] == 1
        assert rep.rounding_certificate <= rep.budgets["delta"] + 1e-9
        revalidate(rep, t1, t2, 0.1, 0.1)

    def test_internal_chain(self):
        t1 = random_narrow_operator(6, 64, 3, 0.5)
        t2 = random_finite_rank(7, 3, None, 6, scale=1e-4, space=t1.space)
        rep = sum_finite_rank(t1, t2, 0.1, 0.1)
        sigma_series = 0.0
        for stage in rep.stages:
            assert stage["t1_norm"] <= stage["t1_budget"] + 1e-9
            sigma_series += stage["t1_norm"]
        assert sigma_series <= 0.1 + 1e-9
        assert rep.achieved["coefficient_norm"] <= rep.budgets["delta"] + 1e-9
        revalidate(rep, t1, t2, 0.1, 0.1)

    def test_determinism(self):
        t1 = random_narrow_operator(8, 32, 3, 0.5)
        t2 = random_finite_rank(9, 2, None, 4, scale=1e-3, space=t1.space)
        a = sum_finite_rank(t1, t2, 0.1, 0.1)
        b = sum_finite_rank(t1, t2, 0.1, 0.1)
        assert a.to_json_dict() == b.to_json_dict()

    @pytest.mark.parametrize("epsilon", [0.01, 0.05])
    def test_coefficient_budget_under_a_p_below_one_target(self, epsilon):
        # the lp F-norm with p < 1 is p-homogeneous, so coefficients within
        # delta bound ||T2 x|| by delta^p * sum ||b_i||; delta = epsilon /
        # sum ||b_i|| gave 0.0441 > 0.01 here.  At 0.05 the root
        # (epsilon / sum ||b_i||)^2 alone gave a bound one ulp over epsilon.
        # The smaller delta puts every atom over the cell budget at 0.01, and
        # each one-atom cell is split once, within the default budget
        space = MeasureSpace.uniform(256)
        t1 = DiscreteOperator(np.zeros((1, 256)), space, sup_norm(dim=1))
        r = np.random.default_rng(3).standard_normal(256) / 256
        t2 = DiscreteOperator(np.vstack([r, r / 2]), space, lp_norm(0.5, dim=2))
        rep = sum_finite_rank(t1, t2, 0.1, epsilon)
        assert rep.space.n_atoms == 512
        delta, basis_norms = rep.budgets["delta"], rep.extras["basis_norms"]
        assert delta**0.5 * sum(basis_norms) <= epsilon
        revalidate(rep, t1, t2, 0.1, epsilon)


class TestSumCompact:
    def test_t2_zero(self):
        t1 = random_narrow_operator(10, 32, 3, 0.5)
        z = DiscreteOperator(np.zeros((4, 32)), t1.space, lp_norm(1, dim=4))
        rep = sum_compact_locally_convex(t1, z, PipelineParams(epsilon=0.2, seed=0))
        assert rep.extras["net_size"] == 0
        revalidate(rep, t1, z, 0.1, 0.1)

    def test_finite_rank_cross_pipeline(self):
        t1 = random_narrow_operator(11, 64, 3, 0.4)
        t2 = random_finite_rank(12, 3, None, 6, scale=2e-3, space=t1.space)
        rep_a = sum_compact_locally_convex(t1, t2, PipelineParams(epsilon=0.2, seed=1))
        rep_b = sum_finite_rank(t1, t2, 0.1, 0.1)
        revalidate(rep_a, t1, t2, 0.1, 0.1)
        revalidate(rep_b, t1, t2, 0.1, 0.1)

    def test_not_locally_convex_rejected(self):
        t1 = random_narrow_operator(13, 16, 3, 0.5)
        t2 = DiscreteOperator(np.zeros((2, 16)), t1.space, lp_norm(0.5, dim=2))
        with pytest.raises(NotLocallyConvex):
            sum_compact_locally_convex(t1, t2, PipelineParams(epsilon=0.2))

    def test_exhaustion_carries_trace(self, monkeypatch):
        # with no sampled sign the first round has no functional, so its
        # sign, found for T1 = 0 alone, escapes the epsilon/2 ball under
        # T2; one round allows no second try
        monkeypatch.setattr(pipelines, "_MAX_ADAPTIVE_ROUNDS", 1)
        monkeypatch.setattr(pipelines, "_SAMPLE_BUDGET", 0)
        space = MeasureSpace.uniform(4)
        t1 = DiscreteOperator(np.zeros((1, 4)), space, sup_norm(dim=1))
        t2 = DiscreteOperator(np.array([[5.0, 3.0, -5.0, -3.0]]), space, sup_norm(dim=1))
        with pytest.raises(AdaptiveBudgetExhausted) as info:
            sum_compact_locally_convex(t1, t2, PipelineParams(epsilon=0.05))
        assert info.value.trace == [{"round": 1, "norm": 16.0, "image": [-16.0]}]


class TestExactImages:
    @pytest.mark.parametrize("level, seed", [(8, 0), (8, 3), (11, 1)],
                             ids=["0", "3", "level-11-1"])
    def test_level_8_compact_sum_rounds_exact_zero_vectors(self, level, seed, monkeypatch):
        # the cell coefficient vectors are per-(cell, input atom) integer
        # sums, so the cell signs that cancel within every input atom give
        # exact zero vectors.  As float sums of refined columns, 2,048 of
        # the 4,096 held noise of about 1e-18 in equal pairs, which reach
        # their bounds together: the walk then factored at every step, 1,024
        # times, in about 1 s of a 1.15 s run.  At level 11, 3,584 of the
        # 16,384 vectors are copies of 4 nonzero vectors; rounded together,
        # they took 1,793 factorizations and about 17 s, and paired before
        # the rounding they take none
        factor, calls = rounding._factor, []
        monkeypatch.setattr(rounding, "_factor",
                            lambda *args: calls.append(1) or factor(*args))
        t2 = build_l1_example(level)
        t1 = random_narrow_operator(seed, None, 3, 0.5, space=t2.space)
        rep = sum_compact_locally_convex(t1, t2, PipelineParams(epsilon=0.05))
        assert len(calls) <= 2
        revalidate(rep, t1, t2, 0.025, 0.025)

    @pytest.mark.parametrize("run", [
        lambda t1, t2: pairing_construction(t1, t2, PipelineParams(delta=1 / 64)),
        lambda t1, t2: sum_compact_via_truncation(t1, t2, 0.1, 0.125,
                                                  l1_example_tail_bound(6)),
        lambda t1, t2: sum_compact_locally_convex(t1, t2, PipelineParams(epsilon=0.1)),
    ], ids=["pairing", "truncation", "compact"])
    def test_contexts_are_freed_by_reference_counting(self, run, monkeypatch):
        # a context's operators on the current space must not refer back to
        # it: a cycle would hold every refined matrix until the collector
        # runs, and raise the peak memory
        refs = []

        class Recorded(RefinementContext):
            def __init__(self, *args):
                super().__init__(*args)
                refs.append(weakref.ref(self))

        for module in (pipelines, narrowness):
            monkeypatch.setattr(module, "RefinementContext", Recorded)
        t2 = build_l1_example(6)
        t1 = random_narrow_operator(1, None, 3, 0.5, space=t2.space)
        gc.disable()
        try:
            run(t1, t2)
            assert refs and all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestTruncation:
    def test_already_finite_rank(self):
        t1 = random_narrow_operator(14, 16, 3, 0.5)
        t2 = random_finite_rank(15, 2, None, 4, scale=1e-3, space=t1.space)
        rep = sum_compact_via_truncation(t1, t2, 0.1, 0.1, lambda n: 0.0)
        assert rep.extras["truncation_level"] == 1
        revalidate(rep, t1, t2, 0.1, 0.1)

    def test_l1_example_level_choice(self):
        t2 = build_l1_example(6)
        t1 = random_narrow_operator(16, None, 3, 0.5, space=t2.space)
        rep = sum_compact_via_truncation(
            t1, t2, 0.1, 1 / 8, l1_example_tail_bound(6)
        )
        # 2^-4 = 1/16 <= 1/16 = eps/2, and 2^-3 = 1/8 > 1/16
        assert rep.extras["truncation_level"] == 4
        revalidate(rep, t1, t2, 0.1, 1 / 8)

    def test_partition_runs_once(self, monkeypatch):
        # the truncation golden config: the atoms whose coefficient bound
        # exceeds the cell budget are cells of their own, so the partition
        # runs once, on the other atoms, and never raises AtomTooLarge
        partition, calls = pipelines.partition_small_cells, []
        monkeypatch.setattr(pipelines, "partition_small_cells",
                            lambda *args: calls.append(1) or partition(*args))
        t2 = build_l1_example(6)
        t1 = random_narrow_operator(0, None, 3, 0.5, space=t2.space)
        rep = sum_compact_via_truncation(t1, t2, 0.1, 1 / 8, l1_example_tail_bound(6))
        assert len(calls) == 1
        revalidate(rep, t1, t2, 0.1, 1 / 8)

    def test_no_level_small_enough(self):
        t1 = random_narrow_operator(17, 16, 3, 0.5)
        t2 = random_finite_rank(18, 2, None, 4, scale=1e-3, space=t1.space)
        with pytest.raises(NoTruncationSmallEnough):
            sum_compact_via_truncation(t1, t2, 0.1, 0.1, lambda n: 1.0)


def _json_plain(obj, path="report"):
    """Assert `obj` holds nothing but JSON's own types, all the way down."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            assert type(k) is str, path
            _json_plain(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _json_plain(v, f"{path}[{i}]")
    else:
        assert obj is None or type(obj) in (str, int, float, bool), \
            f"{path} is {type(obj).__name__}"


def _pairing_report():
    t2 = build_l1_example(4)
    t1 = random_narrow_operator(2, None, 2, 0.5, space=t2.space)
    return pairing_construction(
        t1, t2, PipelineParams(sigma=0.1, epsilon=0.2, gamma=0.15, delta=1 / 16))


def _finite_rank_report():
    t1 = random_narrow_operator(8, 32, 3, 0.5)
    return sum_finite_rank(
        t1, random_finite_rank(9, 2, None, 4, scale=1e-3, space=t1.space), 0.1, 0.1)


def _compact_report():
    t1 = random_narrow_operator(1, 16, 3, 0.5)
    t2 = random_finite_rank(2, 1, None, 4, scale=1e-3, space=t1.space)
    return sum_compact_locally_convex(t1, t2, PipelineParams(epsilon=0.2, seed=0))


def _truncation_report():
    t2 = build_l1_example(6)
    t1 = random_narrow_operator(16, None, 3, 0.5, space=t2.space)
    return sum_compact_via_truncation(t1, t2, 0.1, 1 / 8, l1_example_tail_bound(6))


class TestReportJson:
    @pytest.mark.parametrize("build", [_pairing_report, _finite_rank_report,
                                       _compact_report, _truncation_report],
                             ids=["pairing", "finite-rank", "compact", "truncation"])
    def test_json_dict_holds_only_json_types(self, build):
        d = build().to_json_dict()
        json.dumps(d)
        _json_plain(d)

    def test_pairing_rows_stay_int8_until_json(self):
        rep = _pairing_report()
        stage = rep.extras["stage"]
        assert stage.dtype == np.int8 and stage.shape == (rep.space.n_atoms,)
        extras = rep.to_json_dict()["extras"]
        assert extras.keys() == {"n_stages", "abs_continuity_bound", "stage"}
        assert extras["stage"] == stage.tolist()
