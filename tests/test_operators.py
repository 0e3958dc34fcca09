"""Discrete operator tests, with an independently coded second exhaustion
as the oracle for the brute-force sign search."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from narrowops import (
    DimensionMismatch,
    DiscreteOperator,
    InvalidAtom,
    MeasureSpace,
    RefineMap,
    NoFeasibleSign,
    SetTooLarge,
    SignVector,
    fnorm,
    lp_norm,
    max_sign_image_norm,
    sup_norm,
)
from narrowops.instances import build_l1_example, l1_example_cells
from narrowops.measure import _cut_sums, _rademacher_blocks, _wave_sums
from narrowops.operators import RefinementContext, brute_force_best_sign
import oracles

RNG = np.random.default_rng(7)


def _random_operator(rows, atoms, norm=None, rng=RNG):
    space = MeasureSpace.uniform(atoms) if atoms & (atoms - 1) == 0 else None
    if space is None:
        raise ValueError
    return DiscreteOperator(
        rng.standard_normal((rows, atoms)), space, norm or sup_norm(dim=rows)
    )


def _parent_cuts(mset, rmap):
    """The set's position at each cut between the old atoms of `rmap`."""
    return np.searchsorted(mset.indices, np.append(rmap.starts, rmap.n_new))


def _parent_sums(mset, rmap):
    """Per-parent sums of every row of the block Rademacher family on `mset`."""
    return _wave_sums(mset.space.numerators[mset.indices[0]], mset.size,
                      _rademacher_blocks(mset), _parent_cuts(mset, rmap))


def _second_exhaustion(T, indices, require_mean_zero, objective):
    """Independent oracle: plain itertools enumeration, no numpy batching."""
    nums = [T.space.numerators[i] for i in indices]
    best_val, best_pattern = None, None
    for pattern in product((-1, 0, 1), repeat=len(indices)):
        if all(v == 0 for v in pattern):
            continue
        if require_mean_zero and sum(v * n for v, n in zip(pattern, nums)) != 0:
            continue
        y = sum(v * T.matrix[:, i] for v, i in zip(pattern, indices))
        val = fnorm(T.target, y)
        better = (
            best_val is None
            or (objective == "min" and val < best_val - 1e-15)
            or (objective == "max" and val > best_val + 1e-15)
        )
        if better:
            best_val, best_pattern = val, pattern
    return best_pattern, best_val


class TestApply:
    def test_zero_vector(self):
        T = _random_operator(3, 8)
        np.testing.assert_array_equal(T.apply(np.zeros(8)), np.zeros(3))

    def test_indicator_gives_column(self):
        T = _random_operator(3, 8)
        e = np.zeros(8)
        e[5] = 1.0
        np.testing.assert_array_equal(T.apply(e), T.matrix[:, 5])

    def test_linearity(self):
        T = _random_operator(4, 16)
        for _ in range(20):
            x, y = RNG.standard_normal(16), RNG.standard_normal(16)
            np.testing.assert_allclose(
                T.apply(x + y), T.apply(x) + T.apply(y), rtol=1e-12, atol=1e-12
            )

    def test_l1_cell_sign_vanishes_in_its_coordinate(self):
        # mean-zero sign inside one cell of the L1 example -> 0 in that row
        T = build_l1_example(4)
        cell = l1_example_cells(T)[1]
        idx = list(cell.indices)
        values = [0] * T.space.n_atoms
        values[idx[0]], values[idx[1]] = 1, -1
        x = SignVector.from_values(T.space, values)
        assert x.mean_zero
        assert T.apply(x.values)[1] == 0.0


class TestIndicatorImageNorm:
    def test_empty_set(self):
        T = _random_operator(3, 8)
        assert T.indicator_image_norm(T.space.subset([])) == 0.0

    def test_l1_example_full_space(self):
        n = 5
        T = build_l1_example(n)
        # geometric series: 1/2 + ... + 2^-n = 1 - 2^-n
        assert T.indicator_image_norm(T.space.full_set()) == pytest.approx(
            1 - 2.0**-n, rel=1e-12
        )

    def test_singleton(self):
        T = _random_operator(3, 8)
        val = T.indicator_image_norm(T.space.subset([2]))
        assert val == pytest.approx(fnorm(T.target, T.matrix[:, 2]))


class TestMaxSignImageNorm:
    def test_sup_row_sum(self):
        space = MeasureSpace.uniform(2)
        T = DiscreteOperator(np.array([[1.0, -2.0]]), space, sup_norm(dim=1))
        value, exact = max_sign_image_norm(T, space.full_set())
        assert (value, exact) == (3.0, True)

    def test_single_atom(self):
        T = _random_operator(3, 8, norm=lp_norm(2, dim=3))
        mset = T.space.subset([4])
        value, exact = max_sign_image_norm(T, mset)
        assert exact and value == pytest.approx(fnorm(T.target, T.matrix[:, 4]))

    def test_matches_brute_force_l1(self):
        T = _random_operator(2, 8, norm=lp_norm(1, dim=2))
        mset = T.space.subset([0, 3, 6])
        value, exact = max_sign_image_norm(T, mset)
        assert exact
        _, oracle = _second_exhaustion(T, [0, 3, 6], False, "max")
        assert value == pytest.approx(oracle)

    def test_sup_exact_equals_brute_force(self):
        for trial in range(200):
            rng = np.random.default_rng(trial)
            T = _random_operator(3, 8, rng=rng)
            indices = sorted(rng.choice(8, size=5, replace=False).tolist())
            value, exact = max_sign_image_norm(T, T.space.subset(indices))
            assert exact
            sign, bf = oracles.brute_force_best_sign(
                T, T.space.subset(indices), require_mean_zero=False, objective="max"
            )
            assert value == pytest.approx(bf, rel=1e-12)

    def test_upper_bound_path(self):
        T = _random_operator(3, 16, norm=lp_norm(2, dim=3))
        value, exact = max_sign_image_norm(T, T.space.full_set())
        assert not exact
        _, bf = _second_exhaustion(T, list(range(8)), False, "max")
        assert value >= bf


class TestBruteForce:
    def test_single_atom_no_mean_zero(self):
        T = _random_operator(3, 8)
        with pytest.raises(NoFeasibleSign):
            brute_force_best_sign(T, T.space.subset([0]))

    def test_two_atoms(self):
        T = _random_operator(3, 8)
        sign, value = brute_force_best_sign(T, T.space.subset([1, 2]))
        cand = fnorm(T.target, T.matrix[:, 1] - T.matrix[:, 2])
        assert value == pytest.approx(cand)
        assert np.flatnonzero(sign.values).tolist() == [1, 2]

    @pytest.mark.parametrize("objective", ["min", "max"])
    @pytest.mark.parametrize("mean_zero", [True, False])
    def test_against_second_exhaustion(self, objective, mean_zero):
        rng = np.random.default_rng(99)
        T = DiscreteOperator(
            rng.standard_normal((3, 8)), MeasureSpace.uniform(8), lp_norm(1, dim=3)
        )
        indices = [0, 2, 3, 5, 7]
        sign, value = brute_force_best_sign(
            T, T.space.subset(indices),
            require_mean_zero=mean_zero, objective=objective,
        )
        _, oracle = _second_exhaustion(T, indices, mean_zero, objective)
        assert value == pytest.approx(oracle, rel=1e-12)

    def test_set_too_large(self):
        T = _random_operator(2, 16)
        with pytest.raises(SetTooLarge):
            brute_force_best_sign(T, T.space.full_set())

    def test_deterministic_tie_break(self):
        # all-zero operator: every sign ties at 0; the lexicographically
        # smallest pattern (-1 first) must be returned every time
        space = MeasureSpace.uniform(4)
        T = DiscreteOperator(np.zeros((2, 4)), space, sup_norm(dim=2))
        a, _ = brute_force_best_sign(T, space.subset([0, 1]))
        b, _ = brute_force_best_sign(T, space.subset([0, 1]))
        assert a.values.tolist() == b.values.tolist() == [-1, 1, 0, 0]

    @pytest.mark.parametrize("full_support", [False, True])
    @pytest.mark.parametrize("objective", ["min", "max"])
    @pytest.mark.parametrize("mean_zero", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["sup", "l1", "l2", "l0.5"]),
           dim=st.sampled_from([1, 3]), size=st.integers(0, 7), uniform=st.booleans())
    def test_matches_the_oracle_bit_for_bit(self, full_support, objective, mean_zero,
                                            data, kind, dim, size, uniform):
        # columns from a small pool with a zero column and duplicates, so
        # optima tie; unequal weights leave some sets with no balanced
        # pattern; size 0 is the empty set
        n = size + 2
        entries = st.one_of(st.sampled_from([0.0, 0.25, -0.5]),
                            st.floats(-2, 2, allow_subnormal=False))
        pool = data.draw(st.lists(st.lists(entries, min_size=dim, max_size=dim),
                                  min_size=1, max_size=3)) + [[0.0] * dim]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        exponents = [1] * n if uniform else data.draw(
            st.lists(st.integers(0, 3), min_size=n, max_size=n))
        space = MeasureSpace.from_weights([Fraction(1, 2**e) for e in exponents])
        target = sup_norm(dim=dim) if kind == "sup" else lp_norm(float(kind[1:]), dim=dim)
        T = DiscreteOperator(np.array([pool[c] for c in picks]).T, space, target)
        mset = space.subset(data.draw(st.permutations(range(n)))[:size])
        kwargs = dict(require_mean_zero=mean_zero, objective=objective,
                      full_support=full_support)
        try:
            want_sign, want = oracles.brute_force_best_sign(T, mset, **kwargs)
        except NoFeasibleSign as exc:
            with pytest.raises(NoFeasibleSign) as got:
                brute_force_best_sign(T, mset, **kwargs)
            assert str(got.value) == str(exc)
            return
        sign, value = brute_force_best_sign(T, mset, **kwargs)
        assert sign.values.tolist() == want_sign.values.tolist()
        assert value == want

    @pytest.mark.parametrize("full_support, size", [(False, 14), (True, 21)])
    def test_over_the_cap_raises_like_the_oracle(self, full_support, size):
        T = _random_operator(1, 32)
        for search in (brute_force_best_sign, oracles.brute_force_best_sign):
            with pytest.raises(SetTooLarge, match=f"cap {size - 1}$"):
                search(T, T.space.subset(range(size)), full_support=full_support)


class TestRefinementCompatibility:
    def test_refined_apply_matches(self):
        for trial in range(100):
            rng = np.random.default_rng(trial)
            T = DiscreteOperator(
                rng.standard_normal((3, 8)), MeasureSpace.uniform(8),
                lp_norm(1, dim=3),
            )
            atoms = sorted(rng.choice(8, size=3, replace=False).tolist())
            space2, rmap = T.space.refine_atoms(atoms, 2)
            T2 = T.refine(rmap, space2)
            values = rng.integers(-1, 2, 8)
            x = SignVector.from_values(T.space, values)
            np.testing.assert_allclose(
                T2.apply(x.lift(rmap, space2).values), T.apply(x.values), rtol=1e-12, atol=1e-12
            )

    def test_refine_preserves_matrix_action(self):
        rng = np.random.default_rng(0)
        T = DiscreteOperator(rng.standard_normal((3, 4)), MeasureSpace.uniform(4),
                             sup_norm(dim=3))
        counts = (2, 1, 4, 2)
        fine = MeasureSpace.from_weights(
            [Fraction(1, 4 * c) for c in counts for _ in range(c)])
        rmap = RefineMap(counts=counts)
        lifted = T.refine(rmap, fine)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(lifted.apply(rmap.lift_values(x)), T.apply(x),
                                   rtol=1e-12)

    def test_composed_map_splits_by_child_weight(self):
        # refine the one atom, then its first child: weights 1/4, 1/4, 1/2
        s0 = MeasureSpace.uniform(1)
        s1, m1 = s0.refine_atoms([0], 2)
        s2, m2 = s1.refine_atoms([0], 2)
        T = DiscreteOperator(np.ones((1, 1)), s0, sup_norm(dim=1))
        composed = T.refine(m1.compose(m2), s2)
        assert composed.matrix.tolist() == [[0.25, 0.25, 0.5]]
        # the mean-zero sign (1, 1, -1) is in the kernel of the lifted T
        assert composed.apply(np.array([1.0, 1.0, -1.0])).tolist() == [0.0]

    def test_children_must_carry_the_parent_weight(self):
        T = DiscreteOperator(np.ones((1, 1)), MeasureSpace.uniform(1), sup_norm(dim=1))
        with pytest.raises(InvalidAtom):
            T.refine(RefineMap(counts=(2,)), MeasureSpace.from_weights(
                [Fraction(1, 4), Fraction(1, 2)]))

    @settings(max_examples=100, deadline=None)
    @given(exponents=st.lists(st.integers(0, 4), min_size=1, max_size=6),
           seed=st.integers(0, 2**16), data=st.data())
    def test_stepwise_and_composed_lifts_agree(self, exponents, seed, data):
        space = MeasureSpace.from_weights([Fraction(1, 2**e) for e in exponents])
        rng = np.random.default_rng(seed)
        T = DiscreteOperator(rng.standard_normal((2, space.n_atoms)), space,
                             sup_norm(dim=2))
        stepwise, total = T, RefineMap.identity(space.n_atoms)
        for _ in range(data.draw(st.integers(1, 3))):
            n = stepwise.space.n_atoms
            atoms = data.draw(st.sets(st.integers(0, n - 1)))
            parts = data.draw(st.sampled_from([2, 4]))
            fine, rmap = stepwise.space.refine_atoms(atoms, parts)
            stepwise = stepwise.refine(rmap, fine)
            total = total.compose(rmap)
        composed = T.refine(total, stepwise.space)
        assert np.array_equal(composed.matrix, stepwise.matrix)

    @settings(max_examples=100, deadline=None)
    @given(exponents=st.lists(st.integers(0, 4), min_size=1, max_size=6),
           seed=st.integers(0, 2**16), data=st.data())
    def test_context_refines_through_the_composed_map(self, exponents, seed, data):
        # the context keeps T on its start space and refines it once, through
        # the composed map, when read; that must give the bits of refining
        # at every step, and its exact image must agree with the refined
        # operator's up to rounding
        space = MeasureSpace.from_weights([Fraction(1, 2**e) for e in exponents])
        rng = np.random.default_rng(seed)
        T = DiscreteOperator(rng.standard_normal((2, space.n_atoms)), space,
                             lp_norm(1, dim=2))
        ctx = RefinementContext(space, {"t": T})
        x = rng.integers(-1, 2, space.n_atoms)
        assert np.array_equal(ctx.image("t", x), T.apply(x))
        stepwise = T
        for _ in range(data.draw(st.integers(1, 3))):
            atoms = data.draw(st.sets(st.integers(0, ctx.space.n_atoms - 1)))
            parts = data.draw(st.sampled_from([2, 4]))
            fine, rmap = stepwise.space.refine_atoms(atoms, parts)
            stepwise = stepwise.refine(rmap, fine)
            ctx.refine_atoms(sorted(atoms), parts, 2**16)
            if data.draw(st.booleans()):
                assert np.array_equal(ctx.op("t").matrix, stepwise.matrix)
        assert ctx.op("t") is ctx.op("t")
        assert np.array_equal(ctx.op("t").matrix, stepwise.matrix)
        x = rng.integers(-1, 2, ctx.space.n_atoms)
        # relative to the sum of the absolute terms of each coordinate
        scale = np.abs(stepwise.matrix) @ np.abs(x)
        assert (np.abs(ctx.image("t", x) - stepwise.apply(x)) <= 1e-12 * scale).all()

    @settings(max_examples=100, deadline=None)
    @given(exponents=st.lists(st.integers(0, 4), min_size=1, max_size=6),
           seed=st.integers(0, 2**16), data=st.data())
    def test_sign_cancelling_within_every_parent_has_a_zero_image(
            self, exponents, seed, data):
        space = MeasureSpace.from_weights([Fraction(1, 2**e) for e in exponents])
        rng = np.random.default_rng(seed)
        T = DiscreteOperator(rng.standard_normal((3, space.n_atoms)) * 10.0**rng.integers(
            -8, 8, space.n_atoms), space, sup_norm(dim=3))
        ctx = RefinementContext(space, {"t": T})
        atoms = data.draw(st.sets(st.integers(0, space.n_atoms - 1)))
        ctx.refine_atoms(sorted(atoms), data.draw(st.sampled_from([2, 4])), 2**16)
        # two equal children of every atom, +1 on the first and -1 on the second
        ctx.refine_atoms(range(ctx.space.n_atoms), 2, 2**16)
        x = np.tile([1, -1], ctx.space.n_atoms // 2)
        assert ctx.image("t", x).tolist() == [0.0] * 3

    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(1, 6), min_size=1, max_size=8),
           seed=st.integers(0, 2**16), power_of_two=st.booleans(), data=st.data())
    def test_live_atom_image_matches_the_whole_space_image(
            self, counts, seed, power_of_two, data):
        # pairing's stage check: a row on the live atoms only, summed per
        # input atom between the live set's cuts, must give the int64 sums
        # and the image bits of ctx.image on the row spread over the space
        start = MeasureSpace(denom_log2=3, numerators=data.draw(st.lists(
            st.integers(1, 9), min_size=len(counts), max_size=len(counts))))
        # all but the last child of a parent weigh one unit of the finer
        # denominator, 2^3 times the start's; the last takes the rest
        nums = []
        for n, c in zip(start.numerators.tolist(), counts):
            nums += [1] * (c - 1) + [8 * n - (c - 1)]
        rng = np.random.default_rng(seed)
        ops = {"t1": DiscreteOperator(rng.standard_normal((3, start.n_atoms)), start,
                                      sup_norm(dim=3)),
               "t2": DiscreteOperator(rng.standard_normal((2, start.n_atoms)), start,
                                      lp_norm(1, dim=2))}
        ctx = RefinementContext(start, ops)
        ctx.apply_map(RefineMap(counts=counts),
                      MeasureSpace(denom_log2=start.denom_log2 + 3, numerators=nums))
        n = ctx.space.n_atoms
        live = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        if power_of_two:
            live = live[:1 << (len(live).bit_length() - 1)]
        live = ctx.space.subset(live)
        v = np.array(data.draw(st.lists(st.integers(-1, 1), min_size=live.size,
                                        max_size=live.size)), dtype=np.int8)
        sums = _cut_sums(_parent_cuts(live, ctx.total_map),
                         v * ctx.space.numerators[live.indices])
        spread = np.zeros(n, dtype=np.int8)
        spread[live.indices] = v
        want = np.add.reduceat(spread.astype(np.int64) * ctx.space.numerators,
                               ctx.total_map.starts)
        assert sums.dtype == np.int64 and np.array_equal(sums, want)
        for key in ops:
            assert ((ops[key].matrix @ (sums / ctx.parent_weights())).tobytes()
                    == ctx.image(key, spread).tobytes())

    def test_context_takes_operators_on_its_start_space_only(self):
        T = _random_operator(2, 2)
        fine, rmap = T.space.refine_atoms([0], 2)
        with pytest.raises(DimensionMismatch):
            RefinementContext(fine, {"t": T})
        with pytest.raises(DimensionMismatch):
            RefinementContext(T.space, {"t": T, "u": T.refine(rmap, fine)})
        assert RefinementContext(T.space, {"t": T}).start == {"t": T}

    def test_context_refines_an_operator_only_when_it_is_read(self, monkeypatch):
        calls = []
        refine = DiscreteOperator.refine

        def spy(op, rmap, space):
            calls.append(space)
            return refine(op, rmap, space)

        monkeypatch.setattr(DiscreteOperator, "refine", spy)
        T = _random_operator(2, 4)
        ctx = RefinementContext(T.space, {"t": T})
        assert ctx.op("t") is T
        ctx.refine_atoms([0, 2], 2, 16)
        # 1/8 1/8 1/4 1/8 1/8 1/4: uniformize splits the two quarters
        fine, rmap = ctx.space.uniformize()
        ctx.apply_map(rmap, fine)
        ctx.image("t", np.tile([1, -1], 4))
        assert calls == []
        first = ctx.op("t")
        assert calls == [ctx.space] and first.space == ctx.space
        assert ctx.op("t") is first and len(calls) == 1
        ctx.refine_atoms([0], 2, 16)
        assert len(calls) == 1
        second = ctx.op("t")
        assert len(calls) == 2 and second is not first and second.space == ctx.space

    @settings(max_examples=100, deadline=None)
    @given(exponents=st.lists(st.integers(0, 3), min_size=1, max_size=5),
           data=st.data())
    def test_parent_weights_follow_every_refinement(self, exponents, data):
        space = MeasureSpace.from_weights([Fraction(1, 2**e) for e in exponents])
        ctx = RefinementContext(space, {})

        def check():
            w = ctx.parent_weights()
            assert w is ctx.parent_weights() and w.dtype == np.int64
            assert np.array_equal(w, np.add.reduceat(ctx.space.numerators,
                                                     ctx.total_map.starts))
            with pytest.raises(ValueError):
                w[0] = 1

        check()
        for _ in range(data.draw(st.integers(1, 4))):
            if data.draw(st.booleans()):
                atoms = data.draw(st.sets(st.integers(0, ctx.space.n_atoms - 1)))
                ctx.refine_atoms(sorted(atoms), data.draw(st.sampled_from([2, 4])),
                                 2**16)
            else:
                fine, rmap = ctx.space.uniformize()
                ctx.apply_map(rmap, fine)
            check()

    @settings(max_examples=100, deadline=None)
    @given(parents=st.lists(st.integers(1, 7), min_size=1, max_size=5),
           data=st.data())
    def test_splitting_the_live_set_keeps_its_block_shares(self, parents, data):
        # the fact pairing's stage search rests on: after every live atom is
        # split in two, each level's per-parent share s / w has the same
        # bits (s and w scale alike) and exactly one finer level follows
        counts = data.draw(st.lists(st.integers(1, 4), min_size=len(parents),
                                    max_size=len(parents)))
        start = MeasureSpace(denom_log2=3, numerators=parents)
        # all but the last child of a parent weigh 1/64; the last takes the rest
        nums = []
        for n, c in zip(start.numerators.tolist(), counts):
            nums += [1] * (c - 1) + [8 * n - (c - 1)]
        ctx = RefinementContext(start, {})
        ctx.apply_map(RefineMap(counts=counts),
                      MeasureSpace(denom_log2=start.denom_log2 + 3, numerators=nums))
        common = np.bincount(ctx.space.numerators).argmax()
        equal = np.flatnonzero(ctx.space.numerators == common).tolist()
        assume(len(equal) >= 2)
        live = sorted(data.draw(st.sets(st.sampled_from(equal), min_size=2)))
        live = live[:len(live) // 2 * 2]
        ctx.arrays["live"] = np.isin(np.arange(ctx.space.n_atoms), live)
        self._assert_splits_keep_shares(ctx, data.draw(st.integers(1, 3)))

    def test_block_shares_survive_a_reduced_denominator(self):
        # parents 3/8 and 5/8; the live atoms are the six of weight 2/16,
        # so after the split every numerator is even and the denominator
        # drops back; the shares 2/3 and -2/5 are not dyadic
        start = MeasureSpace(denom_log2=3, numerators=[3, 5])
        ctx = RefinementContext(start, {})
        ctx.apply_map(RefineMap(counts=[4, 6]), MeasureSpace(
            denom_log2=4, numerators=[2, 2, 1, 1, 2, 2, 2, 2, 1, 1]))
        ctx.arrays["live"] = ctx.space.numerators == 2
        self._assert_splits_keep_shares(ctx, 1)
        assert ctx.space.denom_log2 == 4
        shares = _parent_sums(ctx.where("live", 1), ctx.total_map)
        assert (shares[0] / ctx.parent_weights()).tolist() == [2 / 3, -2 / 5]

    @staticmethod
    def _assert_splits_keep_shares(ctx, rounds):
        for _ in range(rounds):
            live = ctx.where("live", 1)
            before = _parent_sums(live, ctx.total_map) / ctx.parent_weights()
            assert len(before) >= 1
            ctx.refine_atoms(live.indices, 2, 2**16)
            live = ctx.where("live", 1)
            after = _parent_sums(live, ctx.total_map) / ctx.parent_weights()
            assert after.shape == (len(before) + 1, before.shape[1])
            assert after[:len(before)].tobytes() == before.tobytes()

    def test_restrict_rows(self):
        T = _random_operator(4, 8)
        S = T.restrict_rows(2)
        assert np.all(S.matrix[2:] == 0.0)
        np.testing.assert_array_equal(S.matrix[:2], T.matrix[:2])
