"""Measure-space, refinement, sign, and splitting tests.

Exactness claims (mean zero, measure conservation, equal splits) are checked
in integer/Fraction arithmetic, never with tolerances.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrowops import (
    InvalidAtom,
    MeasurableSet,
    MeasureSpace,
    NonDyadic,
    NotDivisible,
    RefineMap,
    SignVector,
    UnequalWeights,
    Unsplittable,
    half_split,
    rademacher_sign,
)
from narrowops.measure import _subset_sum


class TestMeasureSpace:
    def test_single_atom_refine_equal_split(self):
        space = MeasureSpace.from_weights([1])
        refined, rmap = space.refine(0, 2)
        assert [refined.weight(i) for i in range(2)] == [Fraction(1, 2)] * 2
        assert rmap.counts == (2,)

    def test_refine_conserves_total(self):
        space = MeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        refined, _ = space.refine(1, 4)
        assert refined.total == space.total == 1

    def test_refine_arithmetic(self):
        space = MeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 2)])
        refined, _ = space.refine(1, 4)
        expected = [Fraction(1, 2)] + [Fraction(1, 8)] * 4
        assert [refined.weight(i) for i in range(5)] == expected

    def test_refine_non_power_of_two_rejected(self):
        space = MeasureSpace.from_weights([1])
        with pytest.raises(NonDyadic):
            space.refine(0, 3)

    def test_refine_bad_atom(self):
        space = MeasureSpace.from_weights([1])
        with pytest.raises(InvalidAtom):
            space.refine(5, 2)

    def test_non_dyadic_weight_rejected(self):
        with pytest.raises(NonDyadic):
            MeasureSpace.from_weights([Fraction(1, 3), Fraction(2, 3)])

    def test_canonical_form(self):
        # 2/4 and 2/4 reduce to 1/2 and 1/2
        a = MeasureSpace(denom_log2=2, numerators=(2, 2))
        b = MeasureSpace(denom_log2=1, numerators=(1, 1))
        assert a == b

    def test_set_measure_mapped_through_refinement(self):
        space = MeasureSpace.uniform(4)
        mset = space.subset([1, 2])
        before = mset.measure
        refined, rmap = space.refine_atoms([1, 2], 2)
        assert mset.lift(rmap, refined).measure == before

    def test_json_round_trip(self):
        space = MeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        assert MeasureSpace.from_json(space.to_json()) == space

    def test_uniformize(self):
        space = MeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        uni, rmap = space.uniformize()
        assert uni.n_atoms == 4
        assert len(set(uni.numerators)) == 1
        assert rmap.counts.tolist() == [2, 1, 1]


class TestRefineMap:
    def test_compose(self):
        first = RefineMap(counts=(2, 1))
        second = RefineMap(counts=(1, 2, 3))
        combined = first.compose(second)
        assert combined.counts.tolist() == [3, 3]
        assert combined.n_new == second.n_new

    def test_lift_values_repeats(self):
        rmap = RefineMap(counts=(2, 1, 3))
        assert list(rmap.lift_values([5, 6, 7])) == [5, 5, 6, 7, 7, 7]

    def test_split_columns_preserves_matrix_action(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 4))
        rmap = RefineMap(counts=(2, 1, 4, 2))
        lifted = rmap.split_columns(m)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(lifted @ rmap.lift_values(x), m @ x, rtol=1e-12)


class TestSignVector:
    def test_mean_zero_exact(self):
        space = MeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        x = SignVector.from_values(space, [1, -1, -1])
        assert x.mean_zero
        assert x.integral() == 0

    def test_not_mean_zero(self):
        space = MeasureSpace.uniform(2)
        assert not SignVector.from_values(space, [1, 0]).mean_zero

    def test_values_validated(self):
        space = MeasureSpace.uniform(2)
        with pytest.raises(ValueError):
            SignVector.from_values(space, [2, 0])

    def test_lift_keeps_mean_zero(self):
        space = MeasureSpace.uniform(4)
        x = SignVector.from_values(space, [1, -1, 1, -1])
        refined, rmap = space.refine_atoms([0, 3], 2)
        assert x.lift(rmap, refined).mean_zero


class TestRademacher:
    def test_level_one(self):
        space = MeasureSpace.uniform(4)
        r = rademacher_sign(space.full_set(), 1)
        assert r.values.tolist() == [1, 1, -1, -1]

    def test_level_two(self):
        space = MeasureSpace.uniform(4)
        r = rademacher_sign(space.full_set(), 2)
        assert r.values.tolist() == [1, -1, 1, -1]

    def test_product_mean_zero(self):
        space = MeasureSpace.uniform(4)
        full = space.full_set()
        prod = rademacher_sign(full, 1).pointwise_product(rademacher_sign(full, 2))
        assert prod.values.tolist() == [1, -1, -1, 1]
        assert prod.mean_zero

    @settings(max_examples=50, deadline=None)
    @given(
        log_size=st.integers(2, 5),
        k=st.integers(1, 4),
        l=st.integers(1, 4),
    )
    def test_distinct_levels_independent(self, log_size, k, l):
        if k == l or max(k, l) > log_size:
            return
        space = MeasureSpace.uniform(2**log_size)
        full = space.full_set()
        a, b = rademacher_sign(full, k), rademacher_sign(full, l)
        assert a.mean_zero and b.mean_zero
        assert a.pointwise_product(b).mean_zero

    def test_not_divisible(self):
        space = MeasureSpace.uniform(4)
        with pytest.raises(NotDivisible):
            rademacher_sign(space.subset([0, 1, 2]), 1)

    def test_unequal_weights(self):
        space = MeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)])
        with pytest.raises(UnequalWeights):
            rademacher_sign(space.full_set(), 1)


class TestHalfSplit:
    def test_two_atoms(self):
        space = MeasureSpace.uniform(2)
        a, b = half_split(space.full_set())
        assert a.indices.tolist() == [0] and b.indices.tolist() == [1]

    def test_four_atoms_equal_measure(self):
        space = MeasureSpace.uniform(4)
        a, b = half_split(space.full_set())
        assert a.measure == b.measure == Fraction(1, 2)
        assert set(a.indices) | set(b.indices) == {0, 1, 2, 3}

    def test_unequal_weights_oracle(self):
        # [DERIVED] oracle: exhaustive scan of all 2^3 subsets shows {0} is
        # the only half-measure subset containing atom 0
        space = MeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        a, b = half_split(space.full_set())
        assert {tuple(a.indices.tolist()), tuple(b.indices.tolist())} == {(0,), (1, 2)}

    def test_unsplittable(self):
        space = MeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4)])
        with pytest.raises(Unsplittable):
            half_split(space.full_set())

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=2, max_size=8))
    def test_split_is_exact_when_possible(self, exponents):
        weights = [Fraction(1, 2**e) for e in exponents]
        space = MeasureSpace.from_weights(weights)
        try:
            a, b = half_split(space.full_set())
        except Unsplittable:
            # oracle: verify no equal split exists at all
            nums = space.numerators
            total = sum(nums)
            achievable = {0}
            for n in nums:
                achievable |= {s + n for s in achievable}
            assert total % 2 == 1 or total // 2 not in achievable
            return
        assert a.measure == b.measure
        assert a.difference(b).indices.tolist() == a.indices.tolist()


# Pure-Python oracles: the loop implementations the numpy code replaced.
def _oracle_compose(first, later):
    out, pos = [], 0
    for c in first:
        out.append(sum(later[pos:pos + c]))
        pos += c
    return out


def _oracle_map_indices(counts, indices):
    out = []
    for i in indices:
        start = sum(counts[:i])
        out.extend(range(start, start + counts[i]))
    return out


def _oracle_lift(counts, values):
    out = []
    for v, c in zip(values, counts):
        out.extend([v] * c)
    return out


def _oracle_refine_weights(space, atoms, parts):
    out = []
    for i in range(space.n_atoms):
        w = space.weight(i)
        out.extend([w / parts] * parts if i in atoms else [w])
    return out


def _oracle_subset(indices):
    return tuple(sorted(set(indices)))


def _oracle_difference(a, b):
    return tuple(i for i in a if i not in set(b))


def _oracle_set_lift(counts, indices):
    return tuple(_oracle_map_indices(counts, indices))


def _oracle_half_split(space, indices):
    """The tuple-based ``half_split``: greedy largest-first, then the exact
    subset-sum fallback, with halves read back by position."""
    if not indices:
        raise Unsplittable("cannot split the empty set")
    nums = [int(space.numerators[i]) for i in indices]
    if sum(nums) % 2 != 0:
        raise Unsplittable("total numerator is odd; refine first")
    half = sum(nums) // 2
    acc, first = 0, set()
    for j in sorted(range(len(nums)), key=lambda j: (-nums[j], j)):
        if acc + nums[j] <= half:
            acc += nums[j]
            first.add(j)
            if acc == half:
                break
    if acc != half:
        first = _subset_sum(nums, half)
        if first is None:
            raise Unsplittable("no subset achieves exactly half the measure")
    return (tuple(indices[j] for j in sorted(first)),
            tuple(indices[j] for j in range(len(nums)) if j not in first))


def _oracle_rademacher(n_atoms, indices, level):
    values = [0] * n_atoms
    block_size = len(indices) // 2**level
    for pos, atom in enumerate(indices):
        values[atom] = 1 if (pos // block_size) % 2 == 0 else -1
    return values


class TestArrayOracle:
    @settings(max_examples=100, deadline=None)
    @given(counts=st.lists(st.integers(1, 4), min_size=1, max_size=8), data=st.data())
    def test_refine_map_matches_loops(self, counts, data):
        rmap = RefineMap(counts=counts)
        later = data.draw(st.lists(st.integers(1, 4), min_size=rmap.n_new,
                                   max_size=rmap.n_new))
        assert rmap.compose(RefineMap(counts=later)).counts.tolist() == \
            _oracle_compose(counts, later)
        subset = data.draw(st.sets(st.integers(0, len(counts) - 1)))
        indices = sorted(subset)
        assert list(rmap.map_indices(indices)) == _oracle_map_indices(counts, indices)
        values = data.draw(st.lists(st.integers(-1, 1), min_size=len(counts),
                                    max_size=len(counts)))
        assert rmap.lift_values(values).tolist() == _oracle_lift(counts, values)

    @settings(max_examples=100, deadline=None)
    @given(exponents=st.lists(st.integers(0, 5), min_size=1, max_size=8),
           parts=st.sampled_from([2, 4, 8]), data=st.data())
    def test_refine_atoms_matches_loop(self, exponents, parts, data):
        space = MeasureSpace.from_weights([Fraction(1, 2**e) for e in exponents])
        atoms = data.draw(st.sets(st.integers(0, space.n_atoms - 1)))
        refined, rmap = space.refine_atoms(atoms, parts)
        expected = _oracle_refine_weights(space, atoms, parts)
        assert [refined.weight(i) for i in range(refined.n_atoms)] == expected
        assert rmap.counts.tolist() == [
            parts if i in atoms else 1 for i in range(space.n_atoms)
        ]

    @settings(max_examples=50, deadline=None)
    @given(log_size=st.integers(1, 4), level=st.integers(1, 4), data=st.data())
    def test_rademacher_on_subset_matches_loop(self, log_size, level, data):
        if level > log_size:
            return
        space = MeasureSpace.uniform(32)
        indices = sorted(data.draw(st.sets(st.integers(0, 31), min_size=2**log_size,
                                           max_size=2**log_size)))
        r = rademacher_sign(space.subset(indices), level)
        assert r.values.tolist() == _oracle_rademacher(32, indices, level)

    def test_arrays_are_read_only(self):
        space, rmap = MeasureSpace.uniform(2).refine_atoms([0], 2)
        sign = SignVector.from_values(space, [1, -1, 0])
        for array in (space.numerators, rmap.counts, sign.values):
            with pytest.raises(ValueError):
                array[0] = 1
        assert (space.numerators.dtype, rmap.counts.dtype, sign.values.dtype) == (
            np.int64, np.int64, np.int8)

    def test_set_indices_are_read_only_int64(self):
        space = MeasureSpace.uniform(8)
        for mset in (space.full_set(), space.subset([5, 1, 1]),
                     space.subset([1, 5]).difference(space.subset([5])),
                     SignVector.from_values(space, [0, 1, -1, 0, 0, 0, 0, 0]).support_set()):
            assert mset.indices.dtype == np.int64 and mset.indices.ndim == 1
            with pytest.raises(ValueError):
                mset.indices[0] = 0

    def test_set_copies_the_callers_array(self):
        raw = np.array([0, 2])
        mset = MeasurableSet(space=MeasureSpace.uniform(4), indices=raw)
        raw[0] = 1
        assert mset.indices.tolist() == [0, 2]

    @settings(max_examples=200, deadline=None)
    @given(exponents=st.lists(st.integers(0, 4), min_size=1, max_size=10),
           data=st.data())
    def test_set_layer_matches_tuple_oracles(self, exponents, data):
        space = MeasureSpace.from_weights([Fraction(1, 2**e) for e in exponents])
        n = space.n_atoms
        # unsorted draws with repeats exercise the de-duplication in subset
        raw_a = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        raw_b = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        a, b = space.subset(raw_a), space.subset(raw_b)
        ta, tb = _oracle_subset(raw_a), _oracle_subset(raw_b)
        assert a.indices.tolist() == list(ta)
        assert a.measure == sum((space.weight(i) for i in ta), Fraction(0))
        assert a.difference(b).indices.tolist() == list(_oracle_difference(ta, tb))

        counts = data.draw(st.lists(st.sampled_from([1, 2, 4]), min_size=n, max_size=n))
        fine = MeasureSpace.from_weights(
            [space.weight(i) / c for i, c in enumerate(counts) for _ in range(c)])
        lifted, tl = a.lift(RefineMap(counts=counts), fine), _oracle_set_lift(counts, ta)
        assert lifted.indices.tolist() == list(tl)
        assert lifted.measure == a.measure

        for mset, tup in ((a, ta), (lifted, tl)):
            try:
                expected = _oracle_half_split(mset.space, tup)
            except Unsplittable:
                with pytest.raises(Unsplittable):
                    half_split(mset)
                continue
            halves = half_split(mset)
            assert [h.indices.tolist() for h in halves] == [list(t) for t in expected]
            assert halves[0].measure == halves[1].measure


class TestIndexValidation:
    @pytest.mark.parametrize("call", [
        lambda s: s.subset([1.5, 2]),
        lambda s: s.subset(["1"]),
        lambda s: s.subset(np.array([1.0, 2.0])),
        lambda s: s.subset([True, False]),
        lambda s: s.subset([[0, 1]]),
        lambda s: s.subset(3),
        lambda s: s.measure([1.9]),
        lambda s: s.refine_atoms([0.5], 2),
        lambda s: MeasurableSet(space=s, indices=(0.0, 1.0)),
        lambda s: RefineMap.identity(s.n_atoms).map_indices([0.5]),
    ], ids=["float", "string", "float-array", "bool", "2-d", "scalar",
            "measure-float", "refine-float", "set-float", "map-float"])
    def test_non_integer_indices_rejected(self, call):
        with pytest.raises(InvalidAtom):
            call(MeasureSpace.uniform(4))

    def test_integer_inputs_accepted(self):
        space = MeasureSpace.uniform(4)
        for raw in ([], np.zeros(0), (3, 1), range(1, 3), {2, 0},
                    np.array([3, 0], dtype=np.int32), np.array([1], dtype=np.uint8)):
            assert space.subset(raw).indices.tolist() == sorted(int(i) for i in raw)
        assert space.measure(np.zeros(0)) == 0
        assert space.refine_atoms([], 2)[1].is_identity


class TestExactRange:
    def test_from_weights_rejects_total_at_limit(self):
        with pytest.raises(NonDyadic):
            MeasureSpace.from_weights([2**61, 2**61])
        with pytest.raises(NonDyadic):
            MeasureSpace.from_weights([Fraction(1, 2**70), 1])

    def test_largest_accepted_space_is_exact(self):
        space = MeasureSpace.from_weights([2**61 - 1, 2**61 - 1])
        assert SignVector.from_values(space, [1, 1]).integral() == 2**62 - 2
        assert SignVector.from_values(space, [1, -1]).mean_zero

    @pytest.mark.parametrize("parts", [2, 2**8])
    def test_refine_atoms_rejects_leaving_the_range(self, parts):
        space = MeasureSpace.from_weights([2**60, 2**60])
        with pytest.raises(NonDyadic):
            space.refine_atoms([0], parts)
