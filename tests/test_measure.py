"""Measure-space, refinement, set and sign tests.

Exactness claims (mean zero, measure conservation, equal splits) are checked
in integer/Fraction arithmetic, never with tolerances.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from narrowops import (
    InvalidAtom,
    MeasurableSet,
    MeasureSpace,
    NonDyadic,
    NotDivisible,
    RefineMap,
    RefinementBudgetExceeded,
    SignVector,
    UnequalWeights,
    build_conditional_expectation,
    rademacher_sign,
    rademacher_signs,
    random_narrow_operator,
)
from narrowops.measure import _rademacher_blocks, _split_in_two, _wave_sums
from narrowops.operators import RefinementContext
import oracles


def _weight(space, atom):
    """The exact weight of one atom."""
    return Fraction(int(space.numerators[atom]), 2**space.denom_log2)


class TestMeasureSpace:
    def test_single_atom_refine_equal_split(self):
        space = MeasureSpace.from_weights([1])
        refined, rmap = space.refine_atoms([0], 2)
        assert [_weight(refined, i) for i in range(2)] == [Fraction(1, 2)] * 2
        assert rmap.counts == (2,)

    def test_refine_conserves_total(self):
        space = MeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        refined, _ = space.refine_atoms([1], 4)
        assert refined.total == space.total == 1

    def test_refine_arithmetic(self):
        space = MeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 2)])
        refined, _ = space.refine_atoms([1], 4)
        expected = [Fraction(1, 2)] + [Fraction(1, 8)] * 4
        assert [_weight(refined, i) for i in range(5)] == expected

    def test_refine_non_power_of_two_rejected(self):
        space = MeasureSpace.from_weights([1])
        with pytest.raises(NonDyadic):
            space.refine_atoms([0], 3)

    def test_refine_bad_atom(self):
        space = MeasureSpace.from_weights([1])
        with pytest.raises(InvalidAtom):
            space.refine_atoms([5], 2)

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

    @pytest.mark.parametrize("build, expected", [
        (lambda: MeasureSpace.uniform(np.int64(4)), MeasureSpace.uniform(4)),
        (lambda: random_narrow_operator(1, np.int64(16), 3, 0.5).space,
         MeasureSpace.uniform(16)),
        (lambda: build_conditional_expectation(np.int64(4)).space,
         MeasureSpace.uniform(16)),
    ], ids=["uniform", "random-narrow", "conditional-expectation"])
    def test_numpy_integer_sizes(self, build, expected):
        # a numpy integer size puts numpy denominators into the weights
        assert build() == expected

    def test_uniformize(self):
        space = MeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        uni, rmap = space.uniformize(4)
        assert uni.n_atoms == 4
        assert len(set(uni.numerators)) == 1
        assert rmap.counts.tolist() == [2, 1, 1]

    def test_uniformize_within_its_budget(self):
        space = MeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        with pytest.raises(RefinementBudgetExceeded,
                           match="^refinement to 4 atoms exceeds budget 3$"):
            space.uniformize(3)
        # weights it cannot uniformize are refused as such first
        with pytest.raises(NonDyadic):
            MeasureSpace(2, [1, 3]).uniformize(1)
        # an equal-weight space is left as it is, whatever the budget
        uniform = MeasureSpace.uniform(8)
        assert uniform.uniformize(1)[0] is uniform


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

    @pytest.mark.parametrize("index", [-1, 3], ids=["negative", "past-the-end"])
    def test_map_indices_rejects_out_of_range(self, index):
        # -1 must not wrap round to the last atom's children [3, 4, 5]
        with pytest.raises(InvalidAtom):
            RefineMap(counts=(2, 1, 3)).map_indices([index])

    @pytest.mark.parametrize("counts", [[0], [2, 0, 1], [-1], [[1, 2]]])
    def test_public_constructor_still_checks_counts(self, counts):
        with pytest.raises(ValueError):
            RefineMap(counts=counts)

    def test_lift_through_a_smaller_map_is_refused(self):
        # the set lives on 4 atoms; a map for 3 atoms has no children for atom 3
        space = MeasureSpace.uniform(4)
        rmap = RefineMap(counts=(2, 1, 1))
        with pytest.raises(InvalidAtom):
            space.subset([1, 3]).lift(rmap, MeasureSpace.uniform(rmap.n_new))


class TestSignVector:
    def test_mean_zero_exact(self):
        space = MeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        x = SignVector.from_values(space, [1, -1, -1])
        assert x.mean_zero
        assert x.integral_numerator() == 0

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
        prod = rademacher_sign(full, 1).values * rademacher_sign(full, 2).values
        assert prod.tolist() == [1, -1, -1, 1]
        assert SignVector.from_values(space, prod).mean_zero

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
        assert SignVector.from_values(space, a.values * b.values).mean_zero

    def test_not_divisible(self):
        space = MeasureSpace.uniform(4)
        with pytest.raises(NotDivisible):
            rademacher_sign(space.subset([0, 1, 2]), 1)

    def test_unequal_weights(self):
        space = MeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)])
        with pytest.raises(UnequalWeights):
            rademacher_sign(space.full_set(), 1)

    def test_family_levels(self):
        space = MeasureSpace.uniform(32)
        assert rademacher_signs(space.subset(range(24))).shape == (3, 32)
        assert rademacher_signs(space.subset(range(3))).shape == (0, 32)
        with pytest.raises(UnequalWeights):
            rademacher_signs(space.subset([]))
        with pytest.raises(UnequalWeights):
            rademacher_signs(space.refine_atoms([0], 2)[0].subset([0, 2]))


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
        w = _weight(space, i)
        out.extend([w / parts] * parts if i in atoms else [w])
    return out


def _oracle_subset(indices):
    return tuple(sorted(set(indices)))


def _oracle_set_lift(counts, indices):
    return tuple(_oracle_map_indices(counts, indices))


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
        assert [_weight(refined, i) for i in range(refined.n_atoms)] == expected
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
        family = rademacher_signs(space.subset(indices))
        assert family.shape == (log_size, 32) and family.dtype == np.int8
        for row, values in enumerate(family.tolist()):
            assert values == _oracle_rademacher(32, indices, row + 1)

    @settings(max_examples=100, deadline=None)
    @given(counts=st.lists(st.integers(1, 8), min_size=1, max_size=8), data=st.data())
    def test_wave_sums_match_the_family(self, counts, data):
        rmap = RefineMap(counts=counts)
        space = MeasureSpace(denom_log2=0, numerators=[3] * rmap.n_new)
        indices = sorted(data.draw(st.sets(st.integers(0, rmap.n_new - 1), min_size=1)))
        mset = space.subset(indices)
        family = rademacher_signs(mset).astype(np.int64) * space.numerators
        want = np.add.reduceat(family, rmap.starts, axis=1) if len(family) else family
        got = _wave_sums(space.numerators[0], mset.size, _rademacher_blocks(mset),
                         np.searchsorted(mset.indices, np.append(rmap.starts, rmap.n_new)))
        assert got.dtype == np.int64 and got.shape == (len(family), rmap.n_old)
        assert np.array_equal(got, want.reshape(got.shape))

    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(1, 6), min_size=2, max_size=10), data=st.data())
    def test_wave_sums_match_the_two_searchsorted_oracle(self, counts, data):
        # the live set skips whole parents (their first and last cut are
        # the same position) and always ends before the last parent
        rmap = RefineMap(counts=counts)
        space = MeasureSpace(denom_log2=2, numerators=[3] * rmap.n_new)
        kept = data.draw(st.sets(st.integers(0, rmap.n_old - 2), min_size=1))
        children = [int(rmap.starts[j]) + k for j in sorted(kept) for k in range(counts[j])]
        mset = space.subset(data.draw(st.sets(st.sampled_from(children), min_size=1)))
        blocks = _rademacher_blocks(mset)
        cuts = np.searchsorted(mset.indices, np.append(rmap.starts, rmap.n_new))
        # pairing sums only the levels a stage has not summed yet
        for first in range(len(blocks) + 1):
            got = _wave_sums(space.numerators[0], mset.size, blocks[first:], cuts)
            want = oracles.wave_sums(mset, rmap, blocks[first:])
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(1, 8), min_size=1, max_size=10),
           size=st.integers(1, 80), seed=st.integers(0, 2**16))
    # the whole space of 32 atoms: a power-of-two set, so the waves take the
    # mask path, with cuts up to 32 past every period 2b <= 32
    @example(counts=[4] * 8, size=32, seed=0)
    def test_wave_sums_mask_path_matches_the_oracle(self, counts, size, seed):
        # a set of every size up to the space's, power of two or not
        rmap = RefineMap(counts=counts)
        space = MeasureSpace(denom_log2=1, numerators=[5] * rmap.n_new)
        rng = np.random.default_rng(seed)
        mset = space.subset(rng.choice(rmap.n_new, min(size, rmap.n_new), replace=False))
        blocks = _rademacher_blocks(mset)
        cuts = np.searchsorted(mset.indices, np.append(rmap.starts, rmap.n_new))
        for first in range(len(blocks) + 1):
            got = _wave_sums(space.numerators[0], mset.size, blocks[first:], cuts)
            assert np.array_equal(got, oracles.wave_sums(mset, rmap, blocks[first:]))

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
        a, ta = space.subset(raw_a), _oracle_subset(raw_a)
        assert a.indices.tolist() == list(ta)
        assert a.measure == sum((_weight(space, i) for i in ta), Fraction(0))

        counts = data.draw(st.lists(st.sampled_from([1, 2, 4]), min_size=n, max_size=n))
        fine = MeasureSpace.from_weights(
            [_weight(space, i) / c for i, c in enumerate(counts) for _ in range(c)])
        lifted, tl = a.lift(RefineMap(counts=counts), fine), _oracle_set_lift(counts, ta)
        assert lifted.indices.tolist() == list(tl)
        assert lifted.measure == a.measure


def _spaces():
    """Validated non-uniform spaces: the constructor brings them to lowest terms."""
    return st.builds(lambda d, nums: MeasureSpace(denom_log2=d, numerators=nums),
                     st.integers(0, 6), st.lists(st.integers(1, 40), min_size=1, max_size=10))


def _assert_same_space(got, want):
    assert got.denom_log2 == want.denom_log2
    assert got.numerators.dtype == np.int64 and not got.numerators.flags.writeable
    assert np.array_equal(got.numerators, want.numerators)


class TestDerivedObjects:
    """Spaces and sets built inside the package skip the public constructors'
    checks; they must still be what those constructors would build."""

    @settings(max_examples=200, deadline=None)
    @given(space=_spaces(), parts=st.sampled_from([2, 4, 8]),
           mode=st.sampled_from(["random", "odd", "even"]), data=st.data())
    def test_refine_atoms_matches_the_validating_constructor(self, space, parts,
                                                             mode, data):
        # marking every odd-numerator atom keeps their odd numerators, so the
        # finer denominator stays; marking only the even ones (every odd one left
        # whole, its numerator times parts) makes every child's numerator
        # even, so the finer denominator reduces
        nums = space.numerators.tolist()
        if mode == "random":
            marked = data.draw(st.sets(st.integers(0, space.n_atoms - 1)))
        else:
            marked = {i for i, n in enumerate(nums) if n % 2 == (mode == "odd")}
        refined, _ = space.refine_atoms(sorted(marked), parts)
        children = [c for i, n in enumerate(nums)
                    for c in ([n] * parts if i in marked else [n * parts])]
        _assert_same_space(refined, MeasureSpace(
            denom_log2=space.denom_log2 + parts.bit_length() - 1, numerators=children))

    @settings(max_examples=200, deadline=None)
    @given(space=_spaces(), parts=st.sampled_from([2, 4, 8, 16, 64]), data=st.data())
    def test_refine_atoms_scales_the_unmarked_numerators(self, space, parts, data):
        marked = data.draw(st.lists(st.integers(0, space.n_atoms - 1)))
        refined, rmap = space.refine_atoms(marked, parts)
        counts = np.ones(space.n_atoms, dtype=np.int64)
        counts[marked] = parts
        want = np.repeat(space.numerators * (parts // counts), counts)
        # the refined space is in lowest terms: undo its shift
        shift = space.denom_log2 + parts.bit_length() - 1 - refined.denom_log2
        assert np.array_equal(rmap.counts, counts)
        assert np.array_equal(refined.numerators << shift, want)

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(0, 6), base=st.integers(1, 9),
           exponents=st.lists(st.integers(0, 3), min_size=1, max_size=8))
    def test_uniformize_matches_the_validating_constructor(self, d, base, exponents):
        space = MeasureSpace(denom_log2=d, numerators=[base << e for e in exponents])
        least = min(space.numerators.tolist())
        n_atoms = sum(n // least for n in space.numerators.tolist())
        _assert_same_space(space.uniformize(n_atoms)[0], MeasureSpace(
            denom_log2=space.denom_log2, numerators=[least] * n_atoms))

    @settings(max_examples=100, deadline=None)
    @given(space=_spaces(), parts=st.sampled_from([2, 4, 8]), data=st.data())
    def test_derived_maps_match_the_validating_constructor(self, space, parts, data):
        marked = sorted(data.draw(st.sets(st.integers(0, space.n_atoms - 1))))
        fine, first = space.refine_atoms(marked, parts)
        later = fine.refine_atoms(
            sorted(data.draw(st.sets(st.integers(0, fine.n_atoms - 1)))), 2)[1]
        exponents = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
        lumpy = MeasureSpace(denom_log2=3, numerators=[3 << e for e in exponents])
        least = min(exponents)
        for rmap, counts in [
            (first, [parts if i in marked else 1 for i in range(space.n_atoms)]),
            (first.compose(later), [int(later.counts[first.starts[i]:][:c].sum())
                                    for i, c in enumerate(first.counts.tolist())]),
            (RefineMap.identity(space.n_atoms), [1] * space.n_atoms),
            (lumpy.uniformize(64)[1], [1 << (e - least) for e in exponents]),
        ]:
            want = RefineMap(counts=counts)
            assert rmap.counts.dtype == np.int64 and not rmap.counts.flags.writeable
            assert np.array_equal(rmap.counts, want.counts)
            assert np.array_equal(rmap.starts, want.starts)
            assert (rmap.n_new, rmap.is_identity) == (want.n_new, want.is_identity)
            with pytest.raises(ValueError):
                rmap.counts[0] = 0

    @settings(max_examples=100, deadline=None)
    @given(space=_spaces(), parts=st.sampled_from([2, 4, 8]), data=st.data())
    def test_where_matches_the_validating_constructor(self, space, parts, data):
        ctx = RefinementContext(space, {})
        n = space.n_atoms
        ctx.arrays["label"] = np.array(
            data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        for _ in range(2):
            for label in range(3):
                got = ctx.where("label", label)
                want = MeasurableSet(space=ctx.space,
                                     indices=np.flatnonzero(ctx.arrays["label"] == label))
                assert got.space is ctx.space
                assert got.indices.dtype == np.int64 and not got.indices.flags.writeable
                assert np.array_equal(got.indices, want.indices)
            ctx.refine_atoms(ctx.where("label", 1).indices, parts, 2**10)
        values = np.sign(ctx.arrays["label"] - 1)
        support = SignVector.from_values(ctx.space, values).support_set()
        assert np.array_equal(support.indices, np.flatnonzero(values))


class TestIndexValidation:
    @pytest.mark.parametrize("call", [
        lambda s: s.subset([1.5, 2]),
        lambda s: s.subset(["1"]),
        lambda s: s.subset(np.array([1.0, 2.0])),
        lambda s: s.subset([True, False]),
        lambda s: s.subset([[0, 1]]),
        lambda s: s.subset(3),
        lambda s: s.refine_atoms([0.5], 2),
        lambda s: MeasurableSet(space=s, indices=(0.0, 1.0)),
        lambda s: RefineMap.identity(s.n_atoms).map_indices([0.5]),
    ], ids=["float", "string", "float-array", "bool", "2-d", "scalar",
            "refine-float", "set-float", "map-float"])
    def test_non_integer_indices_rejected(self, call):
        with pytest.raises(InvalidAtom):
            call(MeasureSpace.uniform(4))

    def test_integer_inputs_accepted(self):
        space = MeasureSpace.uniform(4)
        for raw in ([], np.zeros(0), (3, 1), range(1, 3), {2, 0},
                    np.array([3, 0], dtype=np.int32), np.array([1], dtype=np.uint8)):
            assert space.subset(raw).indices.tolist() == sorted(int(i) for i in raw)
        assert space.refine_atoms([], 2)[1].is_identity

    def test_refine_atoms_sorts_and_dedupes_other_input(self):
        # increasing indices skip np.unique; any other order goes through it
        space = MeasureSpace.from_weights([Fraction(1, 4), Fraction(1, 8), Fraction(1, 2),
                                           Fraction(1, 8)])
        want_space, want_map = space.refine_atoms([1, 3], 2)
        for raw in ([3, 1], [1, 3, 3], [3, 1, 1, 3], np.array([3, 3, 1])):
            got_space, got_map = space.refine_atoms(raw, 2)
            assert got_space == want_space
            assert np.array_equal(got_map.counts, want_map.counts)
        with pytest.raises(InvalidAtom):
            space.refine_atoms([2, 4, 1], 2)


class TestExactRange:
    def test_from_weights_rejects_total_at_limit(self):
        with pytest.raises(NonDyadic):
            MeasureSpace.from_weights([2**61, 2**61])
        with pytest.raises(NonDyadic):
            MeasureSpace.from_weights([Fraction(1, 2**70), 1])

    def test_largest_accepted_space_is_exact(self):
        space = MeasureSpace.from_weights([2**61 - 1, 2**61 - 1])
        assert SignVector.from_values(space, [1, 1]).integral_numerator() == 2**62 - 2
        assert SignVector.from_values(space, [1, -1]).mean_zero

    @pytest.mark.parametrize("nums, denom_log2, parts", [
        ([2**60 + 1] * 2, 61, 2), ([2**60] * 2, 0, 2**8)], ids=["2", "256"])
    def test_refine_atoms_rejects_leaving_the_range(self, nums, denom_log2, parts):
        # an odd numerator: halving an atom of 1 + 2^-60 in all needs a
        # total of 2^62 + 4 over 2^62; 2^60 + 2^68 over 2^8 leaves the range
        # in the lowest terms too
        space = MeasureSpace(denom_log2, nums)
        with pytest.raises(NonDyadic, match="^refining into "
                                            f"{parts} parts leaves the exact int64 range$"):
            space.refine_atoms([0], parts)

    @pytest.mark.parametrize("space, atoms, want", [
        (MeasureSpace(0, [2**56] * 32), range(32), [2**55] * 64),
        (MeasureSpace.from_weights([2**60, 2**60]), [0], [2**59, 2**59, 2**60])],
        ids=["all-even", "one-of-two"])
    def test_refine_atoms_keeps_a_total_in_range(self, space, atoms, want):
        # halving even numerators keeps the total, 2^61 here, whose double
        # would leave the range: the split is checked on the total it leaves
        got, _ = space.refine_atoms(atoms, 2)
        assert got.denom_log2 == 0 and got.numerators.tolist() == want

    def test_a_split_in_two_is_checked_on_the_total_it_leaves(self):
        # an even numerator is halved and keeps a total of 2^61; an odd one
        # doubles it, to past 2^62 from 2^61 + 2
        assert _split_in_two(2**61, 2**60, 0) == (2**61, 2**59, 0)
        assert _split_in_two(3 << 59, 3, 5) == (3 << 60, 3, 6)
        with pytest.raises(NonDyadic, match="^refining into 2 parts leaves the "
                                            "exact int64 range$"):
            _split_in_two(2**61 + 2, 2**60 + 1, 61)
