"""Partition, sign-search, adversarial-dichotomy, and net-cover tests."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrowops import (
    AtomTooLarge,
    DimensionMismatch,
    DiscreteOperator,
    InvalidAtom,
    MeasureSpace,
    NoFeasibleSign,
    NoSignFound,
    RefineMap,
    SetTooLarge,
    SignVector,
    SmallSignResult,
    adversarial_disjoint_signs,
    find_small_sign,
    fnorm,
    lp_norm,
    max_sign_image_norm,
    net_cover,
    partition_small_cells,
    rademacher_sign,
    sup_norm,
)
from narrowops import operators
from narrowops.instances import build_l1_example, l1_example_cells
from narrowops.narrowness import (
    _EXHAUSTIVE_SEARCH_LIMIT,
    Partition,
    _kernel_pairing,
    _pair_equal_rows,
    _rademacher_scan,
    cell_segments,
    exhaustive_cell_signs,
)
from narrowops.operators import TERNARY_EXHAUSTIVE_LIMIT
from oracles import brute_force_best_sign


class TestFindSmallSign:
    def test_zero_operator(self):
        space = MeasureSpace.uniform(4)
        T = DiscreteOperator(np.zeros((2, 4)), space, sup_norm(dim=2))
        res = find_small_sign(T, space.full_set(), 1e-9)
        assert res.value == 0.0
        assert res.sign.mean_zero

    def test_l1_cell_pairing_exact_zero(self):
        T = build_l1_example(4, atoms_per_level=4)
        cell = l1_example_cells(T)[1]
        res = find_small_sign(T, cell, 1e-12)
        assert res.value == 0.0
        assert res.sign.is_sign_on(cell)
        # certify by direct application too
        assert fnorm(T.target, T.apply(res.sign.values)) < 1e-15

    @pytest.mark.parametrize("atoms_per_level", [None, 2, 4])
    def test_l1_cells_exact_zero(self, atoms_per_level):
        # strict narrowness of the L1 example: every cell has a mean-zero
        # sign with image exactly 0, and only a one-atom cell needs a split
        for levels in range(1, 11):
            T = build_l1_example(levels, atoms_per_level)
            for cell in l1_example_cells(T):
                res = find_small_sign(T, cell, 2.0**-60)
                assert res.value == 0.0
                assert res.refine_map.is_identity == (cell.size > 1)

    def test_refinement_recovers(self):
        # the only sign on the input has image 1; under refinement the
        # sibling columns become equal and pairing reaches an exact zero
        space = MeasureSpace.uniform(2)
        T = DiscreteOperator(np.array([[1.0, 0.0]]), space, sup_norm(dim=1))
        res = find_small_sign(T, space.full_set(), 0.5)
        assert res.value < 0.5
        assert not res.refine_map.is_identity
        assert res.sign.mean_zero

    def test_exhaustive_matches_oracle(self):
        rng = np.random.default_rng(11)
        space = MeasureSpace.uniform(8)
        T = DiscreteOperator(rng.standard_normal((3, 8)), space, lp_norm(1, dim=3))
        mset = space.subset([0, 1, 2, 5])
        res = find_small_sign(T, mset, 1e9)
        _, oracle = brute_force_best_sign(
            T, mset, require_mean_zero=True, objective="min", full_support=True
        )
        assert res.value == pytest.approx(oracle)

    def test_budget_exhaustion(self):
        space = MeasureSpace.uniform(2)
        T = DiscreteOperator(np.array([[1.0, 0.0]]), space, sup_norm(dim=1))
        # the only sign on two atoms has image 1, and the budget forbids
        # the refinement that would make pairing possible
        with pytest.raises(NoSignFound) as exc:
            find_small_sign(T, space.full_set(), 1e-3, refine_budget=2)
        assert exc.value.best_value == pytest.approx(1.0)

    @pytest.mark.parametrize("search", [
        lambda T, A: find_small_sign(T, A, 5.0),
        lambda T, A: operators.brute_force_best_sign(T, A),
        max_sign_image_norm,
    ])
    @pytest.mark.parametrize("op_atoms, set_atoms, indices", [(8, 4, [2, 3]),
                                                               (4, 8, [6, 7])])
    def test_a_set_from_another_space_is_rejected(self, search, op_atoms,
                                                  set_atoms, indices):
        # a smaller set's atoms used to be read as the operator's own atoms,
        # and a larger one's ended in a bare IndexError
        T = DiscreteOperator(np.arange(op_atoms, dtype=float)[None, :],
                             MeasureSpace.uniform(op_atoms), lp_norm(1, dim=1))
        with pytest.raises(DimensionMismatch, match="same source space"):
            search(T, MeasureSpace.uniform(set_atoms).subset(indices))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_rejected(self, bad):
        # a NaN matrix used to reach find_small_sign, where its bitwise-equal
        # NaN columns paired up and the sign was reported with value 0.0
        with pytest.raises(ValueError):
            DiscreteOperator(np.full((2, 4), bad), MeasureSpace.uniform(4),
                             sup_norm(dim=2))

    @pytest.mark.parametrize("epsilon", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_epsilon_rejected(self, epsilon):
        T = DiscreteOperator(np.ones((1, 4)), MeasureSpace.uniform(4), sup_norm(dim=1))
        with pytest.raises(ValueError):
            find_small_sign(T, T.space.full_set(), epsilon)
        with pytest.raises(ValueError):
            partition_small_cells(T, epsilon)

    @pytest.mark.parametrize("value", [np.nan, 1.5, True, -1])
    def test_bad_refine_budget_rejected(self, value):
        T = DiscreteOperator(np.array([[1.0, 0.0, 0.0, 0.0]]), MeasureSpace.uniform(4),
                             sup_norm(dim=1))
        with pytest.raises(ValueError, match="refine_budget"):
            find_small_sign(T, T.space.full_set(), 0.5, refine_budget=value)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), log_atoms=st.integers(1, 4))
    def test_kernel_pairing_matches_loop(self, data, log_atoms):
        # few distinct columns and weights, so groups of every parity occur;
        # negative entries have negative int64 bit patterns, +0.0 and -0.0
        # columns must stay apart, and equal columns sit on atoms of
        # unequal weight
        n = 2**log_atoms
        pool = [np.array([0.0, 1.0]), np.array([0.5, -0.0]), np.array([0.5, 0.0]),
                np.array([-0.0, 1.0]), np.array([-1.5, -2.0]), np.array([-1.5, 2.0])]
        cols = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        exps = data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
        space = MeasureSpace.from_weights([Fraction(1, 2**e) for e in exps])
        T = DiscreteOperator(np.stack([pool[c] for c in cols], axis=1), space,
                             sup_norm(dim=2))
        mset = space.subset(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        sign = _kernel_pairing(T, mset)
        expected = _oracle_kernel_pairing(T, mset)
        assert (sign is None and expected is None) or sign.values.tolist() == expected
        idx = mset.indices
        keys = np.column_stack([np.ascontiguousarray(T.matrix[:, idx].T).view(np.int64),
                                space.numerators[idx]])
        _, labels = np.unique(keys, axis=0, return_inverse=True)
        signs, unpaired = _pair_equal_rows(keys)
        want_signs, want_unpaired = _pairing_of_classes(labels.ravel())
        assert signs.dtype == np.int8
        assert signs.tolist() == want_signs and unpaired.tolist() == want_unpaired

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 16), even=st.booleans())
    def test_pair_equal_rows(self, data, n, even):
        # rows from a few bitwise-distinct classes, three of them equal to
        # 0 as floats; with `even`, every class is drawn an even number of
        # times
        pool = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [0.1, 0.2], [0.3, -0.7]])
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        if even:
            picks = data.draw(st.permutations(picks * 2))
        picks = np.array(picks)
        rows = pool[picks]
        keys = rows.view(np.int64)
        signs, unpaired = _pair_equal_rows(keys)
        assert signs.dtype == np.int8 and set(signs.tolist()) <= {-1, 1}
        last = []
        for c in np.unique(picks).tolist():
            members = np.flatnonzero(picks == c)
            # +1, -1, +1, ... over the class in index order
            assert (signs[members] == 1 - 2 * (np.arange(members.size) % 2)).all()
            if members.size % 2:
                last.append(int(members[-1]))
                continue
            total = np.zeros(2)
            for i in members.tolist():
                total += signs[i] * rows[i]
            assert (total == 0.0).all()
        assert unpaired.tolist() == sorted(last)
        if even:
            # the alternation over the concatenated classes that
            # `_kernel_pairing` used before
            _, labels = np.unique(keys, axis=0, return_inverse=True)
            members, _, _ = cell_segments(labels.ravel())
            old = np.empty(picks.size, dtype=np.int8)
            old[members] = 1 - 2 * (np.arange(picks.size) % 2)
            assert signs.tolist() == old.tolist()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), log_atoms=st.integers(1, 5),
           kind=st.sampled_from(["sup", "l1"]), epsilon=st.sampled_from([0.5, 1.5, 2.5]))
    def test_rademacher_scan_matches_loop(self, data, log_atoms, kind, epsilon):
        # small integer columns drawn from a pool of three: duplicate columns
        # and tied norms across levels are common, and every image is exact
        n = 2**log_atoms
        pool = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                                  min_size=3, max_size=3))
        cols = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        norm = sup_norm(dim=2) if kind == "sup" else lp_norm(1, dim=2)
        space = MeasureSpace.uniform(n)
        T = DiscreteOperator(np.array([pool[c] for c in cols], dtype=float).T, space, norm)
        mset = space.subset(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        sign, val = _rademacher_scan(T, mset, epsilon)
        e_hit, e_best, e_val = _oracle_rademacher_scan(T, mset, epsilon)
        # the scan returns the hit when there is one, else the best sign
        assert (val < epsilon) == (e_hit is not None)
        assert (sign is None) == (e_best is None)
        if sign is not None:
            assert sign.values.tolist() == (e_hit or e_best).values.tolist()
        assert val == e_val

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        kind=st.sampled_from(["sup", "l1", "l2", "l0.5"]),
        n=st.integers(1, 8),
        uniform=st.booleans(),
        dim=st.integers(1, 2),
        epsilon=st.sampled_from([0.05, 0.25, 1.0]),
        extra_budget=st.integers(2, 64),
    )
    def test_refinement_loop_matches_hand_lifted_loop(
        self, data, kind, n, uniform, dim, epsilon, extra_budget
    ):
        # distinct integer columns: no two atoms pair and no sign on the
        # input is exactly zero, so most searches refine, and some run out
        # of budget; block signs need equal weights
        exponents = [0] * n if uniform else data.draw(
            st.lists(st.integers(0, 2), min_size=n, max_size=n))
        space = MeasureSpace.from_weights([Fraction(1, 2**e) for e in exponents])
        cols = data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim),
                                  min_size=n, max_size=n, unique=True))
        target = sup_norm(dim=dim) if kind == "sup" else lp_norm(float(kind[1:]), dim=dim)
        T = DiscreteOperator(np.array(cols, dtype=float).T / 4, space, target)
        mset = space.subset(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        budget = n + extra_budget
        try:
            res = find_small_sign(T, mset, epsilon, budget)
        except NoSignFound as exc:
            with pytest.raises(NoSignFound) as expected:
                _oracle_find_small_sign(T, mset, epsilon, budget)
            assert str(exc) == str(expected.value)
            assert exc.best_value == expected.value.best_value
            best, e_best = exc.best_sign, expected.value.best_sign
            assert (best is None) == (e_best is None)
            if best is not None:
                assert best.values.tolist() == e_best.values.tolist()
            return
        e_res = _oracle_find_small_sign(T, mset, epsilon, budget)
        assert res.sign.values.tolist() == e_res.sign.values.tolist()
        assert res.value == e_res.value
        assert res.strategy == e_res.strategy
        assert res.refine_map.counts.tolist() == e_res.refine_map.counts.tolist()
        assert res.operator.space == e_res.operator.space
        np.testing.assert_array_equal(res.operator.matrix, e_res.operator.matrix)


def _oracle_find_small_sign(T, mset, epsilon, refine_budget):
    """The search loop with its working operator, set and composed map
    carried by hand: each retry refines every atom of the set in two, lifts
    operator and set, and composes the map."""
    cur_T, cur_set = T, mset
    total_map = RefineMap.identity(T.space.n_atoms)
    best_sign, best_val = None, float("inf")
    while True:
        if cur_set.size <= _EXHAUSTIVE_SEARCH_LIMIT:
            try:
                sign, val = brute_force_best_sign(
                    cur_T, cur_set, require_mean_zero=True,
                    objective="min", full_support=True,
                )
                if val < best_val:
                    best_sign, best_val = sign, val
                if val < epsilon:
                    return SmallSignResult(sign, cur_T, total_map, val, "exhaustive")
            except (NoFeasibleSign, SetTooLarge):
                pass
        sign = _kernel_pairing(cur_T, cur_set)
        if sign is not None:
            return SmallSignResult(sign, cur_T, total_map, 0.0, "kernel_pairing")
        sign, val = _rademacher_scan(cur_T, cur_set, epsilon)
        if val < epsilon:
            return SmallSignResult(sign, cur_T, total_map,
                                   cur_T.image_norm(sign.values), "rademacher_scan")
        if val < best_val:
            best_sign, best_val = sign, val
        if cur_T.space.n_atoms + cur_set.size > refine_budget:
            raise NoSignFound(
                f"no sign with image norm < {epsilon} within the refinement budget",
                best_sign=best_sign, best_value=best_val,
            )
        space2, rmap = cur_T.space.refine_atoms(cur_set.indices, 2)
        cur_T = cur_T.refine(rmap, space2)
        cur_set = cur_set.lift(rmap, space2)
        total_map = total_map.compose(rmap)


def _oracle_rademacher_scan(T, mset, epsilon):
    """The per-level loop that ``_rademacher_scan`` replaced: one sign and one
    image per level, keeping the first strict minimum, stopping at the first
    value below epsilon."""
    s = mset.size
    best, best_val = None, float("inf")
    if s < 2:
        return None, None, best_val
    level = 1
    while s % 2**level == 0:
        sign = rademacher_sign(mset, level)
        val = T.image_norm(sign.values)
        if val < best_val:
            best, best_val = sign, val
        if val < epsilon:
            return sign, best, val
        level += 1
    return None, best, best_val


def _pairing_of_classes(labels):
    """Signs +1, -1, +1, ... over each class of `labels` in index order, and
    the last member of each odd class, ascending."""
    signs, last = [0] * labels.size, []
    for c in np.unique(labels).tolist():
        members = np.flatnonzero(labels == c).tolist()
        for k, i in enumerate(members):
            signs[i] = 1 - 2 * (k % 2)
        if len(members) % 2:
            last.append(members[-1])
    return signs, sorted(last)


def _oracle_kernel_pairing(T, mset):
    """The loop that ``_kernel_pairing`` replaced: group by (weight, column
    bytes), pair consecutive members of each group in index order."""
    groups = {}
    for i in mset.indices:
        key = (int(T.space.numerators[i]), T.matrix[:, i].tobytes())
        groups.setdefault(key, []).append(i)
    values = [0] * T.space.n_atoms
    for members in groups.values():
        if len(members) % 2 != 0:
            return None
        for j in range(0, len(members), 2):
            values[members[j]] = 1
            values[members[j + 1]] = -1
    return values


class TestExhaustiveCellSigns:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        kind=st.sampled_from(["sup", "l1", "l2", "l0.5"]),
        dim=st.sampled_from([1, 2, 3, 9]),
        sizes=st.lists(st.integers(1, _EXHAUSTIVE_SEARCH_LIMIT + 1),
                       min_size=1, max_size=6),
        uniform=st.booleans(),
    )
    def test_matches_brute_force_per_cell(self, data, kind, dim, sizes, uniform):
        # columns from a small pool with a zero column and duplicates, so
        # optima tie; unequal weights leave some cells with no balanced sign
        n = sum(sizes)
        entries = st.one_of(st.sampled_from([0.0, 0.25, -0.5]),
                            st.floats(-2, 2, allow_subnormal=False))
        pool = data.draw(st.lists(st.lists(entries, min_size=dim, max_size=dim),
                                  min_size=1, max_size=4)) + [[0.0] * dim]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                   min_size=n, max_size=n))
        exponents = [0] * n if uniform else data.draw(
            st.lists(st.integers(0, 2), min_size=n, max_size=n))
        space = MeasureSpace.from_weights([Fraction(1, 2**e) for e in exponents])
        target = sup_norm(dim=dim) if kind == "sup" else lp_norm(float(kind[1:]), dim=dim)
        T = DiscreteOperator(np.array([pool[c] for c in picks]).T, space, target)
        # cells interleave over the atoms
        cell = np.array(data.draw(st.permutations(
            [k for k, size in enumerate(sizes) for _ in range(size)])))
        signs, values = exhaustive_cell_signs(T, cell)
        # a chunk of one cell gives the same result as one chunk
        with mock.patch.object(operators, "_CELL_BATCH_BYTES", 1):
            signs_1, values_1 = exhaustive_cell_signs(T, cell)
        assert signs_1.tolist() == signs.tolist()
        assert values_1.tolist() == values.tolist()
        for k, size in enumerate(sizes):
            mset = space.subset(np.flatnonzero(cell == k))
            try:
                if size > _EXHAUSTIVE_SEARCH_LIMIT:
                    raise NoFeasibleSign("over the search limit")
                sign, val = brute_force_best_sign(
                    T, mset, require_mean_zero=True, objective="min", full_support=True)
            except NoFeasibleSign:
                assert values[k] == np.inf
                assert not signs[mset.indices].any()
                continue
            assert signs[mset.indices].tolist() == sign.values[mset.indices].tolist()
            assert values[k] == val

    @pytest.mark.parametrize("kind", ["sup", "l1", "l2"])
    @pytest.mark.parametrize("dim", [1, 9])
    def test_matches_brute_force_on_random_columns(self, kind, dim):
        # random columns on cells of 6 to 10 atoms, made of equal-weight
        # pairs of weight 1/64 or 1/128: long sums, wide targets, and
        # balanced-pattern counts of every residue, since a BLAS call may
        # order its products by the number of patterns
        rng = np.random.default_rng(dim)
        sizes = rng.choice([6, 8, 10], 40)
        order = rng.permutation(sizes.sum())
        cell = np.repeat(np.arange(sizes.size), sizes)[order]
        denoms = np.repeat(rng.choice([64, 128], sizes.sum() // 2), 2)[order]
        space = MeasureSpace.from_weights([Fraction(1, int(d)) for d in denoms])
        target = sup_norm(dim=dim) if kind == "sup" else lp_norm(float(kind[1:]), dim=dim)
        T = DiscreteOperator(rng.standard_normal((dim, sizes.sum())), space, target)
        signs, values = exhaustive_cell_signs(T, cell)
        for k in range(sizes.size):
            mset = space.subset(np.flatnonzero(cell == k))
            sign, val = brute_force_best_sign(
                T, mset, require_mean_zero=True, objective="min", full_support=True)
            assert signs[mset.indices].tolist() == sign.values[mset.indices].tolist()
            assert values[k] == val

    def test_no_balanced_sign_and_ties(self):
        # cell 0: weights 1/2, 1/4, 1/8 admit no mean-zero sign; cell 1: four
        # equal-weight zero columns, where every balanced sign ties at 0 and
        # the lexicographically first, (-1, -1, +1, +1), wins
        space = MeasureSpace.from_weights([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
                                          + [Fraction(1, 32)] * 4)
        T = DiscreteOperator(np.r_[[1.0, 2.0, 3.0], [0.0] * 4][None, :], space,
                             sup_norm(dim=1))
        signs, values = exhaustive_cell_signs(T, np.array([0, 0, 0, 1, 1, 1, 1]))
        assert values.tolist() == [np.inf, 0.0]
        assert signs.tolist() == [0, 0, 0, -1, -1, 1, 1]


def _oracle_partition(T, epsilon):
    """The per-cell loop that ``partition_small_cells`` replaced: first-fit
    over atoms in (-bound, index) order, one reduction per tried cell."""
    bounds = T.column_norms()
    order = sorted(range(T.space.n_atoms), key=lambda i: (-bounds[i], i))
    if bounds[order[0]] > epsilon:
        raise AtomTooLarge(order[0], float(bounds[order[0]]), epsilon)
    is_sup = T.target.kind == "sup"
    cells, accs = [], []
    for i in order:
        contrib = (T.target.weights * np.abs(T.matrix[:, i]) if is_sup
                   else float(bounds[i]))
        for k in range(len(cells)):
            if float(np.max(accs[k] + contrib)) <= epsilon:
                accs[k] = accs[k] + contrib
                cells[k].append(i)
                break
        else:
            cells.append([i])
            accs.append(contrib)
    return ([tuple(sorted(c)) for c in cells],
            [float(np.max(a)) for a in accs], [is_sup] * len(cells))


def _assert_partition_matches_loop(T, epsilon):
    try:
        expected = _oracle_partition(T, epsilon)
    except AtomTooLarge as exc:
        with pytest.raises(AtomTooLarge) as got:
            partition_small_cells(T, epsilon)
        assert got.value.atom == exc.atom
        return
    part = partition_small_cells(T, epsilon)
    assert [tuple(c.indices.tolist()) for c in part.cells] == expected[0]
    # bit for bit: the same chain of float additions
    assert np.array(part.bounds).tobytes() == np.array(expected[1]).tobytes()
    assert part.exact == expected[2]


class TestPartition:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 24), dim=st.integers(1, 3),
           kind=st.sampled_from(["sup", "l1", "l2"]),
           factor=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 8.0]))
    def test_partition_matches_loop(self, data, n, dim, kind, factor):
        # a small pool of dyadic and non-dyadic columns, zero column included,
        # so bounds tie and cell sums land exactly on epsilon
        entries = st.sampled_from([0.0, 0.25, -0.25, 0.5, -1.0, 0.3])
        pool = data.draw(st.lists(st.lists(entries, min_size=dim, max_size=dim),
                                  min_size=1, max_size=4))
        pool.append([0.0] * dim)
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                   min_size=n, max_size=n))
        weights = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                     min_size=dim, max_size=dim))
        target = {"sup": sup_norm(weights=weights),
                  "l1": lp_norm(1, weights=weights),
                  "l2": lp_norm(2, weights=weights)}[kind]
        space = MeasureSpace.from_weights([Fraction(1, 32)] * n)
        T = DiscreteOperator(np.array([pool[c] for c in picks]).T, space, target)
        _assert_partition_matches_loop(
            T, factor * max(float(T.column_norms().max()), 0.25))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3),
           kind=st.sampled_from(["sup", "l1", "l2"]),
           factor=st.sampled_from([1.0, 1.5, 2.0, 8.0]))
    def test_runs_match_loop(self, data, dim, kind, factor):
        # sibling-style runs: each column repeated 1-64 times in a row, up to
        # 256 atoms; dyadic entries down to 2^-7 make columns of epsilon/2^k
        # when epsilon is a power of two, so one cell takes many copies
        entries = st.sampled_from([0.0, 0.1, 0.25, -0.25, 0.3, 0.5, -1.0,
                                   2.0**-5, -2.0**-7])
        column = st.lists(entries, min_size=dim, max_size=dim)
        runs = data.draw(st.lists(st.tuples(column, st.integers(1, 64)),
                                  min_size=1, max_size=12))
        cols = [col for col, count in runs for _ in range(count)][:256]
        weights = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                     min_size=dim, max_size=dim))
        target = {"sup": sup_norm(weights=weights),
                  "l1": lp_norm(1, weights=weights),
                  "l2": lp_norm(2, weights=weights)}[kind]
        space = MeasureSpace.from_weights([Fraction(1, 256)] * len(cols))
        T = DiscreteOperator(np.array(cols).T, space, target)
        _assert_partition_matches_loop(
            T, factor * max(float(T.column_norms().max()), 0.25))

    @pytest.mark.parametrize("runs,epsilon", [
        # epsilon/2^6 columns: an open cell takes what fits, then a new cell
        # takes 64 copies
        ([((0.5, 0.25), 3), ((2.0**-6, 0.0), 100)], 1.0),
        # the 0.3 run fills open cell 0, then opens cells of 3 copies each,
        # the last of them partly filled
        ([((0.6,), 1), ((0.3,), 5)], 1.0),
        # the 0.1 run fills open cell 0 and runs out inside open cell 1
        ([((0.6,), 3), ((0.1,), 6)], 1.0),
        # zero columns after full cells all join the first cell
        ([((1.0, 0.0), 4), ((0.0, 0.0), 9)], 1.0),
        # the all-zero operator: one cell
        ([((0.0, 0.0), 128)], 0.5),
    ], ids=["eps-over-2^k", "open-then-new", "split-in-open-cell", "zero-run",
            "all-zero"])
    @pytest.mark.parametrize("kind", ["sup", "l1", "l2"])
    def test_run_cases_match_loop(self, runs, epsilon, kind):
        cols = [col for col, count in runs for _ in range(count)]
        dim = len(cols[0])
        target = {"sup": sup_norm(dim=dim), "l1": lp_norm(1, dim=dim),
                  "l2": lp_norm(2, dim=dim)}[kind]
        space = MeasureSpace.from_weights([Fraction(1, 256)] * len(cols))
        _assert_partition_matches_loop(
            DiscreteOperator(np.array(cols).T, space, target), epsilon)

    def test_run_sums_add_one_copy_at_a_time(self):
        # ten additions of 0.1 give 0.9999999999999999, so a cell takes ten
        # copies; 10 * 0.1 == 1.0 would give the same count but other bounds
        space = MeasureSpace.from_weights([Fraction(1, 32)] * 23)
        T = DiscreteOperator(np.full((1, 23), 0.1), space, sup_norm(dim=1))
        part = partition_small_cells(T, 1.0)
        assert [c.size for c in part.cells] == [10, 10, 3]
        assert part.bounds == [0.9999999999999999, 0.9999999999999999,
                               0.30000000000000004]

    def test_zero_operator_single_cell(self):
        space = MeasureSpace.uniform(8)
        T = DiscreteOperator(np.zeros((2, 8)), space, sup_norm(dim=2))
        part = partition_small_cells(T, 0.5)
        assert part.n_cells == 1
        assert part.cell.tolist() == [0] * 8

    @pytest.mark.parametrize("cell, n_cells", [
        ([0, 1, 0], 2), ([0, 1, 0, 1, 0], 2), ([0, 2, 1, -1], 3), ([0, 2, 1, 3], 3),
        ([0, 2, 2, 0], 3), ([0.0, 1.0, 0.0, 1.0], 2),
    ], ids=["short", "long", "negative", "past-the-end", "unused", "float"])
    def test_constructor_rejects_bad_labels(self, cell, n_cells):
        # overlap cannot be written as labels, and a gap is refused here
        with pytest.raises(InvalidAtom):
            Partition(space=MeasureSpace.uniform(4), cell=np.array(cell),
                      bounds=[0.0] * n_cells, exact=[True] * n_cells, epsilon=1.0)

    @settings(max_examples=100, deadline=None)
    @given(labels=st.lists(st.integers(0, 6), min_size=1, max_size=40))
    def test_cells_and_sizes_agree_with_labels(self, labels):
        # relabel to 0..k-1 in sorted order, so every label is used
        cell = np.unique(labels, return_inverse=True)[1].ravel()
        n_cells = int(cell.max()) + 1
        space = MeasureSpace.from_weights([Fraction(1, 64)] * len(labels))
        part = Partition(space=space, cell=cell, bounds=[0.0] * n_cells,
                         exact=[True] * n_cells, epsilon=1.0)
        assert [c.indices.tolist() for c in part.cells] == \
            [np.flatnonzero(cell == k).tolist() for k in range(n_cells)]
        assert all(c.space is space for c in part.cells)
        assert part.summary()["cell_sizes"] == [c.size for c in part.cells]
        assert not part.cell.flags.writeable

    def test_row_sum_arithmetic(self):
        space = MeasureSpace.uniform(4)
        m = np.array([[0.4, 0.4, 0.4, 0.4]])
        T = DiscreteOperator(m, space, sup_norm(dim=1))
        part = partition_small_cells(T, 1.0)
        assert part.n_cells >= 1
        assert all(c.size <= 2 for c in part.cells)
        assert all(b <= 1.0 + 1e-12 for b in part.bounds)

    def test_atom_too_large(self):
        space = MeasureSpace.uniform(2)
        T = DiscreteOperator(np.array([[5.0, 0.1]]), space, sup_norm(dim=1))
        with pytest.raises(AtomTooLarge) as exc:
            partition_small_cells(T, 1.0)
        assert exc.value.atom == 0

    def test_l1_example_cells_certified(self):
        T = build_l1_example(5)
        eps = 2.0**-3
        part = partition_small_cells(T, eps)
        assert part.n_cells >= 1
        for cell, bound in zip(part.cells, part.bounds):
            assert bound <= eps + 1e-12
            if cell.size <= 12:
                _, bf = brute_force_best_sign(
                    T, cell, require_mean_zero=False, objective="max"
                )
                assert bf <= eps + 1e-12

    def test_sup_bounds_are_exact(self):
        rng = np.random.default_rng(21)
        space = MeasureSpace.uniform(8)
        T = DiscreteOperator(0.3 * rng.standard_normal((3, 8)), space, sup_norm(dim=3))
        part = partition_small_cells(T, 1.0)
        for cell, bound, exact in zip(part.cells, part.bounds, part.exact):
            assert exact
            _, bf = brute_force_best_sign(
                T, cell, require_mean_zero=False, objective="max"
            )
            assert bound == pytest.approx(bf, rel=1e-12)


class TestAdversarial:
    def test_zero_operator_exhausts(self):
        space = MeasureSpace.uniform(4)
        T = DiscreteOperator(np.zeros((2, 4)), space, sup_norm(dim=2))
        out = adversarial_disjoint_signs(T, 0.5, 3)
        assert out.exhausted
        assert out.certificate is not None and out.certificate.n_cells >= 1

    def test_identity_columns(self):
        # identity-style operator: n disjoint singleton signs of image 1,
        # forcing the inductive branch explicitly
        n = 4
        space = MeasureSpace.uniform(n)
        T = DiscreteOperator(np.eye(n), space, sup_norm(dim=n))
        out = adversarial_disjoint_signs(T, 1.0, n, assume_partition_fails=True)
        assert not out.exhausted
        assert len(out.signs) == n
        supports = np.array([s.values for s in out.signs]) != 0
        assert (supports.sum(axis=0) <= 1).all()
        for s in out.signs:
            assert out.operator.image_norm(s.values) >= 0.5

    @pytest.mark.parametrize("epsilon", [np.nan, -1.0])
    def test_bad_epsilon_rejected_without_partition(self, epsilon):
        # the inductive branch skips partition_small_cells, which used to be
        # the only epsilon check: NaN gave a certificate at epsilon NaN and
        # -1.0 three "large" signs
        T = DiscreteOperator(np.array([[1.0, 0.5, 0.25, 0.125]]),
                             MeasureSpace.uniform(4), sup_norm(dim=1))
        with pytest.raises(ValueError):
            adversarial_disjoint_signs(T, epsilon, 3, assume_partition_fails=True)

    @pytest.mark.parametrize("name", ["count", "refine_budget"])
    @pytest.mark.parametrize("value", [np.nan, 1.5, True, -1])
    def test_bad_integer_params_rejected(self, name, value):
        # count=2.5 used to return three signs
        T = DiscreteOperator(np.array([[1.0, 0.5, 0.25, 0.125]]),
                             MeasureSpace.uniform(4), sup_norm(dim=1))
        args = {"count": 2, "refine_budget": 64, name: value}
        with pytest.raises(ValueError, match=name):
            adversarial_disjoint_signs(T, 0.5, args["count"], args["refine_budget"],
                                       assume_partition_fails=True)

    def test_dichotomy_random(self):
        rng = np.random.default_rng(0)
        for trial in range(40):
            space = MeasureSpace.uniform(8)
            M = rng.standard_normal((3, 8)) * rng.uniform(0.05, 0.6)
            T = DiscreteOperator(M, space, sup_norm(dim=3))
            for eps in (0.25, 1.0, 4.0):
                out = adversarial_disjoint_signs(T, eps, 2)
                if out.exhausted:
                    part = out.certificate
                    assert part is not None and part.n_cells >= 1
                    assert all(b <= eps + 1e-9 for b in part.bounds)
                else:
                    assert len(out.signs) >= 2
                    for s in out.signs:
                        assert out.operator.image_norm(s.values) >= eps / 2 - 1e-9


# The tuple-based adversarial loop that the index-array version replaced:
# supports are sorted tuples, contributions a dict, parts Python lists.
def _support(sign):
    return tuple(np.flatnonzero(sign.values).tolist())


def _oracle_best_sign_within(T, indices):
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
        return sign, T.image_norm(values)
    if len(idx) <= TERNARY_EXHAUSTIVE_LIMIT:
        try:
            return brute_force_best_sign(
                T, T.space.subset(idx), require_mean_zero=False, objective="max"
            )
        except NoFeasibleSign:
            return None, 0.0
    values = np.zeros(T.space.n_atoms, dtype=np.int8)
    values[idx] = 1
    sign = SignVector(space=T.space, values=values)
    return sign, T.image_norm(values)


def _oracle_restriction_values(T, sign):
    y = T.apply(sign.values)
    if T.target.kind == "sup":
        r = int(np.argmax(T.target.weights * np.abs(y)))
        return {
            i: float(T.target.weights[r] * T.matrix[r, i] * sign.values[i] * np.sign(y[r]))
            for i in _support(sign)
        }
    return {i: float(fnorm(T.target, T.matrix[:, i])) for i in _support(sign)}


def _oracle_restrict(sign, indices):
    values = np.zeros_like(sign.values)
    values[indices] = sign.values[indices]
    return SignVector(space=sign.space, values=values)


def _oracle_split_support(T, sign, epsilon, refine_budget):
    total_map = RefineMap.identity(T.space.n_atoms)
    cur_T, cur_sign = T, sign
    while True:
        if cur_T.image_norm(cur_sign.values) <= epsilon:
            return None
        support = _support(cur_sign)
        contrib = _oracle_restriction_values(cur_T, cur_sign)
        order = sorted(support, key=lambda i: (-contrib[i], i))
        acc = 0.0
        part_a = []
        for i in order:
            if acc >= epsilon / 2:
                break
            part_a.append(i)
            acc += contrib[i]
        part_b = [i for i in support if i not in set(part_a)]
        za = _oracle_restrict(cur_sign, part_a)
        zb = _oracle_restrict(cur_sign, part_b)
        if (part_b and cur_T.image_norm(za.values) >= epsilon / 2
                and cur_T.image_norm(zb.values) >= epsilon / 2):
            return [za, zb], cur_T, total_map
        if cur_T.space.n_atoms + 1 > refine_budget:
            return None
        space2, rmap = cur_T.space.refine_atoms([order[0]], 2)
        cur_T = cur_T.refine(rmap, space2)
        cur_sign = cur_sign.lift(rmap, space2)
        total_map = total_map.compose(rmap)


def _oracle_adversarial(T, epsilon, count, refine_budget, assume_partition_fails):
    """(signs, exhausted, certificate, refine_map) of the tuple loop."""
    identity = RefineMap.identity(T.space.n_atoms)
    if not assume_partition_fails:
        try:
            return [], True, partition_small_cells(T, epsilon), identity
        except AtomTooLarge:
            pass
    cur_T, total_map, signs = T, identity, []
    while len(signs) < count:
        used = set()
        for s in signs:
            used.update(_support(s))
        remainder = tuple(i for i in range(cur_T.space.n_atoms) if i not in used)
        cand, val = _oracle_best_sign_within(cur_T, remainder)
        if cand is not None and val >= epsilon / 2:
            signs.append(cand)
            continue
        progressed = False
        for k, s in enumerate(signs):
            sub_best, sub_val = _oracle_best_sign_within(cur_T, _support(s))
            if sub_best is None or sub_val <= epsilon:
                continue
            split = _oracle_split_support(cur_T, sub_best, epsilon, refine_budget)
            if split is None:
                continue
            pieces, new_T, rmap = split
            if not rmap.is_identity:
                signs = [x.lift(rmap, new_T.space) for x in signs]
                total_map = total_map.compose(rmap)
                cur_T = new_T
            signs.pop(k)
            signs.extend(pieces)
            progressed = True
            break
        if not progressed:
            cells = [cur_T.space.subset(_support(s)) for s in signs]
            if remainder:
                cells.append(cur_T.space.subset(remainder))
            bounds, exact = zip(*(max_sign_image_norm(cur_T, c) for c in cells))
            labels = np.empty(cur_T.space.n_atoms, dtype=np.int64)
            for k, c in enumerate(cells):
                labels[c.indices] = k
            part = Partition(space=cur_T.space, cell=labels, bounds=list(bounds),
                             exact=list(exact), epsilon=epsilon)
            return signs, True, part, total_map
    return signs, False, None, total_map


class TestAdversarialOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["sup", "l1", "l2", "l0.5"]),
        exponents=st.lists(st.integers(0, 2), min_size=1, max_size=8),
        dim=st.integers(1, 3),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        epsilon=st.sampled_from([0.05, 0.25, 0.5, 1.0, 2.0]),
        count=st.integers(1, 5),
        extra_budget=st.sampled_from([0, 2, 64]),
        assume_fails=st.booleans(),
    )
    def test_matches_tuple_loop(self, kind, exponents, dim, grid, seed, epsilon,
                                count, extra_budget, assume_fails):
        space = MeasureSpace.from_weights([Fraction(1, 2**e) for e in exponents])
        n = space.n_atoms
        rng = np.random.default_rng(seed)
        # a coarse grid of entries makes tied contributions common
        M = (rng.integers(-3, 4, (dim, n)) / 4 if grid
             else rng.standard_normal((dim, n)))
        target = sup_norm(dim=dim) if kind == "sup" else lp_norm(float(kind[1:]), dim=dim)
        T = DiscreteOperator(M, space, target)
        budget = n + extra_budget
        out = adversarial_disjoint_signs(T, epsilon, count, budget, assume_fails)
        signs, exhausted, part, rmap = _oracle_adversarial(
            T, epsilon, count, budget, assume_fails)
        assert [s.values.tolist() for s in out.signs] == [s.values.tolist() for s in signs]
        assert out.exhausted == exhausted
        assert out.refine_map.counts.tolist() == rmap.counts.tolist()
        assert out.operator.space.n_atoms == rmap.n_new
        if part is None:
            assert out.certificate is None
        else:
            cert = out.certificate
            assert cert.cell.tolist() == part.cell.tolist()
            assert cert.bounds == part.bounds and cert.exact == part.exact


    def test_split_stops_once_part_a_reaches_half_epsilon(self):
        # contributions 0.5 each and eps/2 = 0.5: part A is one atom, so the
        # all-ones sign splits as {0} | {1, 2, 3}, and then {1, 2, 3} again
        T = DiscreteOperator(np.full((1, 4), 0.5), MeasureSpace.uniform(4),
                             sup_norm(dim=1))
        out = adversarial_disjoint_signs(T, 1.0, 3, assume_partition_fails=True)
        assert not out.exhausted
        assert [s.values.tolist() for s in out.signs] == [
            [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]

    def test_split_refines_the_dominant_atom(self):
        # atom 0 alone overshoots eps/2 and atom 1 cannot reach it; halving
        # atom 0 makes both parts large
        T = DiscreteOperator(np.array([[2.0, 0.1]]), MeasureSpace.uniform(2),
                             sup_norm(dim=1))
        out = adversarial_disjoint_signs(T, 1.0, 2, assume_partition_fails=True)
        assert out.refine_map.counts.tolist() == [2, 1]
        assert [s.values.tolist() for s in out.signs] == [[1, 0, 0], [0, 1, 1]]


def _oracle_net_cover(points, radius, norm):
    """The double loop ``net_cover`` replaced: each point against each
    center in turn, joining the first one within the radius."""
    centers, assignments = [], []
    for p in points:
        for k, c in enumerate(centers):
            if fnorm(norm, p - c) <= radius:
                assignments.append(k)
                break
        else:
            centers.append(p)
            assignments.append(len(centers) - 1)
    return centers, assignments


class TestNetCover:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3),
           kind=st.sampled_from(["sup", "l1", "l2"]),
           radius=st.sampled_from([0.5, 1.0, 2.0]))
    def test_matches_double_loop(self, data, dim, kind, radius):
        # integer points: distances land exactly on the radius
        norm = sup_norm(dim=dim) if kind == "sup" else lp_norm(float(kind[1:]), dim=dim)
        points = np.array(data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
            max_size=30)), dtype=float).reshape(-1, dim)
        net = net_cover(points, radius, norm)
        centers, assignments = _oracle_net_cover(points, radius, norm)
        assert net.assignments == assignments
        assert [c.tolist() for c in net.centers] == [c.tolist() for c in centers]

    def test_single_point(self):
        net = net_cover([np.array([1.0, 0.0])], 0.5, sup_norm(dim=2))
        assert net.size == 1

    def test_two_close_points(self):
        pts = [np.array([0.0, 0.0]), np.array([0.1, 0.0])]
        net = net_cover(pts, 0.5, sup_norm(dim=2))
        assert net.size == 1
        assert net.assignments == [0, 0]

    def test_coverage_random(self):
        rng = np.random.default_rng(3)
        norm = lp_norm(1, dim=3)
        pts = [rng.uniform(-1, 1, 3) for _ in range(100)]
        net = net_cover(pts, 1.0, norm)
        assert all(fnorm(norm, p - net.centers[k]) <= 1.0
                   for p, k in zip(pts, net.assignments))
        assert net.size <= len(pts)

    def test_groups_partition_points(self):
        rng = np.random.default_rng(4)
        pts = [rng.uniform(-1, 1, 2) for _ in range(30)]
        net = net_cover(pts, 0.5, sup_norm(dim=2))
        seen = sorted(i for grp in net.groups().values() for i in grp)
        assert seen == list(range(30))

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, 0.0, -1.0, True])
    def test_bad_radius_rejected(self, radius):
        # a NaN radius used to make every point its own center
        pts = np.array([[0.0], [0.1], [0.2]])
        with pytest.raises(ValueError, match="radius"):
            net_cover(pts, radius, sup_norm(dim=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.array([[0.0, 0.0], [bad, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            net_cover(pts, 0.5, sup_norm(dim=2))
