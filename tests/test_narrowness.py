"""Partition, sign-search, adversarial-dichotomy, and net-cover tests."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrowops import (
    AtomTooLarge,
    DiscreteOperator,
    MeasureSpace,
    NoSignFound,
    adversarial_disjoint_signs,
    brute_force_best_sign,
    find_small_sign,
    fnorm,
    lp_norm,
    net_cover,
    partition_small_cells,
    sup_norm,
)
from narrowops.instances import build_l1_example, l1_example_cells
from narrowops.narrowness import Partition, _kernel_pairing


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
        res = find_small_sign(T, cell, 1e-12, strategy="kernel_pairing")
        assert res.value == 0.0
        assert res.sign.is_sign_on(cell)
        # certify by direct application too
        assert fnorm(T.target, T.apply(res.sign)) < 1e-15

    def test_distinct_columns_exhaustive_fails(self):
        space = MeasureSpace.uniform(2)
        T = DiscreteOperator(np.array([[1.0, 0.0]]), space, sup_norm(dim=1))
        with pytest.raises(NoSignFound) as exc:
            find_small_sign(T, space.full_set(), 0.5, strategy="exhaustive")
        assert exc.value.best_value == pytest.approx(1.0)

    def test_refinement_recovers(self):
        # same operator: under refinement the sibling columns become equal
        # and pairing reaches an exact zero
        space = MeasureSpace.uniform(2)
        T = DiscreteOperator(np.array([[1.0, 0.0]]), space, sup_norm(dim=1))
        res = find_small_sign(T, space.full_set(), 0.5, strategy="auto")
        assert res.value < 0.5
        assert not res.refine_map.is_identity
        assert res.sign.mean_zero

    def test_exhaustive_matches_oracle(self):
        rng = np.random.default_rng(11)
        space = MeasureSpace.uniform(8)
        T = DiscreteOperator(rng.standard_normal((3, 8)), space, lp_norm(1, dim=3))
        mset = space.subset([0, 1, 2, 5])
        res = find_small_sign(T, mset, 1e9, strategy="exhaustive")
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
            find_small_sign(T, space.full_set(), 1e-3,
                            strategy="auto", refine_budget=2)
        assert exc.value.best_value == pytest.approx(1.0)

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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), log_atoms=st.integers(1, 4))
    def test_kernel_pairing_matches_loop(self, data, log_atoms):
        # few distinct columns and weights, so groups of every parity occur
        n = 2**log_atoms
        pool = [np.array([0.0, 1.0]), np.array([0.5, -0.0]), np.array([0.5, 0.0])]
        cols = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        exps = data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
        space = MeasureSpace.from_weights([Fraction(1, 2**e) for e in exps])
        T = DiscreteOperator(np.stack([pool[c] for c in cols], axis=1), space,
                             sup_norm(dim=2))
        mset = space.subset(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        sign = _kernel_pairing(T, mset)
        expected = _oracle_kernel_pairing(T, mset)
        assert (sign is None and expected is None) or sign.values.tolist() == expected


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
        epsilon = factor * max(float(T.column_norms().max()), 0.25)
        try:
            expected = _oracle_partition(T, epsilon)
        except AtomTooLarge as exc:
            with pytest.raises(AtomTooLarge) as got:
                partition_small_cells(T, epsilon)
            assert got.value.atom == exc.atom
            return
        part = partition_small_cells(T, epsilon)
        assert [tuple(c.indices.tolist()) for c in part.cells] == expected[0]
        assert part.bounds == expected[1]
        assert part.exact == expected[2]

    def test_zero_operator_single_cell(self):
        space = MeasureSpace.uniform(8)
        T = DiscreteOperator(np.zeros((2, 8)), space, sup_norm(dim=2))
        part = partition_small_cells(T, 0.5)
        assert part.n_cells == 1
        assert part.validate_cover()

    def test_validate_cover_rejects_overlap_and_gap(self):
        space = MeasureSpace.uniform(4)

        def cover(*cells):
            return Partition(cells=[space.subset(c) for c in cells], bounds=[0.0] * len(cells),
                             exact=[True] * len(cells), epsilon=1.0).validate_cover()

        assert cover([0, 2], [1, 3])
        assert not cover([0, 1], [1, 2])         # overlap and gap, four indices
        assert not cover([0, 1], [1, 2, 3])      # overlap
        assert not cover([0, 1], [3])            # gap

    def test_row_sum_arithmetic(self):
        space = MeasureSpace.uniform(4)
        m = np.array([[0.4, 0.4, 0.4, 0.4]])
        T = DiscreteOperator(m, space, sup_norm(dim=1))
        part = partition_small_cells(T, 1.0)
        assert part.validate_cover()
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
        assert part.validate_cover()
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
        assert out.certificate is not None and out.certificate.validate_cover()

    def test_identity_columns(self):
        # identity-style operator: n disjoint singleton signs of image 1,
        # forcing the inductive branch explicitly
        n = 4
        space = MeasureSpace.uniform(n)
        T = DiscreteOperator(np.eye(n), space, sup_norm(dim=n))
        out = adversarial_disjoint_signs(T, 1.0, n, assume_partition_fails=True)
        assert not out.exhausted
        assert len(out.signs) == n
        supports = [set(s.support) for s in out.signs]
        for i, a in enumerate(supports):
            for b in supports[i + 1:]:
                assert not (a & b)
        for s in out.signs:
            assert out.operator.image_norm(s) >= 0.5

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
                    assert part is not None and part.validate_cover()
                    assert all(b <= eps + 1e-9 for b in part.bounds)
                else:
                    assert len(out.signs) >= 2
                    for s in out.signs:
                        assert out.operator.image_norm(s) >= eps / 2 - 1e-9


class TestNetCover:
    def test_single_point(self):
        net = net_cover([np.array([1.0, 0.0])], 0.5, sup_norm(dim=2))
        assert net.size == 1

    def test_two_close_points(self):
        pts = [np.array([0.0, 0.0]), np.array([0.1, 0.0])]
        net = net_cover(pts, 0.5, sup_norm(dim=2))
        assert net.size == 1
        assert net.covers(pts[1])

    def test_coverage_random(self):
        rng = np.random.default_rng(3)
        norm = lp_norm(1, dim=3)
        pts = [rng.uniform(-1, 1, 3) for _ in range(100)]
        net = net_cover(pts, 1.0, norm)
        assert all(net.covers(p) for p in pts)
        assert net.size <= len(pts)

    def test_groups_partition_points(self):
        rng = np.random.default_rng(4)
        pts = [rng.uniform(-1, 1, 2) for _ in range(30)]
        net = net_cover(pts, 0.5, sup_norm(dim=2))
        seen = sorted(i for grp in net.groups().values() for i in grp)
        assert seen == list(range(30))
