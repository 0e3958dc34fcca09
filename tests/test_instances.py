"""Instance builders: the L1 integration example, the conditional
expectation on the square, and the random families."""

from fractions import Fraction

import numpy as np
import pytest

from narrowops import (
    InstanceSpec,
    MeasureSpace,
    NonDyadic,
    SignVector,
    build_conditional_expectation,
    build_l1_example,
    find_small_sign,
    fnorm,
    l1_example_cells,
    l1_example_tail_bound,
    random_finite_rank,
    random_narrow_operator,
)
from narrowops.linalg import rank_factorization


class TestL1Example:
    def test_row_sums_are_cell_measures(self):
        # row n integrates over A_n, so its sum is mu(A_n) = 2^-n
        T = build_l1_example(6)
        for n in range(1, 7):
            assert T.matrix[n - 1].sum() == pytest.approx(2.0**-n, rel=1e-12)

    def test_dyadic_profile_atom_count(self):
        T = build_l1_example(12)
        assert T.space.n_atoms == 2**12
        assert T.space.total == 1

    def test_full_indicator_image(self):
        T = build_l1_example(5)
        y = T.apply(np.ones(T.space.n_atoms))
        np.testing.assert_allclose(y, [2.0**-n for n in range(1, 6)], rtol=1e-12)
        assert fnorm(T.target, y) == pytest.approx(1 - 2.0**-5, rel=1e-12)

    def test_within_cell_pairing_sign_is_zero(self):
        T = build_l1_example(4, atoms_per_level=4)
        cell = l1_example_cells(T)[0]
        values = [0] * T.space.n_atoms
        idx = list(cell.indices)
        values[idx[0]], values[idx[1]] = 1, -1
        values[idx[2]], values[idx[3]] = 1, -1
        x = SignVector.from_values(T.space, values)
        assert np.all(T.apply(x) == 0.0)

    def test_atoms_per_level_must_be_dyadic(self):
        with pytest.raises(NonDyadic):
            build_l1_example(3, atoms_per_level=6)

    def test_cells_cover_space(self):
        T = build_l1_example(5)
        cells = l1_example_cells(T)
        seen = sorted(i for c in cells for i in c.indices)
        assert seen == list(range(T.space.n_atoms))
        assert cells[0].measure == Fraction(1, 2)

    def test_strict_narrowness_certified(self):
        # every cell admits an exact-zero mean-zero sign via pairing
        T = build_l1_example(6)
        for cell in l1_example_cells(T):
            res = find_small_sign(T, cell, 2.0**-60, strategy="kernel_pairing")
            assert res.value == 0.0

    def test_tail_bound(self):
        tail = l1_example_tail_bound(6)
        assert tail(3) == 2.0**-3
        assert tail(6) == 0.0
        # oracle: actual truncation tail on random signs
        T = build_l1_example(6)
        rng = np.random.default_rng(0)
        S3 = T.restrict_rows(3)
        for _ in range(100):
            z = rng.integers(-1, 2, T.space.n_atoms).astype(float)
            diff = T.apply(z) - S3.apply(z)
            assert fnorm(T.target, diff) <= tail(3) + 1e-12


class TestConditionalExpectation:
    def test_constant_one(self):
        P = build_conditional_expectation(4)
        np.testing.assert_allclose(P.apply(np.ones(16)), np.ones(4), rtol=1e-12)

    def test_vertical_pair_cancels(self):
        P = build_conditional_expectation(4)
        values = [0] * 16
        values[0], values[1] = 1, -1  # two atoms in the same grid column
        x = SignVector.from_values(P.space, values)
        assert x.mean_zero
        assert np.all(P.apply(x) == 0.0)

    def test_single_atom(self):
        k = 8
        P = build_conditional_expectation(k)
        e = np.zeros(k * k)
        e[k + 3] = 1.0  # atom in grid column 1
        y = P.apply(e)
        assert y[1] == pytest.approx(1 / k)
        assert np.sum(y != 0.0) == 1

    def test_grid_must_be_power_of_two(self):
        with pytest.raises(NonDyadic):
            build_conditional_expectation(3)


class TestRandomFamilies:
    def test_narrow_decay_zero(self):
        T = random_narrow_operator(0, 8, 3, 0.0)
        assert np.all(T.matrix == 0.0)

    def test_narrow_column_decay(self):
        T = random_narrow_operator(1, 16, 3, 0.5)
        peaks = np.max(np.abs(T.matrix), axis=0)
        for i, p in enumerate(peaks):
            assert p <= 0.5**i + 1e-12

    def test_narrow_deterministic(self):
        a = random_narrow_operator(5, 8, 3, 0.4)
        b = random_narrow_operator(5, 8, 3, 0.4)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_finite_rank_zero(self):
        T = random_finite_rank(0, 0, 8, 4)
        assert np.all(T.matrix == 0.0)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_finite_rank_verified(self, rank):
        T = random_finite_rank(7, rank, 16, 5)
        assert len(rank_factorization(T.matrix)[0]) == rank

    def test_finite_rank_deterministic(self):
        a = random_finite_rank(9, 2, 8, 4)
        b = random_finite_rank(9, 2, 8, 4)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_custom_space(self):
        space = MeasureSpace.uniform(8)
        T = random_narrow_operator(3, None, 2, 0.5, space=space)
        assert T.space == space


class TestInstanceSpec:
    def test_build_from_json(self):
        spec = InstanceSpec.from_json(
            {"kind": "l1_example", "levels": 4, "seed": 0}
        )
        T = spec.build()
        assert T.target_dim == 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            InstanceSpec(kind="nope").build()
