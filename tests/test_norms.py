"""F-norm axioms, monotonicity, and dual functional duality checks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from narrowops import (
    NotLocallyConvex,
    TargetNorm,
    ZeroVector,
    dual_unit_functional,
    fnorm,
    fnorm_many,
    lp_norm,
    sup_norm,
)
import oracles

RNG = np.random.default_rng(2024)


def _norm_kinds(dim):
    return [
        sup_norm(dim=dim),
        lp_norm(1, dim=dim),
        lp_norm(2, dim=dim),
        lp_norm(0.5, dim=dim),
        lp_norm(1, weights=RNG.uniform(0.5, 2.0, dim)),
    ]


class TestFnormExamples:
    def test_sup_zero(self):
        assert fnorm(sup_norm(dim=3), np.zeros(3)) == 0.0

    def test_l1(self):
        assert fnorm(lp_norm(1, dim=2), [1.0, -1.0]) == 2.0

    def test_l_half(self):
        # 2 * (1/4)^(1/2) = 1
        assert fnorm(lp_norm(0.5, dim=2), [0.25, 0.25]) == pytest.approx(1.0)

    def test_weighted_sup(self):
        assert fnorm(sup_norm(weights=[2.0, 1.0]), [1.0, 1.5]) == 2.0


class TestFnormAxioms:
    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_axioms_random(self, dim):
        for norm in _norm_kinds(dim):
            ys = RNG.standard_normal((400, dim))
            zs = RNG.standard_normal((400, dim))
            ny, nz = fnorm_many(norm, ys), fnorm_many(norm, zs)
            nsum = fnorm_many(norm, ys + zs)
            assert np.all(ny >= 0)
            assert np.all(nsum <= ny + nz + 1e-9)
            # shrinking scalars do not increase the F-norm
            alphas = RNG.uniform(-1, 1, (400, 1))
            assert np.all(fnorm_many(norm, alphas * ys) <= ny + 1e-9)

    @pytest.mark.parametrize("dim", [2, 5])
    def test_monotone(self, dim):
        for norm in _norm_kinds(dim):
            b = RNG.standard_normal((300, dim))
            a = b * RNG.uniform(0, 1, (300, dim))
            assert np.all(fnorm_many(norm, a) <= fnorm_many(norm, b) + 1e-9)

    def test_zero_only_at_zero(self):
        for norm in _norm_kinds(4):
            y = np.array([0.0, 1e-9, 0.0, 0.0])
            assert fnorm(norm, y) > 0.0


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
            2.2250738585072009e-308, -1e-310, 1.7976931348623157e308]


def _sup_batches():
    """A weighted sup norm over d coordinates, weights spread over 2^+-500,
    and a batch of shape (..., d) with 0 to 2 batch axes, empty ones among
    them, holding signed zeros, infinities, NaN and subnormals."""
    def batch(d):
        weights = st.lists(st.builds(lambda m, e: m * 2.0**e,
                                     st.floats(1.0, 2.0, exclude_max=True),
                                     st.integers(-500, 500)),
                           min_size=d, max_size=d)
        shape = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5)
        entries = st.one_of(st.sampled_from(_SPECIAL), st.floats(width=64))
        ys = shape.flatmap(lambda s: hnp.arrays(np.float64, s + (d,), elements=entries))
        return st.tuples(weights.map(lambda w: sup_norm(weights=w)), ys)
    return st.integers(1, 10).flatmap(batch)


def _same_bits(got, want) -> bool:
    """Equal shape, NaN in the same places and every other value bit for bit;
    which of several NaNs a maximum passes on is left open."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)))


class TestSupKernel:
    """The sup branch of fnorm_many folds the weighted columns with an
    elementwise maximum; it must give the bits of one np.max reduction."""

    @settings(max_examples=300, deadline=None)
    @given(case=_sup_batches())
    # a NaN beside a larger value: np.fmax would return that value
    @example(case=(sup_norm(dim=3), np.array([[np.nan, 2.0, 1.0], [1.0, 2.0, np.nan]])))
    def test_matches_the_reduction_bit_for_bit(self, case):
        norm, ys = case
        with np.errstate(over="ignore"):  # w |y| past the float range is inf
            got = fnorm_many(norm, ys)
            want = oracles.sup_fnorm_many(norm.weights, ys)
        assert type(got) is type(want)
        assert _same_bits(got, want)

    @settings(max_examples=300, deadline=None)
    @given(case=_sup_batches())
    def test_each_row_is_its_own_norm(self, case):
        norm, ys = case
        rows = ys.reshape(-1, norm.dim)
        with np.errstate(over="ignore"):
            got = np.reshape(fnorm_many(norm, ys), -1)
            want = [fnorm(norm, row) for row in rows]
        assert got.size == len(want)
        for g, w in zip(got, want):
            assert _same_bits(g, w)


class TestDualFunctional:
    def test_sup_example(self):
        g = dual_unit_functional(sup_norm(dim=2), [3.0, -1.0])
        np.testing.assert_allclose(g, [1.0, 0.0])

    def test_l2_example(self):
        g = dual_unit_functional(lp_norm(2, dim=2), [3.0, 4.0])
        np.testing.assert_allclose(g, [0.6, 0.8])

    def test_l1_example(self):
        g = dual_unit_functional(lp_norm(1, dim=2), [2.0, -5.0])
        np.testing.assert_allclose(g, [1.0, -1.0])
        assert g @ np.array([2.0, -5.0]) == 7.0

    @pytest.mark.parametrize(
        "norm", [sup_norm(dim=4), lp_norm(1, dim=4), lp_norm(2, dim=4),
                 lp_norm(1.5, weights=[1.0, 2.0, 0.5, 1.0])]
    )
    def test_duality_properties(self, norm):
        for _ in range(50):
            y = RNG.standard_normal(4)
            g = dual_unit_functional(norm, y)
            assert g @ y == pytest.approx(fnorm(norm, y), rel=1e-12)
            v = RNG.standard_normal((200, 4))
            assert np.all(np.abs(v @ g) <= fnorm_many(norm, v) * (1 + 1e-12))

    def test_not_locally_convex(self):
        with pytest.raises(NotLocallyConvex):
            dual_unit_functional(lp_norm(0.5, dim=2), [1.0, 1.0])

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            dual_unit_functional(sup_norm(dim=2), [0.0, 0.0])


class TestSerialization:
    def test_round_trip(self):
        for norm in (sup_norm(dim=3), lp_norm(1.5, dim=3)):
            back = TargetNorm.from_json(norm.to_json())
            y = RNG.standard_normal(3)
            assert fnorm(back, y) == pytest.approx(fnorm(norm, y), rel=1e-14)


class TestValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("kind", ["sup", "lp"])
    def test_bad_weight_rejected(self, kind, bad):
        with pytest.raises(ValueError):
            TargetNorm(kind, p=2.0 if kind == "lp" else None,
                       weights=np.array([bad, 1.0]))

    @pytest.mark.parametrize("p", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_p_rejected(self, p):
        with pytest.raises(ValueError):
            lp_norm(p, dim=2)

    @pytest.mark.parametrize("make", [
        lambda: sup_norm(weights=np.zeros(0)),
        lambda: lp_norm(1, weights=np.zeros(0)),
        lambda: lp_norm(2, dim=0),
    ])
    def test_zero_dimensional_rejected(self, make):
        # a zero-dimensional norm used to pass here and fail later inside a
        # numpy reduction of round_half_integer
        with pytest.raises(ValueError):
            make()
