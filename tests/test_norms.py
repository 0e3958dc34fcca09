"""F-norm axioms, monotonicity, and dual functional duality checks."""

import numpy as np
import pytest

from narrowops import (
    NotLocallyConvex,
    TargetNorm,
    ZeroVector,
    coefficient_sup_norm,
    dual_unit_functional,
    fnorm,
    fnorm_many,
    lp_norm,
    sup_norm,
)

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

    def test_coefficient_sup(self):
        basis = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        norm = coefficient_sup_norm(basis)
        assert fnorm(norm, basis @ np.array([3.0, -1.0])) == pytest.approx(3.0)


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
            if norm.kind == "coefficient_sup":
                continue
            b = RNG.standard_normal((300, dim))
            a = b * RNG.uniform(0, 1, (300, dim))
            assert np.all(fnorm_many(norm, a) <= fnorm_many(norm, b) + 1e-9)

    def test_zero_only_at_zero(self):
        for norm in _norm_kinds(4):
            y = np.array([0.0, 1e-9, 0.0, 0.0])
            assert fnorm(norm, y) > 0.0


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
        for norm in (sup_norm(dim=3), lp_norm(1.5, dim=3),
                     coefficient_sup_norm(np.eye(3))):
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_rejected(self, bad):
        basis = np.eye(3)[:, :2]
        basis[1, 0] = bad
        with pytest.raises(ValueError):
            coefficient_sup_norm(basis)

    @pytest.mark.parametrize("make", [
        lambda: sup_norm(weights=np.zeros(0)),
        lambda: lp_norm(1, weights=np.zeros(0)),
        lambda: lp_norm(2, dim=0),
        lambda: coefficient_sup_norm(np.zeros((3, 0))),
        lambda: coefficient_sup_norm(np.zeros((0, 0))),
    ])
    def test_zero_dimensional_rejected(self, make):
        # a zero-dimensional norm used to pass here and fail later inside a
        # numpy reduction of round_half_integer
        with pytest.raises(ValueError):
            make()
