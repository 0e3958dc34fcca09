"""Rounding lemma tests: certificate bound, sum invariance, brute-force
theta oracle on small instances."""

from itertools import product

import numpy as np
import pytest

from narrowops import (
    RoundingInstance,
    fnorm,
    lp_norm,
    round_half_integer,
    sign_round,
    sup_norm,
)


def _brute_force_discrepancy(vectors, coefficients, norm):
    """Oracle: exhaustive minimum of ||sum (lambda - theta) x|| over theta."""
    best = np.inf
    for theta in product((0, 1), repeat=len(coefficients)):
        y = (coefficients - np.asarray(theta)) @ vectors
        best = min(best, fnorm(norm, y))
    return best


class TestExamples:
    def test_nothing_floating(self):
        inst = RoundingInstance(
            vectors=np.eye(3), coefficients=np.array([0.0, 1.0, 1.0]),
            norm=sup_norm(dim=3),
        )
        res = round_half_integer(inst)
        assert res.discrepancy == 0.0
        assert list(res.theta) == [0, 1, 1]

    def test_single_half(self):
        inst = RoundingInstance(
            vectors=np.array([[1.0]]), coefficients=np.array([0.5]),
            norm=sup_norm(dim=1),
        )
        res = round_half_integer(inst)
        assert res.discrepancy == pytest.approx(0.5)
        assert res.certificate == pytest.approx(0.5)
        assert list(res.theta) == [0]  # tie at 1/2 rounds to 0

    def test_coefficients_out_of_range(self):
        with pytest.raises(ValueError):
            RoundingInstance(
                vectors=np.eye(2), coefficients=np.array([1.5, 0.0]),
                norm=sup_norm(dim=2),
            )

    @pytest.mark.parametrize("field", ["vectors", "coefficients"])
    def test_non_finite_input_rejected(self, field):
        args = {"vectors": np.eye(2), "coefficients": np.array([0.5, 0.5])}
        args[field] = np.full_like(args[field], np.nan)
        with pytest.raises(ValueError):
            RoundingInstance(norm=sup_norm(dim=2), **args)


class TestCertificate:
    @pytest.mark.parametrize("norm_factory", [
        lambda d: sup_norm(dim=d),
        lambda d: lp_norm(1, dim=d),
        lambda d: lp_norm(2, dim=d),
    ])
    def test_bound_random(self, norm_factory):
        rng = np.random.default_rng(12345)
        for _ in range(300):
            d = int(rng.integers(1, 9))
            n = int(rng.integers(1, 65))
            inst = RoundingInstance(
                vectors=rng.standard_normal((n, d)),
                coefficients=rng.uniform(0, 1, n),
                norm=norm_factory(d),
            )
            res = round_half_integer(inst)
            assert res.discrepancy <= res.certificate + 1e-9

    def test_brute_force_leq_achieved(self):
        rng = np.random.default_rng(777)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 11))
            vectors = rng.standard_normal((n, d))
            coefficients = rng.uniform(0, 1, n)
            norm = sup_norm(dim=d)
            inst = RoundingInstance(vectors=vectors, coefficients=coefficients, norm=norm)
            res = round_half_integer(inst)
            oracle = _brute_force_discrepancy(vectors, coefficients, norm)
            assert oracle <= res.discrepancy + 1e-9

    def test_d3_sup_example(self):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((10, 3))
        inst = RoundingInstance(
            vectors=vectors, coefficients=rng.uniform(0, 1, 10),
            norm=sup_norm(dim=3),
        )
        res = round_half_integer(inst)
        assert res.discrepancy <= 1.5 * np.max(np.abs(vectors).max(axis=1)) + 1e-9


class TestProgress:
    def test_elimination_step_count(self):
        rng = np.random.default_rng(5)
        n, d = 30, 4
        inst = RoundingInstance(
            vectors=rng.standard_normal((n, d)),
            coefficients=rng.uniform(0.05, 0.95, n),
            norm=lp_norm(2, dim=d),
        )
        res = round_half_integer(inst)
        assert res.elimination_steps <= n

    def test_sum_invariance_until_final_rounding(self):
        # the residual of theta against the ORIGINAL coefficients only
        # contains the final rounding of the <= d surviving coordinates
        rng = np.random.default_rng(8)
        n, d = 40, 3
        vectors = rng.standard_normal((n, d))
        coefficients = rng.uniform(0, 1, n)
        norm = lp_norm(2, dim=d)
        inst = RoundingInstance(vectors=vectors, coefficients=coefficients, norm=norm)
        res = round_half_integer(inst)
        drift_bound = 0.5 * d * np.max([fnorm(norm, v) for v in vectors])
        assert res.discrepancy <= drift_bound + 1e-9 * n


class TestSignRound:
    def test_single_vector(self):
        sigma, achieved, certificate, _ = sign_round(
            np.array([[2.0, 0.0]]), sup_norm(dim=2)
        )
        assert achieved == pytest.approx(2.0)
        assert achieved <= certificate + 1e-12

    def test_cancelling_pair(self):
        x = np.array([[1.0, 1.0], [-1.0, -1.0]])
        sigma, achieved, certificate, _ = sign_round(x, lp_norm(1, dim=2))
        assert achieved <= certificate + 1e-12

    def test_random_certificate_and_oracle(self):
        rng = np.random.default_rng(4242)
        for _ in range(100):
            d, n = 4, 12
            x = rng.standard_normal((n, d))
            norm = lp_norm(1, dim=d)
            sigma, achieved, certificate, _ = sign_round(x, norm)
            assert set(np.unique(sigma)).issubset({-1, 1})
            max_norm = max(fnorm(norm, v) for v in x)
            assert achieved <= d * max_norm + 1e-9
            # exhaustive sigma oracle
            best = min(
                fnorm(norm, np.asarray(s) @ x)
                for s in product((-1, 1), repeat=n)
            )
            assert best <= achieved + 1e-9
