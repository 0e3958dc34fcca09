"""Rounding lemma tests: certificate bound, sum invariance, brute-force
theta oracle on small instances, the elimination walk against the SVD
reference walk and bit for bit against the numpy tableau walk, the
factorization and the residual verdict against their numpy oracles, the
batched verdict of a segment's steps row by row, the rollback of a
segment that fails, robustness on degenerate families, invariances, and
the null vectors."""

import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from narrowops import (
    DegenerateNullspace,
    RoundingInstance,
    fnorm,
    lp_norm,
    round_half_integer,
    sign_round,
    sup_norm,
)
from narrowops import rounding
from narrowops.linalg import null_vector
from narrowops.rounding import (
    _BLOCK, _factor, _null_enough, _null_enough_rows, _snap)
import oracles

_NORMS = {
    "sup": lambda d: sup_norm(dim=d),
    "l1": lambda d: lp_norm(1, dim=d),
    "l2": lambda d: lp_norm(2, dim=d),
}


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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_vectors_within_the_dimension_skip_the_walk(self, d, monkeypatch):
        # on at most d vectors, all exactly zero (some of them -0.0), the
        # walk takes no step, and sign_round gives what it would give
        # without calling it; on d + 1 of them the walk steps
        for n in range(1, d + 2):
            x = np.zeros((n, d))
            x[::2] = -0.0
            for norm in (sup_norm(dim=d), lp_norm(1, dim=d), lp_norm(0.5, dim=d)):
                walk = round_half_integer(
                    RoundingInstance(vectors=x, coefficients=np.full(n, 0.5), norm=norm))
                sigma = 1 - 2 * walk.theta
                want = (sigma, fnorm(norm, sigma @ x), 2.0 * walk.certificate)
                calls = []
                with monkeypatch.context() as mp:
                    mp.setattr(rounding, "round_half_integer",
                               lambda instance: calls.append(instance) or walk)
                    *got, res = sign_round(x, norm)
                assert (calls == []) == (n <= d) == (walk.elimination_steps == 0)
                assert got[0].dtype == sigma.dtype and got[0].tolist() == sigma.tolist()
                assert repr(got[1:]) == repr(list(want[1:]))
                assert res.to_json_dict() == walk.to_json_dict()


def _reference_round_half_integer(instance):
    """The elimination loop with one SVD null vector per step, its sign
    fixed so that u[-1] > 0.  A step acts on the first d floating
    coordinates whose vectors are nonzero, then the first other floating
    coordinate; without zero rows these are the first d+1 floating
    coordinates.  Returns (theta, elimination_steps)."""
    x = instance.vectors
    lam = np.array(instance.coefficients, dtype=float, copy=True)
    d = instance.dim
    nonzero = x.any(axis=1)
    oracles._snap(lam)
    steps = 0
    floating = np.flatnonzero((lam > 0.0) & (lam < 1.0))
    while floating.size > d:
        basis = floating[nonzero[floating]][:d]
        act = np.append(basis, np.setdiff1d(floating, basis)[0])
        u = null_vector(x[act].T)
        if u[-1] < 0:
            u = -u
        la = lam[act]
        with np.errstate(divide="ignore"):
            t = float(np.min(np.where(u > 0, 1.0 - la, la) / np.abs(u)))
        lam[act] = la + t * u
        oracles._snap(lam)
        new_floating = np.flatnonzero((lam > 0.0) & (lam < 1.0))
        if new_floating.size >= floating.size:
            lf = lam[new_floating]
            j = new_floating[int(np.argmin(np.minimum(lf, 1.0 - lf)))]
            lam[j] = 0.0 if lam[j] <= 0.5 else 1.0
            new_floating = np.flatnonzero((lam > 0.0) & (lam < 1.0))
        floating = new_floating
        steps += 1
    return np.where(lam > 0.5, 1, 0), steps


def _check_step_invariants(vectors, coefficients, norm):
    """Round, checking that every step moves at most d+1 coordinates and
    sets at least one of them to 0 or 1.

    After one initial snap of all n coefficients, every step snaps exactly
    the coordinates it moved, and its snap returns how many of them are
    then 0 or 1.  The snaps of a segment that fails its residual check
    and is walked again are not steps, so the count below holds only
    without a rollback; none of the instances here rolls back, under the
    default OpenBLAS kernel or the Nehalem one.
    """
    n, d = vectors.shape
    moved = []

    def record(values):
        fixed = _snap(values)
        assert fixed == sum(v == 0.0 or v == 1.0 for v in values)
        moved.append((len(values), fixed))
        return fixed

    with mock.patch("narrowops.rounding._snap", side_effect=record):
        res = round_half_integer(RoundingInstance(
            vectors=vectors, coefficients=coefficients, norm=norm))
    assert moved[0][0] == n
    assert all(1 <= size <= d + 1 and fixed >= 1 for size, fixed in moved[1:])
    assert len(moved) - 1 == res.elimination_steps

    assert res.elimination_steps <= max(n - d, 0)
    assert res.discrepancy <= res.certificate + 1e-9 * max(1.0, res.certificate)
    return res


class TestEliminationStep:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 64),
        d=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        integral=st.booleans(),
        norm=st.sampled_from(sorted(_NORMS)),
    )
    def test_d_plus_one_columns(self, n, d, seed, integral, norm):
        rng = np.random.default_rng(seed)
        if integral:
            # small integer entries give zero, repeated and dependent rows
            vectors = rng.integers(-2, 3, (n, d)).astype(float)
            coefficients = rng.choice([0.0, 0.25, 0.5, 1.0], n)
        else:
            vectors = rng.standard_normal((n, d))
            coefficients = rng.uniform(0, 1, n)
        _check_step_invariants(vectors, coefficients, _NORMS[norm](d))

    def test_fixes_one_coordinate_per_step(self):
        rng = np.random.default_rng(11)
        n, d = 40, 5
        res = _check_step_invariants(
            rng.standard_normal((n, d)), rng.uniform(0.05, 0.95, n),
            lp_norm(2, dim=d))
        assert res.elimination_steps == n - d

    def test_zero_rows(self):
        rng = np.random.default_rng(12)
        vectors = rng.standard_normal((20, 3))
        vectors[::2] = 0.0
        _check_step_invariants(vectors, rng.uniform(0, 1, 20), sup_norm(dim=3))

    def test_all_rows_zero(self):
        res = _check_step_invariants(
            np.zeros((10, 2)), np.full(10, 0.5), sup_norm(dim=2))
        assert res.discrepancy == res.certificate == 0.0

    def test_duplicated_rows(self):
        rng = np.random.default_rng(13)
        vectors = np.repeat(rng.standard_normal((4, 3)), 6, axis=0)
        _check_step_invariants(vectors, rng.uniform(0, 1, 24), lp_norm(1, dim=3))

    def test_rank_below_dimension(self):
        rng = np.random.default_rng(14)
        n, d, r = 30, 6, 2
        vectors = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
        _check_step_invariants(vectors, rng.uniform(0, 1, n), lp_norm(2, dim=d))

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_at_most_dim_vectors_take_no_step(self, n):
        rng = np.random.default_rng(15)
        coefficients = rng.uniform(0, 1, n)
        res = _check_step_invariants(
            rng.standard_normal((n, 4)), coefficients, sup_norm(dim=4))
        assert res.elimination_steps == 0
        assert res.theta.tolist() == (coefficients > 0.5).astype(int).tolist()

    def test_matches_the_reference_walk(self):
        # generic instances: same theta and steps, and every step passes its
        # null-vector check without a tableau rebuild
        rng = np.random.default_rng(20261018)
        for _ in range(300):
            n, d = int(rng.integers(1, 65)), int(rng.integers(1, 9))
            instance = RoundingInstance(
                vectors=rng.standard_normal((n, d)),
                coefficients=rng.uniform(0, 1, n), norm=sup_norm(dim=d))
            theta, steps = _reference_round_half_integer(instance)
            with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as spy:
                res = round_half_integer(instance)
            assert not spy.called
            assert res.elimination_steps == steps
            assert res.theta.tolist() == theta.tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 64),
        d=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        half=st.booleans(),
        norm=st.sampled_from(sorted(_NORMS)),
    )
    def test_zero_rows_match_the_reference_walk(self, data, n, d, seed, half, norm):
        # a generic instance with 1..n of its rows exactly zero, some -0.0
        zeros = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((n, d))
        rows = rng.permutation(n)[:zeros]
        vectors[rows] = rng.choice([0.0, -0.0], (zeros, 1))
        coefficients = np.full(n, 0.5) if half else rng.uniform(0, 1, n)
        instance = RoundingInstance(
            vectors=vectors, coefficients=coefficients, norm=_NORMS[norm](d))
        theta, steps = _reference_round_half_integer(instance)
        res = round_half_integer(instance)
        assert res.elimination_steps == steps
        assert res.theta.tolist() == theta.tolist()


def _degenerate_instance(kind, rng):
    """One (vectors, coefficients) draw of a degenerate family, n <= 64 and
    d <= 8."""
    n, d = int(rng.integers(1, 65)), int(rng.integers(1, 9))
    coefficients = rng.uniform(0, 1, n)
    if kind == "near_duplicates":
        # copies of a few rows, perturbed by 1e-9 and scaled 1e-6 to 1e+6
        base = rng.standard_normal((int(rng.integers(1, d + 2)), d))
        vectors = base[rng.integers(0, len(base), n)]
        vectors = vectors * (1 + 1e-9 * rng.standard_normal((n, d)))
        vectors *= 10.0 ** rng.uniform(-6, 6, (n, 1))
    elif kind == "small_integers":
        vectors = rng.integers(-2, 3, (n, d)).astype(float)
        coefficients = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], n)
    elif kind == "half_zero":
        vectors = rng.standard_normal((n, d))
        vectors[rng.permutation(n)[: n // 2]] = 0.0
    else:
        r = int(rng.integers(0, d))
        vectors = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
    return vectors, coefficients


class TestRobustness:
    @pytest.mark.parametrize("kind", [
        "near_duplicates", "small_integers", "half_zero", "rank_below_dim"])
    def test_degenerate_families(self, kind):
        rng = np.random.default_rng(31337)
        for i in range(300):
            vectors, coefficients = _degenerate_instance(kind, rng)
            n, d = vectors.shape
            instance = RoundingInstance(
                vectors=vectors, coefficients=coefficients,
                norm=_NORMS[sorted(_NORMS)[i % 3]](d))
            try:
                res = round_half_integer(instance)
            except DegenerateNullspace as exc:
                pytest.fail(f"{kind} instance {i}: {exc}")
            assert res.elimination_steps <= max(n - d, 0)
            assert res.discrepancy <= res.certificate + 1e-9 * max(1.0, res.certificate)

    def test_tableau_rebuild_keeps_the_certificate(self):
        # every factorization returns twice the true tableau, so each
        # direction it gives misses the null space by -x_k and fails its
        # residual check whatever BLAS kernel computes it
        vectors, coefficients = _wrong_tableau_instance()
        n, d = vectors.shape
        with mock.patch("narrowops.rounding._factor", side_effect=_doubled_factor), \
                mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as spy:
            res = round_half_integer(RoundingInstance(
                vectors=vectors, coefficients=coefficients, norm=sup_norm(dim=d)))
        assert spy.called
        assert res.elimination_steps <= n - d
        assert res.discrepancy <= res.certificate

    def test_wrong_rebuilt_tableau_raises(self):
        # the doubled tableau above, with a rebuild that returns a zero
        # tableau: the rebuilt direction fails the residual check again
        vectors, coefficients = _wrong_tableau_instance()
        d = vectors.shape[1]

        def zero_tableau(a, b, rcond=None):
            return np.zeros((a.shape[1], b.shape[1])), None, 0, None

        instance = RoundingInstance(
            vectors=vectors, coefficients=coefficients, norm=sup_norm(dim=d))
        with mock.patch("narrowops.rounding._factor", side_effect=_doubled_factor), \
                mock.patch.object(np.linalg, "lstsq", side_effect=zero_tableau) as stub:
            with pytest.raises(DegenerateNullspace):
                round_half_integer(instance)
        assert stub.call_count == 1

    def test_infinite_tableau_is_rebuilt_or_raises(self):
        # a direction with infinite entries fails the residual check: the
        # walk rebuilds the tableau, and raises if the rebuild is infinite
        # too.  Positive vectors keep inf - inf, and so NaN, out of the
        # products, so res.res and u.u are both inf
        rng = np.random.default_rng(123)
        vectors = rng.uniform(0.5, 1.5, (24, 4))
        instance = RoundingInstance(
            vectors=vectors, coefficients=rng.uniform(0, 1, 24),
            norm=sup_norm(dim=4))

        def infinite_factor(a, d):
            basis, binv = _factor(a, d)
            return basis, np.full_like(binv, np.inf)

        def infinite_tableau(a, b, rcond=None):
            return np.full((a.shape[1], b.shape[1]), np.inf), None, 0, None

        # the walk that checks its segment at the end stops at the first
        # infinite direction, before the ratio test: its snaps, which
        # follow the ratio test and precede the pivot, are the steps'
        snaps = []

        def record(values):
            snaps.append(len(values))
            return _snap(values)

        with mock.patch("narrowops.rounding._factor", side_effect=infinite_factor), \
                mock.patch("narrowops.rounding._snap", side_effect=record):
            with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as spy:
                res = round_half_integer(instance)
            assert spy.called
            assert res.discrepancy <= res.certificate
            assert len(snaps) == 1 + res.elimination_steps
            snaps.clear()
            with mock.patch.object(np.linalg, "lstsq", side_effect=infinite_tableau):
                with pytest.raises(DegenerateNullspace):
                    round_half_integer(instance)
            assert snaps == [24]

    def test_failed_segment_is_walked_again_step_by_step(self):
        # the first factorization's tableau is wrong in its last column, and
        # the first entering vector, x_4 after the basis x_0..x_3, is 0
        # there: its step passes the residual check, and the next one
        # fails.  The walk that checks the segment at the end takes every
        # step of the segment, rolls back and walks it again with the
        # check before every step, as the oracle walk does throughout
        rng = np.random.default_rng(5)
        vectors = rng.standard_normal((24, 4))
        vectors[4, -1] = 0.0
        instance = RoundingInstance(
            vectors=vectors, coefficients=rng.uniform(0.05, 0.95, 24),
            norm=sup_norm(dim=4))

        def first_tableau_wrong(factor):
            calls = []

            def wrong(a, d):
                basis, binv = factor(a, d)
                if not calls:
                    binv = binv.copy()
                    binv[0, -1] += 1.0
                calls.append(d)
                return basis, binv
            return wrong

        verdicts = []
        oracles_null_enough = oracles._null_enough

        def oracle_verdict(w, u):
            verdicts.append(oracles_null_enough(w, u))
            return verdicts[-1]

        with mock.patch("oracles._factor",
                        side_effect=first_tableau_wrong(oracles._factor)), \
                mock.patch("oracles._null_enough", side_effect=oracle_verdict), \
                mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as spy:
            want = oracles.tableau_round_half_integer(instance)
        assert verdicts[:2] == [True, False]
        want_rebuilds = spy.call_count

        snaps = []

        def record(values):
            snaps.append(len(values))
            return _snap(values)

        with mock.patch("narrowops.rounding._factor",
                        side_effect=first_tableau_wrong(_factor)), \
                mock.patch("narrowops.rounding._snap", side_effect=record), \
                mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as spy:
            got = round_half_integer(instance)
        assert got.theta.tobytes() == want.theta.tobytes()
        assert got.elimination_steps == want.elimination_steps
        assert spy.call_count == want_rebuilds == 1
        # the discarded segment's steps, the passing first one among them
        assert len(snaps) - 1 - got.elimination_steps >= 2


def _wrong_tableau_instance():
    rng = np.random.default_rng(122)
    return rng.standard_normal((24, 4)), rng.uniform(0, 1, 24)


def _doubled_factor(a, d):
    basis, binv = _factor(a, d)
    return basis, 2.0 * binv


def _oracle_instance(kind, rng):
    """One (vectors, coefficients) draw: a degenerate family, generic rows,
    generic rows with 1..n of them 0.0 or -0.0, or copies of at most d+1
    generic rows."""
    if kind in ("near_duplicates", "small_integers", "half_zero", "rank_below_dim"):
        return _degenerate_instance(kind, rng)
    n, d = int(rng.integers(1, 65)), int(rng.integers(1, 9))
    vectors = rng.standard_normal((n, d))
    if kind == "zero_rows":
        rows = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        vectors[rows] = rng.choice([0.0, -0.0], (rows.size, 1))
    elif kind == "duplicated_classes":
        classes = int(rng.integers(1, min(n, d + 1) + 1))
        vectors = vectors[rng.integers(0, classes, n)]
    return vectors, rng.uniform(0, 1, n)


class TestTableauOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from([
            "generic", "zero_rows", "duplicated_classes", "near_duplicates",
            "small_integers", "half_zero", "rank_below_dim"]),
        seed=st.integers(0, 2**32 - 1),
        half=st.booleans(),
        norm=st.sampled_from(sorted(_NORMS)),
    )
    # an instance whose first residual check fails, and is rebuilt, with
    # the gemv bits of the Haswell, Zen and SkylakeX OpenBLAS kernels
    @example(kind="near_duplicates", seed=122, half=False, norm="sup")
    def test_same_bits_as_the_numpy_walk(self, kind, seed, half, norm):
        vectors, coefficients = _oracle_instance(kind, np.random.default_rng(seed))
        n, d = vectors.shape
        if half:
            coefficients = np.full(n, 0.5)
        target = _NORMS[norm](d)
        instance = RoundingInstance(
            vectors=vectors, coefficients=coefficients, norm=target)
        got = round_half_integer(instance)
        want = oracles.tableau_round_half_integer(instance)
        assert got.theta.tobytes() == want.theta.tobytes()
        assert got.elimination_steps == want.elimination_steps
        assert got.discrepancy == want.discrepancy
        assert got.certificate == want.certificate

        sigma, achieved, _, _ = sign_round(vectors, target)
        want_sigma = 1 - 2 * oracles.tableau_round_half_integer(RoundingInstance(
            vectors=vectors, coefficients=np.full(n, 0.5), norm=target)).theta
        assert sigma.tobytes() == want_sigma.tobytes()
        assert achieved == fnorm(target, want_sigma @ vectors)


def _factor_input(kind, rng):
    """One (m, d) input of ``_factor``, m <= 64 and d <= 8."""
    m, d = int(rng.integers(0, 65)), int(rng.integers(1, 9))
    a = rng.standard_normal((m, d))
    if kind == "rank_deficient":
        r = int(rng.integers(0, d))
        a = rng.standard_normal((m, r)) @ rng.standard_normal((r, d))
    elif kind == "zero_rows":
        rows = np.flatnonzero(rng.random(m) < 0.5)
        a[rows] = rng.choice([0.0, -0.0], (rows.size, 1))
    elif kind == "duplicated_rows":
        a = a[rng.integers(0, max(1, min(m, d + 1)), m)]
    elif kind == "small_integers":
        a = rng.integers(-2, 3, (m, d)).astype(float)
    elif kind == "scaled":
        a *= 2.0 ** rng.choice([-200, 0, 200], (m, 1))
    elif kind == "overflowing":
        # quotients and products overflow to inf, and inf - inf gives NaN
        a *= 2.0 ** rng.choice([-600, 0, 600], (m, 1))
    return a


class TestFactorOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from([
            "generic", "rank_deficient", "zero_rows", "duplicated_rows",
            "small_integers", "scaled", "overflowing"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_as_the_numpy_elimination(self, kind, seed):
        a = _factor_input(kind, np.random.default_rng(seed))
        d = a.shape[1]
        basis, binv = _factor(a, d)
        # numpy warns of the overflows the "overflowing" inputs are made for
        with np.errstate(over="ignore", invalid="ignore"):
            want_basis, want_binv = oracles._factor(a, d)
        assert basis == want_basis
        assert binv.shape == want_binv.shape
        assert binv.tobytes() == want_binv.tobytes()


def _near_threshold_pairs(rng, big):
    """(w, u) pairs whose res.res lies within a few ulps of the residual
    threshold: 1e-12 u.u when ``big`` is False (max|w| < 1), and
    1e-12 u.u max|w|**2 when it is True."""
    rows, d = int(rng.integers(2, 10)), int(rng.integers(1, 9))
    # positive entries: u @ w cancels nothing, so its rounding error stays
    # within a few ulps and an ulp step of w moves res.res by a few ulps
    u = rng.uniform(0.5, 1.0, rows)
    u[-1] = 1.0
    w = rng.uniform(0.5, 1.0, (rows, d))
    pairs = []
    if not big:
        # scale w until res.res meets 1e-12 u.u, then step every entry of
        # w by a few ulps
        res = u @ w
        w *= np.sqrt(1e-12 * float(u @ u) / float(res @ res))
        for k in range(-6, 7):
            pairs.append((w * (1.0 + k * 2.0**-52), u))
    else:
        # one entry of size m in a row that u weights by 0 sets max|w|
        # without moving the residual; step m by a few ulps
        u[0] = 0.0
        res = u @ w
        m = np.sqrt(float(res @ res) / (1e-12 * float(u @ u)))
        for k in range(-6, 7):
            wk = w.copy()
            wk[0, 0] = m * (1.0 + k * 2.0**-52)
            pairs.append((wk, u))
    return pairs


def _verdict_stack(rng, big):
    """(ws, us, want): a shuffled stack of (w, u) rows of one shape and the
    verdict each must get.  Each near-threshold pair comes with its oracle
    verdict, again at a power-of-two scale where res.res is near or past
    the overflow, with the same verdict, and again with a non-finite
    direction, which fails.  A least-squares direction (-B^+ x, 1) on
    generic rows B and x, whose residual cancels where B spans x, comes
    with its oracle verdict, at scale 1 and at 2**40, where only max|w|
    lifts the threshold above such a residual.  Every w gets a first row
    of ones that u weights by 0: that keeps every verdict and makes the
    test homogeneous in w."""
    ws, us, want = [], [], []
    for w, u in _near_threshold_pairs(rng, big):
        w = np.vstack([np.ones(w.shape[1]), w])
        u = np.concatenate([[0.0], u])
        verdict = oracles._null_enough(w, u)
        j = 512 - math.frexp(float(np.abs(u @ w).max()))[1]
        bad = u.copy()
        bad[1] = rng.choice([np.inf, -np.inf, np.nan])
        null = rng.standard_normal(w.shape)
        v = np.append(-np.linalg.lstsq(null[:-1].T, null[-1], rcond=None)[0], 1.0)
        ws += [w, w * 2.0**j, w, null, null * 2.0**40]
        us += [u, u, bad, v, v]
        want += [verdict, verdict, False, oracles._null_enough(null, v),
                 oracles._null_enough(null * 2.0**40, v)]
    order = rng.permutation(len(ws))
    return np.stack(ws)[order], np.stack(us)[order], [want[i] for i in order]


class TestResidualVerdict:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), big=st.booleans())
    def test_same_verdict_as_the_numpy_sums(self, seed, big):
        verdicts = set()
        for w, u in _near_threshold_pairs(np.random.default_rng(seed), big):
            got = _null_enough(w, u)
            assert got == oracles._null_enough(w, u)
            verdicts.add(got)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("j", range(-4, 5))
    def test_overflowing_threshold_scales_by_a_power_of_two(self, j):
        # max|w| = 0.75 * 2**e squares exactly; 2**420 more makes its
        # square overflow while res.res stays finite, and the verdict is
        # the one at the smaller scale
        m = 0.75 * 2.0**100
        w = np.array([[m, 0.0], [1e-6 * m * (1.0 + j * 2.0**-52), 0.0]])
        u = np.array([0.0, 1.0])
        want = oracles._null_enough(w, u)
        assert _null_enough(w, u) == want
        assert _null_enough(w * 2.0**420, u) == want

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_overflowing_squares_keep_the_verdict(self, seed):
        # with max|w| >= 1 the test is homogeneous in w; at 2**j res.res
        # overflows while res and w stay finite, and it used to fail every
        # such direction (with numpy's overflow warning, an error here).
        # A row that u weights by 0 sets max|w| = 1
        verdicts = set()
        for w, u in _near_threshold_pairs(np.random.default_rng(seed), False):
            w = np.vstack([np.ones(w.shape[1]), w])
            u = np.concatenate([[0.0], u])
            j = 512 - math.frexp(float(np.abs(u @ w).max()))[1]
            got = _null_enough(w, u)
            assert _null_enough(w * 2.0**j, u) == got
            verdicts.add(got)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("u", [[np.inf, 1.0], [1.0, -np.inf], [np.nan, 1.0]])
    def test_non_finite_direction_fails(self, u):
        assert not _null_enough(np.array([[1.0, 2.0], [1.0, 1.0]]), np.array(u))

    @pytest.mark.parametrize("scale", [1e150, 1e154, 1e160])
    def test_large_finite_vectors(self, scale):
        # max|x|**2 overflows from 1e154 on; the sup norm itself does not
        vectors = np.array([[1.0, -1.0], [6.0, 1.0], [-5.0, 4.0]]) * scale
        target = sup_norm(dim=2)
        res = round_half_integer(RoundingInstance(
            vectors=vectors, coefficients=np.array([0.5, 0.8, 0.8]), norm=target))
        assert res.discrepancy <= res.certificate
        _, achieved, certificate, _ = sign_round(vectors, target)
        assert achieved <= certificate


class TestSegmentVerdict:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), big=st.booleans())
    # a pair on the threshold where pow would round max|w|**2 an ulp away
    # from the product, so that its scaled copy got the other verdict
    @example(seed=6378329, big=True)
    def test_stacked_verdicts_match_the_oracle_row_by_row(self, seed, big):
        # the batched check relies on numpy's matmul running one gemv per
        # stacked item, with the strides of the single product
        ws, us, want = _verdict_stack(np.random.default_rng(seed), big)
        res = np.matmul(us[:, None, :], ws)[:, 0]
        for r, w, u in zip(res, ws, us):
            if np.isfinite(u).all():
                assert r.tobytes() == (u @ w).tobytes()
        assert list(_null_enough_rows(ws, us)) == want
        # each row alone, where the first bound decides a stack it passes
        assert [next(_null_enough_rows(ws[i:i + 1], us[i:i + 1]))
                for i in range(len(want))] == want
        assert set(want) == {True, False}

    def test_long_segment_is_checked_in_blocks(self):
        # one factorization and 2,497 steps: the check stacks at most
        # _BLOCK of them at a time, sees each step once, and the walk has
        # the oracle walk's bits
        rng = np.random.default_rng(7)
        instance = RoundingInstance(
            vectors=rng.standard_normal((2500, 3)),
            coefficients=rng.uniform(0, 1, 2500), norm=sup_norm(dim=3))
        blocks = []

        def record(ws, us):
            blocks.append(len(us))
            return _null_enough_rows(ws, us)

        with mock.patch("narrowops.rounding._null_enough_rows", side_effect=record):
            got = round_half_integer(instance)
        want = oracles.tableau_round_half_integer(instance)
        assert got.theta.tobytes() == want.theta.tobytes()
        assert got.elimination_steps == want.elimination_steps == 2497
        assert blocks == [_BLOCK, _BLOCK, 2497 - 2 * _BLOCK]


class TestInvariance:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 64),
        d=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        power=st.sampled_from([-10, 10]),
        norm=st.sampled_from(sorted(_NORMS)),
    )
    def test_power_of_two_scaling(self, n, d, seed, power, norm):
        rng = np.random.default_rng(seed)
        vectors, coefficients = rng.standard_normal((n, d)), rng.uniform(0, 1, n)
        base, scaled = (
            round_half_integer(RoundingInstance(
                vectors=v, coefficients=coefficients, norm=_NORMS[norm](d)))
            for v in (vectors, vectors * 2.0**power)
        )
        assert scaled.theta.tolist() == base.theta.tolist()
        assert scaled.elimination_steps == base.elimination_steps
        assert scaled.discrepancy == base.discrepancy * 2.0**power
        assert scaled.certificate == base.certificate * 2.0**power

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 64),
        d=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        norm=st.sampled_from(["sup", "l1"]),
    )
    def test_scaling_past_the_overflow_of_squares(self, n, d, seed, norm):
        # at 2**665 the residual's squares overflow, and the walk used to
        # raise DegenerateNullspace; the l2 norm itself overflows there
        rng = np.random.default_rng(seed)
        vectors, coefficients = rng.standard_normal((n, d)), rng.uniform(0, 1, n)
        base, scaled = (
            round_half_integer(RoundingInstance(
                vectors=v, coefficients=coefficients, norm=_NORMS[norm](d)))
            for v in (vectors, vectors * 2.0**665)
        )
        assert scaled.theta.tolist() == base.theta.tolist()
        assert scaled.elimination_steps == base.elimination_steps
        assert scaled.discrepancy == base.discrepancy * 2.0**665
        assert scaled.certificate == base.certificate * 2.0**665

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 64),
        d=st.integers(1, 8),
        extra=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_fixed_at_zero_or_one_change_nothing(self, n, d, extra, seed):
        rng = np.random.default_rng(seed)
        vectors, coefficients = rng.standard_normal((n, d)), rng.uniform(0, 1, n)
        fixed = rng.choice([0.0, 1.0], extra)
        base = round_half_integer(RoundingInstance(
            vectors=vectors, coefficients=coefficients, norm=sup_norm(dim=d)))
        longer = round_half_integer(RoundingInstance(
            vectors=np.vstack([vectors, 10.0 * rng.standard_normal((extra, d))]),
            coefficients=np.concatenate([coefficients, fixed]),
            norm=sup_norm(dim=d)))
        assert longer.theta[:n].tolist() == base.theta.tolist()
        assert longer.theta[n:].tolist() == fixed.astype(int).tolist()
        assert longer.elimination_steps == base.elimination_steps




class TestNullVector:
    @staticmethod
    def _check(a):
        u = null_vector(a)
        assert u.shape == (a.shape[1],)
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert np.linalg.norm(a @ u) <= 1e-6 * max(1.0, float(np.max(np.abs(a))))

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_random(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            self._check(rng.standard_normal((d, d + 1)) * 10.0 ** rng.integers(-3, 4))

    @pytest.mark.parametrize("d", [2, 5, 8])
    def test_rank_deficient(self, d):
        rng = np.random.default_rng(100 + d)
        for r in range(d):
            self._check(rng.standard_normal((d, r)) @ rng.standard_normal((r, d + 1)))

    @pytest.mark.parametrize("d", [1, 4, 8])
    def test_all_zero(self, d):
        self._check(np.zeros((d, d + 1)))
