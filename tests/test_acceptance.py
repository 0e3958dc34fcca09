"""Acceptance gate: one test per criterion, each printing a single
pass/fail summary line (run with -v for per-criterion PASSED/FAILED)."""

import json
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from narrowops import (
    AdaptiveBudgetExhausted,
    DiscreteOperator,
    MeasureSpace,
    NotLocallyConvex,
    PipelineParams,
    RoundingInstance,
    SignVector,
    adversarial_disjoint_signs,
    cli,
    find_small_sign,
    fnorm,
    l1_example_cells,
    l1_example_tail_bound,
    lp_norm,
    pairing_construction,
    random_finite_rank,
    random_narrow_operator,
    round_half_integer,
    sign_round,
    sum_compact_locally_convex,
    sum_compact_via_truncation,
    sum_finite_rank,
    sup_norm,
)
from narrowops.instances import build_l1_example
from narrowops.serialize import operator_to_json
from oracles import brute_force_best_sign
from revalidation import revalidate


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def _norms(kind, Y):
    """Row-wise norm of a 2-D array for the three acceptance norms."""
    if kind == "sup":
        return np.max(np.abs(Y), axis=1)
    if kind == "l1":
        return np.sum(np.abs(Y), axis=1)
    return np.sqrt(np.sum(Y * Y, axis=1))


_NORMS = {
    "sup": lambda d: sup_norm(dim=d),
    "l1": lambda d: lp_norm(1, dim=d),
    "l2": lambda d: lp_norm(2, dim=d),
}


def _rounding_instances(n_cases):
    rng = np.random.default_rng(20260823)
    for i in range(n_cases):
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, 65))
        kind = ("sup", "l1", "l2")[i % 3]
        vectors = rng.standard_normal((n, d))
        lam = rng.uniform(0, 1, n)
        yield kind, vectors, lam, _NORMS[kind](d)


def test_criterion_1_rounding_bound():
    start = time.perf_counter()
    violations = 0
    oracle_checked = 0
    for kind, vectors, lam, norm in _rounding_instances(1000):
        n, d = vectors.shape
        res = round_half_integer(
            RoundingInstance(vectors=vectors, coefficients=lam, norm=norm)
        )
        bound = (d / 2) * max(fnorm(norm, v) for v in vectors)
        if res.discrepancy > bound + 1e-9:
            violations += 1
        if n <= 12:
            thetas = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
            best = _norms(kind, (lam - thetas) @ vectors).min()
            assert best <= res.discrepancy + 1e-9
            oracle_checked += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        violations == 0 and elapsed < 10.0,
        f"1000 instances, {violations} bound violations, "
        f"{oracle_checked} brute-force oracle checks, {elapsed:.2f}s",
    )


def test_criterion_2_sign_round_bound():
    violations = 0
    for kind, vectors, lam, norm in _rounding_instances(1000):
        n, d = vectors.shape
        sigma, achieved, certificate, _ = sign_round(vectors, norm)
        assert set(np.unique(sigma)).issubset({-1, 1})
        assert achieved <= certificate + 1e-9
        if achieved > d * max(fnorm(norm, v) for v in vectors) + 1e-9:
            violations += 1
    _report(2, violations == 0, f"1000 instances, {violations} violations")


def test_criterion_3_partition_dichotomy():
    rng = np.random.default_rng(31)
    partitions = adversaries = 0
    for _ in range(200):
        space = MeasureSpace.uniform(8)
        M = rng.standard_normal((3, 8)) * rng.uniform(0.05, 0.6)
        T = DiscreteOperator(M, space, sup_norm(dim=3))
        for eps in (0.25, 1.0, 4.0):
            out = adversarial_disjoint_signs(T, eps, 2)
            if out.exhausted:
                partitions += 1
                part = out.certificate
                assert part is not None and part.n_cells >= 1
                for cell, bound, exact in zip(part.cells, part.bounds, part.exact):
                    assert exact and bound <= eps + 1e-9
                    # row-sum formula: sup target bound is the max absolute
                    # row sum over the cell
                    row_sum = np.max(np.sum(np.abs(M[:, list(cell.indices)]), axis=1))
                    assert bound == pytest.approx(row_sum, rel=1e-12)
                    if cell.size <= 12:
                        _, bf = brute_force_best_sign(
                            T, cell, require_mean_zero=False, objective="max"
                        )
                        assert bound == pytest.approx(bf, rel=1e-12)
            else:
                adversaries += 1
                assert out.certificate is None
                assert len(out.signs) >= 2
                supports = np.array([s.values for s in out.signs]) != 0
                assert (supports.sum(axis=0) <= 1).all()
                for s in out.signs:
                    assert out.operator.image_norm(s.values) >= eps / 2 - 1e-9
    _report(
        3,
        partitions + adversaries == 600 and partitions > 0 and adversaries > 0,
        f"600 cases: {partitions} partitions, {adversaries} adversarial, "
        "exactly one branch each",
    )


def test_criterion_4_pairing_pipeline():
    start = time.perf_counter()
    params = PipelineParams(sigma=0.1, epsilon=0.1, gamma=0.05,
                            delta=1 / 64, refine_budget=2**14)
    successes = 0
    for seed in range(100):
        t2 = build_l1_example(5)
        t1 = random_narrow_operator(seed, None, 3, 0.5, space=t2.space)
        rep = pairing_construction(t1, t2, params)
        assert rep.status == "success"
        revalidate(rep, t1, t2, 0.1, 0.1)
        total, m, stage = rep.space.total, rep.extras["n_stages"], rep.extras["stage"]
        assert ((stage >= 1) & (stage <= m + 1)).all()
        for j in range(1, m + 1):
            sign = SignVector.from_values(rep.space, rep.sign.values * (stage == j))
            assert sign.mean_zero
            assert sign.support_set().measure == total / 2**j  # exact Fraction
        tail = SignVector.from_values(rep.space, rep.sign.values * (stage == m + 1))
        assert tail.is_sign_on(rep.space.subset(np.flatnonzero(stage == m + 1)))
        successes += 1
    elapsed = time.perf_counter() - start
    _report(
        4,
        successes == 100 and elapsed < 30.0,
        f"{successes}/100 runs, stage measures exact, {elapsed:.2f}s",
    )


def test_criterion_5_finite_rank_pipeline():
    successes = 0
    for seed in range(100):
        t1 = random_narrow_operator(1000 + seed, 64, 3, 0.5)
        t2 = random_finite_rank(2000 + seed, 1 + seed % 4, None, 4,
                                scale=1e-4, space=t1.space)
        rep = sum_finite_rank(t1, t2, 0.1, 0.1)
        assert rep.status == "success"
        revalidate(rep, t1, t2, 0.1, 0.1)
        # internal chain: per-cell sigma/2^k schedule and rounding certificate
        for stage in rep.stages:
            assert stage["t1_norm"] <= stage["t1_budget"] + 1e-9
        assert rep.rounding_certificate <= rep.budgets["delta"] + 1e-9
        successes += 1
    _report(5, successes == 100,
            f"{successes}/100 runs, chain inequalities asserted")


def test_criterion_6_compact_pipeline():
    successes = failures = 0
    for seed in range(50):
        t1 = random_narrow_operator(3000 + seed, 64, 3, 0.4)
        t2 = random_finite_rank(4000 + seed, 1 + seed % 3, None, 6,
                                scale=2e-3, space=t1.space)
        if seed % 2:
            t2 = DiscreteOperator(t2.matrix, t2.space, sup_norm(dim=6))
        try:
            rep = sum_compact_locally_convex(
                t1, t2, PipelineParams(epsilon=0.2, seed=seed)
            )
        except AdaptiveBudgetExhausted as exc:
            failures += 1
            assert len(exc.trace) >= 1
            assert all({"round", "norm", "image"} <= set(e) for e in exc.trace)
            continue
        assert rep.adaptive_rounds <= 5
        revalidate(rep, t1, t2, 0.1, 0.1)
        successes += 1
    # non-locally-convex target must be rejected up front
    t1 = random_narrow_operator(1, 16, 3, 0.5)
    bad = DiscreteOperator(np.zeros((2, 16)), t1.space, lp_norm(0.5, dim=2))
    with pytest.raises(NotLocallyConvex):
        sum_compact_locally_convex(t1, bad, PipelineParams(epsilon=0.2))
    _report(
        6,
        successes >= 45,
        f"{successes}/50 successes (threshold 45), {failures} certified "
        "failures with traces, p=1/2 target rejected",
    )


def test_criterion_7_l1_example_certification():
    start = time.perf_counter()
    T = build_l1_example(12)
    # (i) strict narrowness: exact-zero mean-zero sign in every cell
    cells = l1_example_cells(T)
    for cell in cells:
        res = find_small_sign(T, cell, 2.0**-60)
        assert res.value == 0.0
    # (ii) tail bound |row_n . z| <= 2^-n for random signs, and exactly
    # by row sum
    rng = np.random.default_rng(7)
    Z = rng.integers(-1, 2, (1000, T.space.n_atoms)).astype(float)
    images = np.abs(Z @ T.matrix.T)
    bounds = np.array([2.0**-n for n in range(1, 13)])
    assert np.all(images <= bounds + 1e-12)
    np.testing.assert_allclose(np.abs(T.matrix).sum(axis=1), bounds, rtol=1e-12)
    # (iii) non-compactness surrogate: normalized indicator images are
    # pairwise >= 1 apart in l1
    imgs = []
    for n, cell in enumerate(cells, start=1):
        e = np.zeros(T.space.n_atoms)
        e[list(cell.indices)] = 1.0 / float(cell.measure)
        imgs.append(T.apply(e))
    for a, b in combinations(imgs, 2):
        assert np.sum(np.abs(a - b)) >= 1.0 - 1e-12
    # (iv) truncation pipeline at eps = 1/8 picks level 4
    t1 = random_narrow_operator(42, None, 3, 0.5, space=T.space)
    rep = sum_compact_via_truncation(t1, T, 0.1, 1 / 8, l1_example_tail_bound(12))
    assert rep.extras["truncation_level"] == 4
    revalidate(rep, t1, T, 0.1, 1 / 8)
    elapsed = time.perf_counter() - start
    _report(7, elapsed < 10.0,
            f"strict narrowness, tail bounds, image separation, "
            f"truncation level 4, {elapsed:.2f}s")


# the criterion-8 configs, one per subcommand, each run at seed 0
CRITERION_8_RUNS = {
    "round": {"vectors": [[1.0, 0.0], [0.3, -0.2], [0.0, 1.0]],
              "coefficients": [0.5, 0.25, 0.75],
              "norm": {"kind": "sup", "weights": [1.0, 1.0]}},
    "partition": {
        "operator": {"instance": {"kind": "l1_example", "levels": 4}},
        "epsilon": 0.25,
    },
    "find-sign": {
        "operator": {"instance": {"kind": "l1_example", "levels": 4}},
        "set": [0, 1, 2, 3],
        "epsilon": 1e-6,
    },
    "pairing": {
        "t1": {"instance": {"kind": "random_narrow", "seed": 4,
                            "atoms": 16, "target_dim": 3, "decay": 0.5}},
        "t2": {"instance": {"kind": "l1_example", "levels": 4}},
        "sigma": 0.1, "epsilon": 0.2, "gamma": 0.15, "delta": 0.0625,
    },
    "sum-finite-rank": {
        "t1": {"instance": {"kind": "random_narrow", "seed": 1,
                            "atoms": 16, "target_dim": 3, "decay": 0.5}},
        "t2": {"instance": {"kind": "random_finite_rank", "seed": 2,
                            "rank": 1, "atoms": 16, "target_dim": 4,
                            "scale": 1e-3}},
        "sigma": 0.1, "epsilon": 0.1,
    },
    "sum-compact": {
        "t1": {"instance": {"kind": "random_narrow", "seed": 1,
                            "atoms": 16, "target_dim": 3, "decay": 0.5}},
        "t2": {"instance": {"kind": "random_finite_rank", "seed": 2,
                            "rank": 1, "atoms": 16, "target_dim": 4,
                            "scale": 1e-3}},
        "epsilon": 0.2,
    },
    "example-l1": {"levels": 5},
    "example-condexp": {"grid": 4},
    "bench": {},
}


def test_criterion_8_cli_determinism(tmp_path):
    checked = 0
    for command, config in CRITERION_8_RUNS.items():
        cfg = tmp_path / f"{command}.config.json"
        cfg.write_text(json.dumps(config))
        outs = []
        for label in ("a", "b"):
            out = tmp_path / command / label
            argv = [command, "--config", str(cfg), "--seed", "0",
                    "--out", str(out), "--format", "both"]
            assert cli.main(argv) == 0, command
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files, command
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        checked += 1
    _report(8, checked == len(CRITERION_8_RUNS),
            f"{checked} subcommands byte-identical across reruns")


GOLDEN = Path(__file__).parent / "golden"


def _assert_matches(got, want, path="report"):
    """Keys, lengths, ints, strings and bools equal; floats within 1e-12
    relative, since numpy versions may differ in the last bits."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for k in want:
            _assert_matches(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0), path
    else:
        assert got == want, path


@pytest.mark.parametrize("command", sorted(CRITERION_8_RUNS))
def test_criterion_8_golden_reports(tmp_path, command):
    """The seed-0 report of each criterion-8 config matches the one
    committed under tests/golden/ (regenerate one with `narrowops <command>
    --config <its config> --seed 0 --out tests/golden`)."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CRITERION_8_RUNS[command]))
    assert cli.main([command, "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / f"{command}.json").read_text())
    _assert_matches(got, json.loads((GOLDEN / f"{command}.json").read_text()))


def test_truncation_golden_report(tmp_path):
    """The seed-0 truncation-mode `sum-compact` report on the level-6 L1
    example, T1 from `random_narrow_operator` seed 0 on its space, matches
    tests/golden/sum-compact-truncation.json (regenerate it by running
    `narrowops sum-compact --seed 0` on the config below).  Every cell's
    coefficient image is 0 there, so this pins the signs that pair zero
    vectors off."""
    t2 = build_l1_example(6)
    t1 = random_narrow_operator(0, None, 3, 0.5, space=t2.space)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "t1": operator_to_json(t1),
        "t2": {"instance": {"kind": "l1_example", "levels": 6}},
        "mode": "truncation", "tail": "l1_example", "sigma": 0.1, "epsilon": 0.125,
    }))
    assert cli.main(["sum-compact", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "sum-compact.json").read_text())
    _assert_matches(got, json.loads((GOLDEN / "sum-compact-truncation.json").read_text()))
