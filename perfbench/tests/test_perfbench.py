"""Tests of the benchmark itself: the independent checker and the run contract.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import narrowops  # noqa: E402
from workloads import WORKLOADS, PairingL1  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


class SmallPairing(PairingL1):
    levels = 5  # same pipeline and checker, small enough for a unit test


def test_checker_counts_a_corrupted_sign_as_a_failure():
    workload = SmallPairing()
    fixed = workload.setup()
    t1 = workload.make_input(fixed, 3, 0)
    report = workload.run(fixed, t1)
    assert workload.check(fixed, t1, report) == []

    values = list(report.sign.values)
    values[0] = -values[0]
    report.sign = narrowops.SignVector.from_values(report.space, values)
    problems = workload.check(fixed, t1, report)
    assert "sign is not mean-zero" in problems


def test_checker_counts_a_corrupted_theta_as_a_failure():
    workload = WORKLOADS["rounding_batch"]
    batch = workload.make_input(None, 3, 0)[:6]
    results = workload.run(None, batch)
    assert workload.check(None, batch, results) == []

    rounded, signed = results[0]
    theta = np.array(rounded.theta, copy=True)
    theta[0] = 1 - theta[0]
    results[0] = (dataclasses.replace(rounded, theta=theta), signed)
    problems = workload.check(None, batch, results)
    assert any(p.startswith("reported discrepancy") for p in problems)


def test_inputs_depend_only_on_the_seed():
    workload = WORKLOADS["truncation_l1"]
    fixed = workload.setup()
    a = workload.make_input(fixed, 5, 2).matrix
    assert np.array_equal(a, workload.make_input(fixed, 5, 2).matrix)
    assert not np.array_equal(a, workload.make_input(fixed, 6, 2).matrix)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_one_checked_operation_reports_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "1",
                          "--seconds", "0.1", "--trace", "0"))
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_one_traced_operation_reports_every_per_layer_metric():
    result = _result(_run("--workload", "truncation_l1", "--seed", "1",
                          "--seconds", "0.1", "--trace", "1"))
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for layer in ("rounding.round_half_integer", "linalg.null_vector",
                  "narrowness.partition_small_cells", "narrowness.find_small_sign",
                  "operators.brute_force_best_sign",
                  "pipelines.sum_compact_via_truncation"):
        assert values[f"{layer}.calls"] >= 1
    assert values["bench.trace_overhead"] > 0
    assert (BENCH / "traces" / "truncation_l1.jsonl.gz").is_file()


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = _run("--workload", "truncation_l1", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
