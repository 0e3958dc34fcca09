"""CLI contract tests: exit codes, report schemas, byte-identical reruns,
and serialization round trips."""

import json

import numpy as np
import pytest

from narrowops import cli
from narrowops.errors import InvalidAtom
from narrowops.serialize import operator_from_json, operator_to_json
from narrowops.instances import random_finite_rank


def _run(tmp_path, command, config, extra=()):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path), *extra]
    return cli.main(argv)


def _pipeline_config():
    return {
        "t1": {"instance": {"kind": "random_narrow", "seed": 1, "atoms": 16,
                            "target_dim": 3, "decay": 0.5}},
        "t2": {"instance": {"kind": "random_finite_rank", "seed": 2, "rank": 1,
                            "atoms": 16, "target_dim": 4, "scale": 1e-3}},
    }


class TestExitCodes:
    def test_round_success(self, tmp_path):
        code = _run(tmp_path, "round", {
            "vectors": [[1.0, 0.0], [0.0, 1.0]],
            "coefficients": [0.5, 0.25],
            "norm": {"kind": "sup", "weights": [1.0, 1.0]},
        })
        assert code == 0
        report = json.loads((tmp_path / "round.json").read_text())
        assert report["discrepancy"] <= report["certificate"] + 1e-9

    def test_missing_key_is_usage_error(self, tmp_path):
        assert _run(tmp_path, "round", {"vectors": [[1.0]]}) == 1

    def test_missing_config_file(self, tmp_path):
        argv = ["round", "--config", str(tmp_path / "absent.json")]
        assert cli.main(argv) == 1

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 1

    def test_certified_failure_is_exit_2(self, tmp_path):
        # pairing precondition violated: T2 mass not absolutely continuous
        config = {
            "t1": {"matrix": [[0.0, 0.0, 0.0, 0.0]],
                   "space": {"numerators": [1, 1, 1, 1], "denominator_log2": 2},
                   "norm": {"kind": "sup", "weights": [1.0]}},
            "t2": {"matrix": [[10.0, 10.0, 10.0, 10.0]],
                   "space": {"numerators": [1, 1, 1, 1], "denominator_log2": 2},
                   "norm": {"kind": "sup", "weights": [1.0]}},
            "delta": 0.5,
        }
        assert _run(tmp_path, "pairing", config) == 2

    def test_find_sign_failure_is_exit_2(self, tmp_path):
        config = {
            "operator": {"matrix": [[1.0, 0.0]],
                         "space": {"numerators": [1, 1], "denominator_log2": 1},
                         "norm": {"kind": "sup", "weights": [1.0]}},
            "epsilon": 1e-3,
            "refine_budget": 2,
        }
        assert _run(tmp_path, "find-sign", config) == 2

    @pytest.mark.parametrize("atoms", [[0.5], [999]], ids=["float", "out-of-range"])
    def test_malformed_set_is_usage_error(self, tmp_path, atoms):
        # a malformed config is a usage error, not a certified failure
        config = {
            "operator": {"instance": {"kind": "l1_example", "levels": 4}},
            "set": atoms,
            "epsilon": 1e-6,
        }
        assert _run(tmp_path, "find-sign", config) == 1

    def test_malformed_operator_bundle_is_usage_error(self, tmp_path):
        config = {
            "operator": {
                "matrix": [[1.0, 1.0]],
                "space": {"denominator_log2": 1, "numerators": [0, 2]},
                "norm": {"kind": "sup", "weights": [1.0]},
            },
            "epsilon": 0.1,
        }
        assert _run(tmp_path, "partition", config) == 1

    def test_invalid_atom_inside_a_pipeline_is_not_usage_error(
        self, tmp_path, monkeypatch
    ):
        # only config input is turned into a usage error; the same exception
        # raised by the library mid-pipeline keeps the library-error exit code
        def fail(*args, **kwargs):
            raise InvalidAtom("maps are not composable")

        monkeypatch.setattr(cli, "find_small_sign", fail)
        config = {
            "operator": {"instance": {"kind": "l1_example", "levels": 4}},
            "epsilon": 1e-6,
        }
        assert _run(tmp_path, "find-sign", config) == 2

    def test_unknown_pipeline_parameter_is_usage_error(self, tmp_path):
        # reported as a usage error, not as an uncaught TypeError; the
        # "params" object is no longer read at all
        config = {
            "t1": {"instance": {"kind": "random_narrow", "seed": 4, "atoms": 16,
                                "target_dim": 3, "decay": 0.5}},
            "t2": {"instance": {"kind": "l1_example", "levels": 4}},
            "sigma": 0.1, "epsilon": 0.2, "gamma": 0.15, "delta": 0.0625,
            "params": {"bogus": 1},
        }
        assert _run(tmp_path, "pairing", config) == 1

    def test_adaptive_sum_compact_below_default_gamma(self, tmp_path):
        # gamma is a pairing budget only, so epsilon may lie below the
        # default gamma 0.05
        config = {**_pipeline_config(), "epsilon": 0.04}
        assert _run(tmp_path, "sum-compact", config) == 0
        report = json.loads((tmp_path / "sum-compact.json").read_text())
        assert report["budgets"]["epsilon"] == 0.04
        assert report["achieved"]["t2"] <= 0.02 + 1e-9

    def test_sum_compact_requires_epsilon(self, tmp_path):
        assert _run(tmp_path, "sum-compact", _pipeline_config()) == 1

    @pytest.mark.parametrize("command, config", [
        ("round", {"vectors": [[1.0]], "coefficients": [0.5],
                   "norm": {"kind": "sup", "weights": [1.0]}}),
        ("partition", {"operator": {"instance": {"kind": "l1_example", "levels": 4}},
                       "epsilon": 0.25}),
        ("find-sign", {"operator": {"instance": {"kind": "l1_example", "levels": 4}},
                       "epsilon": 1e-6}),
        ("pairing", {**_pipeline_config(), "sigma": 0.1, "epsilon": 0.2,
                     "gamma": 0.15, "delta": 0.0625}),
        ("sum-finite-rank", {**_pipeline_config(), "sigma": 0.1, "epsilon": 0.1}),
        ("sum-compact", {**_pipeline_config(), "epsilon": 0.2}),
        ("sum-compact", {**_pipeline_config(), "mode": "truncation", "epsilon": 0.2,
                         "tail_values": [0.0] * 4}),
        ("example-l1", {"levels": 4}),
        ("example-condexp", {"grid": 4}),
        ("bench", {}),
    ], ids=["round", "partition", "find-sign", "pairing", "sum-finite-rank",
            "sum-compact-adaptive", "sum-compact-truncation", "example-l1",
            "example-condexp", "bench"])
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys, command, config):
        # a misspelt budget used to fall back to its default silently
        assert _run(tmp_path, command, {**config, "sigam": 1e-9}) == 1
        assert "sigam" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("sample_budget", -3),
                                              ("functional_cap", -1)])
    def test_count_below_its_minimum_is_usage_error(self, tmp_path, capsys, field, value):
        # sample_budget -3 used to run on one sample row and exit 0, and
        # functional_cap -1 to exit 2 as a certified failure; neither key
        # is read now
        config = {**_pipeline_config(), "epsilon": 0.2, field: value}
        assert _run(tmp_path, "sum-compact", config) == 1
        assert field in capsys.readouterr().err

    def test_truncation_rejects_adaptive_keys(self, tmp_path):
        config = {**_pipeline_config(), "mode": "truncation", "epsilon": 0.2,
                  "tail_values": [0.0] * 4, "params": {"gamma": 0.01}}
        assert _run(tmp_path, "sum-compact", config) == 1

    @pytest.mark.parametrize("command, config, field", [
        *[("partition", {"operator": {"instance": instance}, "epsilon": 0.25}, field)
          for instance, field in [
              ({"kind": "l1_example"}, "levels"),
              ({"kind": "l1_example", "levels": 4, "level": 3}, "level"),
              ({"kind": "random_narrow", "target_dim": 3, "decay": 0.5}, "atoms"),
              ({"levels": 4}, "kind"),
              ({"kind": "l1_example", "levels": "4"}, "levels"),
              ({"kind": "l1_example", "levels": True}, "levels"),
              ({"kind": "random_narrow", "atoms": 16, "target_dim": 3,
                "decay": "0.5"}, "decay"),
              ({"kind": ["l1_example"], "levels": 4}, "kind"),
          ]],
        ("partition", {"operator": {"instance": {"kind": "l1_example", "levels": 4}},
                       "epsilon": [1]}, "epsilon"),
        ("sum-compact", {**_pipeline_config(), "mode": "truncation", "epsilon": 0.2,
                         "tail_values": 0.5}, "tail_values"),
        ("find-sign", {"operator": {"instance": {"kind": "l1_example", "levels": 4}},
                       "epsilon": 0.1, "refine_budget": [3]}, "refine_budget"),
        ("round", {"vectors": [[1.0]], "coefficients": [0.5], "norm": 5}, "norm"),
        ("partition", {"operator": {"matrix": 5,
                                    "space": {"numerators": [1], "denominator_log2": 0},
                                    "norm": {"kind": "sup", "weights": [1.0]}},
                       "epsilon": 0.1}, "operator"),
        *[("find-sign", {"operator": {"instance": {"kind": "l1_example", "levels": 4}},
                         "epsilon": 0.1, field: value}, field)
          for field, value in [("refine_budget", 4.9), ("refine_budget", True),
                               ("seed", 1.5), ("epsilon", True)]],
        *[("sum-compact", {**_pipeline_config(), "epsilon": 0.2, field: value}, field)
          for field, value in [("max_adaptive_rounds", 2.5), ("sample_budget", 3.5),
                               ("functional_cap", True)]],
        ("example-l1", {"levels": 4.5}, "levels"),
        # an unhashable mode used to escape as a TypeError traceback
        ("sum-compact", {**_pipeline_config(), "mode": ["truncation"], "epsilon": 0.2},
         "mode"),
        # keys no pipeline reads any more; each used to exit 0, and pairing
        # ignored the last three
        *[(command, {**_pipeline_config(), **config, field: value}, field)
          for command, config in [
              ("pairing", {"sigma": 0.1, "epsilon": 0.2, "gamma": 0.15, "delta": 0.0625}),
              ("sum-compact", {"epsilon": 0.2})]
          for field, value in [("params", {"gamma": 0.15}), ("max_adaptive_rounds", 1),
                               ("sample_budget", 0), ("functional_cap", 1)]],
        ("sum-finite-rank", {**_pipeline_config(), "sigma": 0.1, "epsilon": 0.1,
                             "rank_limit": 4}, "rank_limit"),
        ("sum-compact", {**_pipeline_config(), "mode": "truncation", "epsilon": 0.2,
                         "tail_values": [0.0] * 4, "rank_limit": 4}, "rank_limit"),
        # the adaptive compact sum reads epsilon alone of the budgets, and
        # reported budgets.t1 = epsilon/2 whatever sigma was
        *[("sum-compact", {**_pipeline_config(), "epsilon": 0.2, field: value}, field)
          for field, value in [("sigma", 1e-9), ("gamma", 7.0), ("delta", 3.0)]],
        # pipeline parameters reach the library as given, and it names the
        # one it refuses; a string budget used to escape as a TypeError
        ("pairing", {**_pipeline_config(), "sigma": "0.1"}, "sigma"),
        ("pairing", {**_pipeline_config(), "delta": None}, "delta"),
        ("pairing", {**_pipeline_config(), "refine_budget": 2.5}, "refine_budget"),
        ("sum-finite-rank", {**_pipeline_config(), "sigma": [0.1], "epsilon": 0.1},
         "sigma"),
        ("sum-compact", {**_pipeline_config(), "epsilon": "0.2"}, "epsilon"),
        ("sum-compact", {**_pipeline_config(), "mode": "truncation", "epsilon": 0.2,
                         "sigma": True, "tail_values": [0.0] * 4}, "sigma"),
        # the sign search has one order, and the coefficient-sup norm is gone
        ("find-sign", {"operator": {"instance": {"kind": "l1_example", "levels": 4}},
                       "epsilon": 1e-6, "strategy": "kernel_pairing"}, "strategy"),
        ("partition", {"operator": {"matrix": [[1.0, 1.0]],
                                    "space": {"numerators": [1, 1], "denominator_log2": 1},
                                    "norm": {"kind": "coefficient_sup", "basis": [[1.0]]}},
                       "epsilon": 0.1}, "unknown norm kind 'coefficient_sup'"),
    ], ids=["missing-levels", "unknown-field", "missing-atoms", "missing-kind",
            "string-levels", "bool-levels", "string-decay", "list-kind",
            "list-epsilon", "scalar-tail-values", "list-refine-budget", "int-norm",
            "scalar-matrix", "float-refine-budget", "bool-refine-budget",
            "float-seed", "bool-epsilon", "float-max-adaptive-rounds",
            "float-sample-budget", "bool-functional-cap", "float-levels", "list-mode",
            *[f"{command}-{field}-key"
              for command in ("pairing", "sum-compact-adaptive")
              for field in ("params", "max-adaptive-rounds", "sample-budget",
                            "functional-cap")],
            "sum-finite-rank-rank-limit-key", "sum-compact-truncation-rank-limit-key",
            "sum-compact-adaptive-sigma-key", "sum-compact-adaptive-gamma-key",
            "sum-compact-adaptive-delta-key", "pairing-string-sigma", "pairing-null-delta",
            "pairing-float-refine-budget", "sum-finite-rank-list-sigma",
            "sum-compact-adaptive-string-epsilon", "sum-compact-truncation-bool-sigma",
            "strategy-key", "coefficient-sup-norm"])
    def test_bad_instance_is_usage_error(self, tmp_path, capsys, command, config, field):
        # an ill-typed instance field or config value used to escape main as
        # a TypeError traceback, to exit 2, or to be truncated or cast and run
        assert _run(tmp_path, command, config) == 1
        assert field in capsys.readouterr().err

    def test_type_error_inside_a_pipeline_is_not_usage_error(self, tmp_path, monkeypatch):
        # only reading a config value turns a TypeError into a usage error;
        # one raised by the library is a defect and propagates
        def fail(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli, "find_small_sign", fail)
        config = {
            "operator": {"instance": {"kind": "l1_example", "levels": 4}},
            "epsilon": 1e-6,
        }
        with pytest.raises(TypeError):
            _run(tmp_path, "find-sign", config)

    def test_truncation_needs_one_tail_bound_per_row(self, tmp_path, capsys):
        # a short list used to end in an IndexError traceback
        config = {"t1": {"instance": {"kind": "random_narrow", "seed": 1, "atoms": 16,
                                      "target_dim": 3, "decay": 0.5}},
                  "t2": {"instance": {"kind": "l1_example", "levels": 4}},
                  "mode": "truncation", "epsilon": 0.2, "tail_values": [0.5]}
        assert _run(tmp_path, "sum-compact", config) == 1
        err = capsys.readouterr().err
        assert "1 entries" in err and "4 target rows" in err

    def test_config_must_be_an_object(self, tmp_path):
        assert _run(tmp_path, "bench", []) == 1

    @pytest.mark.parametrize("command, config", [
        *[("partition", {"operator": {"instance": instance}, "epsilon": 0.25})
          for instance in [
              {"kind": "random_narrow", "seed": 1, "atoms": 3, "target_dim": 3,
               "decay": 0.5},
              {"kind": "conditional_expectation", "grid": 3},
              {"kind": "l1_example", "levels": 4, "atoms_per_level": 3},
          ]],
        ("partition", {"operator": {"matrix": [[1.0]],
                                    "space": {"numerators": [1], "denominator_log2": -1},
                                    "norm": {"kind": "sup", "weights": [1.0]}},
                       "epsilon": 0.1}),
        ("round", {"vectors": [[1.0, 0.0]], "coefficients": [0.5],
                   "norm": {"kind": "sup", "weights": [1.0]}}),
        ("round", {"vectors": [[1.0]], "coefficients": [0.5, 0.5],
                   "norm": {"kind": "sup", "weights": [1.0]}}),
        ("sum-finite-rank", {**_pipeline_config(),
                             "t2": {"instance": {"kind": "l1_example", "levels": 5}},
                             "sigma": 0.1, "epsilon": 0.1}),
        ("pairing", {**_pipeline_config(),
                     "t2": {"instance": {"kind": "l1_example", "levels": 5}}}),
        ("sum-compact", {**_pipeline_config(),
                         "t2": {"instance": {"kind": "l1_example", "levels": 5}},
                         "epsilon": 0.2}),
    ], ids=["random-narrow-atoms", "condexp-grid", "l1-atoms-per-level",
            "negative-denominator", "round-vector-dim", "round-extra-coefficient",
            "sum-finite-rank-spaces", "pairing-spaces", "sum-compact-spaces"])
    def test_malformed_config_is_not_a_certified_failure(self, tmp_path, capsys,
                                                         command, config):
        # exit 2 is kept for a pipeline that certifies it cannot meet its
        # budgets; these configs used to exit 2 with "certified failure"
        assert _run(tmp_path, command, config) == 1
        assert "usage error" in capsys.readouterr().err


class TestReports:
    def test_partition_schema(self, tmp_path):
        config = {
            "operator": {"instance": {"kind": "l1_example", "levels": 4}},
            "epsilon": 0.25,
        }
        assert _run(tmp_path, "partition", config, ("--format", "both")) == 0
        report = json.loads((tmp_path / "partition.json").read_text())
        assert {"n_cells", "bounds", "cells"} <= set(report)
        csv = (tmp_path / "partition.csv").read_text().splitlines()
        assert csv[0] == "cell,size,bound,exact"
        assert len(csv) == report["n_cells"] + 1

    def test_sum_finite_rank_schema(self, tmp_path):
        config = {**_pipeline_config(), "sigma": 0.1, "epsilon": 0.1}
        assert _run(tmp_path, "sum-finite-rank", config) == 0
        report = json.loads((tmp_path / "sum-finite-rank.json").read_text())
        assert report["status"] == "success"
        assert report["achieved"]["t1"] <= 0.1 + 1e-9
        assert report["achieved"]["t2"] <= 0.1 + 1e-9
        assert report["sign"]  # non-empty sign values

    def test_sum_compact_truncation(self, tmp_path):
        config = {
            "t1": {"instance": {"kind": "random_narrow", "seed": 3, "atoms": 32,
                                "target_dim": 3, "decay": 0.5}},
            "t2": {"instance": {"kind": "l1_example", "levels": 5}},
            "mode": "truncation",
            "tail": "l1_example",
            "sigma": 0.1,
            "epsilon": 0.25,
        }
        # l1_example has 32 atoms at 5 levels, matching t1
        assert _run(tmp_path, "sum-compact", config) == 0
        report = json.loads((tmp_path / "sum-compact.json").read_text())
        assert report["extras"]["truncation_level"] == 3

    def test_example_l1_check(self, tmp_path):
        code = cli.main([
            "example-l1", "--levels", "6", "--check", "strict-narrow",
            "--out", str(tmp_path),
        ])
        assert code == 0
        report = json.loads((tmp_path / "example-l1.json").read_text())
        assert report["strict_narrow"]["all_cells_zero"] is True

    def test_example_condexp_witness(self, tmp_path):
        assert cli.main(["example-condexp", "--grid", "4",
                         "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "example-condexp.json").read_text())
        assert report["witness_image_norm"] == 0.0


class TestDeterminism:
    @pytest.mark.parametrize("command,config,extra", [
        ("pairing", {
            "t1": {"instance": {"kind": "random_narrow", "seed": 4, "atoms": 16,
                                "target_dim": 3, "decay": 0.5}},
            "t2": {"instance": {"kind": "l1_example", "levels": 4}},
            "sigma": 0.1, "epsilon": 0.2, "gamma": 0.15, "delta": 0.0625,
        }, ()),
        ("sum-finite-rank",
         {**_pipeline_config(), "sigma": 0.1, "epsilon": 0.1}, ()),
        ("sum-compact",
         {**_pipeline_config(), "epsilon": 0.2}, ()),
        ("bench", {}, ("--format", "both")),
    ])
    def test_reruns_byte_identical(self, tmp_path, command, config, extra):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        for out in (out_a, out_b):
            argv = [command, "--config", str(cfg), "--seed", "0",
                    "--out", str(out), *extra]
            assert cli.main(argv) == 0
        for path_a in sorted(out_a.iterdir()):
            path_b = out_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()


class TestSerialization:
    def test_operator_bundle_round_trip(self):
        T = random_finite_rank(0, 2, 8, 3)
        back = operator_from_json(operator_to_json(T))
        np.testing.assert_array_equal(back.matrix, T.matrix)
        assert back.space == T.space
        assert back.target.to_json() == T.target.to_json()
