"""Deterministic command-line front end.

Every subcommand reads an optional JSON config, takes an explicit seed, and
writes a JSON report (and optionally CSV diagnostics) into the output
directory.  Reports contain no timestamps or ambient entropy, so identical
config + seed produce byte-identical files.

Exit codes: 0 success, 2 certified failure (a pipeline reported and
certified that it could not meet its budgets), 1 usage error (a malformed
command line or config: a config value of the wrong JSON type, a budget,
operator, atom set or rounding instance in the config that the library
rejects, or two operators on different spaces).
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .errors import InvalidAtom, NarrowOpsError
from .instances import (
    build_conditional_expectation,
    build_instance,
    build_l1_example,
    l1_example_cells,
    l1_example_tail_bound,
)
from .measure import SignVector
from .narrowness import check_integers, find_small_sign, partition_small_cells
from .norms import TargetNorm, fnorm
from .operators import DiscreteOperator
from .pipelines import (
    PipelineParams,
    pairing_construction,
    sum_compact_locally_convex,
    sum_compact_via_truncation,
    sum_finite_rank,
)
from .rounding import RoundingInstance, round_half_integer
from .serialize import dump_json, load_json, operator_from_json, operator_to_json, rows_to_csv


class UsageError(Exception):
    pass


def _operator_from_config(value: dict) -> DiscreteOperator:
    if not isinstance(value, dict):
        raise UsageError("operator entries must be JSON objects")
    try:
        if "instance" in value:
            return build_instance(value["instance"])
        if "path" in value:
            return operator_from_json(load_json(value["path"]))
        if "matrix" in value:
            return operator_from_json(value)
    except (NarrowOpsError, TypeError) as exc:
        raise UsageError(f"bad operator: {exc}") from None
    raise UsageError("operator entry needs 'instance', 'path', or an inline bundle")


def _operator_pair(config: dict) -> tuple[DiscreteOperator, DiscreteOperator]:
    """The config's t1 and t2, which must share one source space."""
    t1 = _operator_from_config(config["t1"])
    t2 = _operator_from_config(config["t2"])
    if t1.space != t2.space:
        raise UsageError("'t1' and 't2' must share the same source space")
    return t1, t2


def _check_keys(config: dict, *keys: str) -> None:
    """Refuse top-level config keys the subcommand does not read, so a
    misspelt budget is not replaced by its default; `seed` is always read."""
    unknown = sorted(set(config) - {"seed", *keys})
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")


def _read(config: dict, key: str, cast):
    """`cast(config[key])`; a value of the wrong JSON type is a usage error
    that names the key."""
    try:
        return cast(config[key])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {key!r}: {exc}") from None


_float_array = partial(np.asarray, dtype=float)


def _real(value) -> float:
    """Cast for a tail bound, a supremum of norms: finite and >= 0."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 <= value < math.inf):
        raise ValueError(f"a tail bound must be a finite real number >= 0, got {value!r}")
    return float(value)


def _given(config: dict, *keys: str) -> dict:
    """The config's values for those of `keys` it gives, passed to the
    library as they are: it checks each one and names the key it refuses."""
    return {k: config[k] for k in keys if k in config}


def _emit(args, name: str, report: dict, csv_rows=None, csv_columns=None) -> None:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    if args.format in ("json", "both"):
        dump_json(report, out / f"{name}.json")
    if args.format in ("csv", "both") and csv_rows is not None:
        rows_to_csv(csv_rows, csv_columns, out / f"{name}.csv")


def _emit_pipeline(args, name: str, report) -> None:
    """A pipeline report as JSON, one CSV row per stage."""
    d = report.to_json_dict()
    _emit(args, name, d, d["stages"], sorted({k for s in d["stages"] for k in s}))


def _cmd_round(args, config: dict, seed: int) -> int:
    _check_keys(config, "vectors", "coefficients", "norm")
    vectors = _read(config, "vectors", _float_array)
    coefficients = _read(config, "coefficients", _float_array)
    norm = _read(config, "norm", TargetNorm.from_json)
    try:
        instance = RoundingInstance(vectors, coefficients, norm)
    except NarrowOpsError as exc:
        raise UsageError(f"bad rounding instance: {exc}") from None
    result = round_half_integer(instance)
    _emit(args, "round", result.to_json_dict())
    return 0


def _cmd_partition(args, config: dict, seed: int) -> int:
    _check_keys(config, "operator", "epsilon")
    T = _operator_from_config(config["operator"])
    part = partition_small_cells(T, config["epsilon"])
    report = part.summary()
    report["cells"] = [c.indices.tolist() for c in part.cells]
    rows = [
        {"cell": k, "size": c.size, "bound": part.bounds[k], "exact": part.exact[k]}
        for k, c in enumerate(part.cells)
    ]
    _emit(args, "partition", report, rows, ["cell", "size", "bound", "exact"])
    return 0


def _cmd_find_sign(args, config: dict, seed: int) -> int:
    _check_keys(config, "operator", "set", "epsilon", "refine_budget")
    T = _operator_from_config(config["operator"])
    try:
        mset = T.space.subset(config["set"]) if "set" in config else T.space.full_set()
    except InvalidAtom as exc:
        raise UsageError(f"bad 'set': {exc}") from None
    res = find_small_sign(T, mset, config["epsilon"], **_given(config, "refine_budget"))
    report = {
        "sign": res.sign.values.tolist(),
        "value": res.value,
        "strategy": res.strategy,
        "space": res.operator.space.to_json(),
        "refined": not res.refine_map.is_identity,
    }
    _emit(args, "find-sign", report)
    return 0


def _cmd_pairing(args, config: dict, seed: int) -> int:
    keys = ("sigma", "epsilon", "gamma", "delta", "refine_budget")
    _check_keys(config, "t1", "t2", *keys)
    t1, t2 = _operator_pair(config)
    params = PipelineParams(**_given(config, *keys))
    _emit_pipeline(args, "pairing", pairing_construction(t1, t2, params))
    return 0


def _cmd_sum_finite_rank(args, config: dict, seed: int) -> int:
    _check_keys(config, "t1", "t2", "sigma", "epsilon", "refine_budget")
    t1, t2 = _operator_pair(config)
    report = sum_finite_rank(t1, t2, config["sigma"], config["epsilon"],
                             **_given(config, "refine_budget"))
    _emit_pipeline(args, "sum-finite-rank", report)
    return 0


def _cmd_sum_compact(args, config: dict, seed: int) -> int:
    mode = config.get("mode", "adaptive")
    mode_keys = {
        "adaptive": ("epsilon", "refine_budget"),
        "truncation": ("sigma", "epsilon", "tail_values", "tail", "refine_budget"),
    }
    if not isinstance(mode, str) or mode not in mode_keys:
        raise UsageError(f"unknown sum-compact mode {mode!r}")
    _check_keys(config, "t1", "t2", "mode", *mode_keys[mode])
    t1, t2 = _operator_pair(config)
    epsilon = config["epsilon"]
    if mode == "adaptive":
        params = PipelineParams(epsilon=epsilon, seed=seed,
                                **_given(config, "refine_budget"))
        report = sum_compact_locally_convex(t1, t2, params)
    else:
        if "tail_values" in config:
            values = _read(config, "tail_values", lambda v: [_real(x) for x in v])
            if len(values) != t2.target_dim:
                raise UsageError(f"'tail_values' has {len(values)} entries, but t2 "
                                 f"has {t2.target_dim} target rows: one bound each")

            def tail(n: int) -> float:
                return values[n - 1]
        elif config.get("tail") == "l1_example":
            tail = l1_example_tail_bound(t2.target_dim)
        else:
            raise UsageError("truncation mode needs 'tail_values' or tail='l1_example'")
        report = sum_compact_via_truncation(t1, t2, config.get("sigma", epsilon), epsilon,
                                            tail, **_given(config, "refine_budget"))
    _emit_pipeline(args, "sum-compact", report)
    return 0


def _cmd_example_l1(args, config: dict, seed: int) -> int:
    _check_keys(config, "levels", "atoms_per_level")
    levels = args.levels if args.levels is not None else config.get("levels", 12)
    apl = (args.atoms_per_level if args.atoms_per_level is not None
           else config.get("atoms_per_level"))
    T = build_l1_example(levels, apl)
    report = {"operator": operator_to_json(T), "levels": levels}
    if args.check == "strict-narrow":
        cells = []
        for k, cell in enumerate(l1_example_cells(T)):
            res = find_small_sign(T, cell, 2.0**-60)
            cells.append({
                "cell": k,
                "size": cell.size,
                "zero": res.value == 0.0,
                "refined": not res.refine_map.is_identity,
            })
        report["strict_narrow"] = {
            "all_cells_zero": all(c["zero"] for c in cells),
            "cells": cells,
        }
    _emit(args, "example-l1", report)
    return 0


def _cmd_example_condexp(args, config: dict, seed: int) -> int:
    _check_keys(config, "grid")
    k = args.grid if args.grid is not None else config.get("grid", 8)
    T = build_conditional_expectation(k)
    # strict-narrowness witness: a vertical +1/-1 pair maps to zero
    values = [0] * T.space.n_atoms
    values[0], values[1] = 1, -1
    witness = SignVector.from_values(T.space, values)
    report = {
        "operator": operator_to_json(T),
        "grid": k,
        "witness_image_norm": fnorm(T.target, T.apply(witness.values)),
    }
    _emit(args, "example-condexp", report)
    return 0


def _cmd_bench(args, config: dict, seed: int) -> int:
    """Deterministic sweep of the pipelines on built-in instances.

    Reports sizes and achieved norms only (no wall clock), so repeated runs
    are byte-identical.
    """
    from .instances import random_finite_rank, random_narrow_operator

    _check_keys(config)
    rows = []
    for levels in (4, 5, 6):
        t2 = build_l1_example(levels)
        t1 = random_narrow_operator(seed + levels, None, 3, 0.5, space=t2.space)
        rep = sum_compact_via_truncation(
            t1, t2, 0.1, 0.25, l1_example_tail_bound(levels)
        )
        rows.append({
            "case": f"truncation-l1-{levels}",
            "atoms_in": t2.space.n_atoms,
            "atoms_out": rep.space.n_atoms,
            "t1": rep.achieved["t1"],
            "t2": rep.achieved["t2_full"],
        })
    for rank in (1, 2, 3):
        space_atoms = 64
        t1 = random_narrow_operator(seed + 17 + rank, space_atoms, 3, 0.5)
        t2 = random_finite_rank(seed + 29 + rank, rank, None, 6,
                                scale=1e-3, space=t1.space)
        rep = sum_finite_rank(t1, t2, 0.1, 0.1)
        rows.append({
            "case": f"finite-rank-{rank}",
            "atoms_in": space_atoms,
            "atoms_out": rep.space.n_atoms,
            "t1": rep.achieved["t1"],
            "t2": rep.achieved["t2"],
        })
    report = {"cases": rows, "seed": seed}
    _emit(args, "bench", report, rows, ["case", "atoms_in", "atoms_out", "t1", "t2"])
    return 0


_COMMANDS = {
    "round": _cmd_round,
    "partition": _cmd_partition,
    "find-sign": _cmd_find_sign,
    "pairing": _cmd_pairing,
    "sum-finite-rank": _cmd_sum_finite_rank,
    "sum-compact": _cmd_sum_compact,
    "example-l1": _cmd_example_l1,
    "example-condexp": _cmd_example_condexp,
    "bench": _cmd_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="narrowops",
        description="Certified sign constructions on discretized measure spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON config")
        p.add_argument("--seed", type=int, help="random seed (overrides config)")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--format", choices=["json", "csv", "both"], default="json")
        if name == "example-l1":
            p.add_argument("--levels", type=int)
            p.add_argument("--atoms-per-level", type=int, dest="atoms_per_level")
            p.add_argument("--check", choices=["strict-narrow"])
        if name == "example-condexp":
            p.add_argument("--grid", type=int)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    config: dict = {}
    try:
        if args.config:
            config = json.loads(Path(args.config).read_text())
            if not isinstance(config, dict):
                raise UsageError("a config must be a JSON object")
        seed = args.seed if args.seed is not None else config.get("seed", 0)
        check_integers(seed=seed)
        return _COMMANDS[args.command](args, config, seed)
    except NarrowOpsError as exc:
        print(f"certified failure: {exc}", file=sys.stderr)
        return 2
    except (UsageError, KeyError, FileNotFoundError, ValueError,
            json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
