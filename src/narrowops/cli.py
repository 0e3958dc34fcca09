"""Deterministic command-line front end.

Every subcommand reads an optional JSON config, takes an explicit seed, and
writes a JSON report (and optionally CSV diagnostics) into the output
directory.  Reports contain no timestamps or ambient entropy, so identical
config + seed produce byte-identical files.

Exit codes: 0 success, 2 certified failure (a pipeline reported and
certified that it could not meet its budgets), 1 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import NarrowOpsError
from .instances import (
    InstanceSpec,
    build_conditional_expectation,
    build_l1_example,
    l1_example_cells,
    l1_example_tail_bound,
)
from .measure import SignVector
from .narrowness import find_small_sign, partition_small_cells
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
    if "instance" in value:
        return InstanceSpec.from_json(value["instance"]).build()
    if "path" in value:
        return operator_from_json(load_json(value["path"]))
    if "matrix" in value:
        return operator_from_json(value)
    raise UsageError("operator entry needs 'instance', 'path', or an inline bundle")


def _params(config: dict, seed: int, **overrides) -> PipelineParams:
    fields = {
        k: config[k]
        for k in (
            "sigma", "epsilon", "gamma", "delta", "net_radius",
            "max_adaptive_rounds", "refine_budget", "sample_budget",
            "functional_cap",
        )
        if k in config
    }
    fields.update(config.get("params", {}))
    fields.update(overrides)
    fields["seed"] = seed
    return PipelineParams(**fields)


class _Emitter:
    def __init__(self, args, name: str):
        self.out = Path(args.out or ".")
        self.out.mkdir(parents=True, exist_ok=True)
        self.format = args.format
        self.name = name

    def emit(self, report: dict, csv_rows=None, csv_columns=None) -> None:
        if self.format in ("json", "both"):
            dump_json(report, self.out / f"{self.name}.json")
        if self.format in ("csv", "both") and csv_rows is not None:
            rows_to_csv(csv_rows, csv_columns, self.out / f"{self.name}.csv")


def _stage_csv(report_dict: dict):
    stages = report_dict.get("stages") or []
    columns = sorted({k for s in stages for k in s})
    return stages, columns


def _cmd_round(args, config: dict, seed: int) -> int:
    instance = RoundingInstance(
        vectors=np.asarray(config["vectors"], dtype=float),
        coefficients=np.asarray(config["coefficients"], dtype=float),
        norm=TargetNorm.from_json(config["norm"]),
    )
    result = round_half_integer(instance)
    _Emitter(args, "round").emit(result.to_json_dict())
    return 0


def _cmd_partition(args, config: dict, seed: int) -> int:
    T = _operator_from_config(config["operator"])
    part = partition_small_cells(T, float(config["epsilon"]))
    report = part.summary()
    report["cells"] = [c.indices.tolist() for c in part.cells]
    rows = [
        {"cell": k, "size": c.size, "bound": part.bounds[k], "exact": part.exact[k]}
        for k, c in enumerate(part.cells)
    ]
    _Emitter(args, "partition").emit(report, rows, ["cell", "size", "bound", "exact"])
    return 0


def _cmd_find_sign(args, config: dict, seed: int) -> int:
    T = _operator_from_config(config["operator"])
    mset = (
        T.space.subset(config["set"]) if "set" in config else T.space.full_set()
    )
    res = find_small_sign(
        T, mset, float(config["epsilon"]),
        strategy=config.get("strategy", "auto"),
        refine_budget=int(config.get("refine_budget", 2**16)),
    )
    report = {
        "sign": res.sign.values.tolist(),
        "value": res.value,
        "strategy": res.strategy,
        "space": res.operator.space.to_json(),
        "refined": not res.refine_map.is_identity,
    }
    _Emitter(args, "find-sign").emit(report)
    return 0


def _cmd_pairing(args, config: dict, seed: int) -> int:
    t1 = _operator_from_config(config["t1"])
    t2 = _operator_from_config(config["t2"])
    report = pairing_construction(t1, t2, _params(config, seed))
    d = report.to_json_dict()
    rows, cols = _stage_csv(d)
    _Emitter(args, "pairing").emit(d, rows, cols)
    return 0


def _cmd_sum_finite_rank(args, config: dict, seed: int) -> int:
    t1 = _operator_from_config(config["t1"])
    t2 = _operator_from_config(config["t2"])
    report = sum_finite_rank(
        t1, t2, float(config["sigma"]), float(config["epsilon"]),
        rank_limit=int(config.get("rank_limit", 16)),
        refine_budget=int(config.get("refine_budget", 2**16)),
    )
    d = report.to_json_dict()
    rows, cols = _stage_csv(d)
    _Emitter(args, "sum-finite-rank").emit(d, rows, cols)
    return 0


def _cmd_sum_compact(args, config: dict, seed: int) -> int:
    t1 = _operator_from_config(config["t1"])
    t2 = _operator_from_config(config["t2"])
    mode = config.get("mode", "adaptive")
    if mode == "adaptive":
        report = sum_compact_locally_convex(
            t1, t2, float(config["epsilon"]), _params(config, seed)
        )
    elif mode == "truncation":
        if "tail_values" in config:
            values = [float(v) for v in config["tail_values"]]

            def tail(n: int) -> float:
                return values[n - 1]
        elif config.get("tail") == "l1_example":
            tail = l1_example_tail_bound(t2.target_dim)
        else:
            raise UsageError("truncation mode needs 'tail_values' or tail='l1_example'")
        report = sum_compact_via_truncation(
            t1, t2, float(config.get("sigma", config["epsilon"])),
            float(config["epsilon"]), tail,
            rank_limit=int(config.get("rank_limit", 16)),
            refine_budget=int(config.get("refine_budget", 2**16)),
        )
    else:
        raise UsageError(f"unknown sum-compact mode {mode!r}")
    d = report.to_json_dict()
    rows, cols = _stage_csv(d)
    _Emitter(args, "sum-compact").emit(d, rows, cols)
    return 0


def _cmd_example_l1(args, config: dict, seed: int) -> int:
    levels = args.levels if args.levels is not None else int(config.get("levels", 12))
    apl = args.atoms_per_level
    if apl is None and "atoms_per_level" in config:
        apl = int(config["atoms_per_level"])
    T = build_l1_example(levels, apl)
    report = {"operator": operator_to_json(T), "levels": levels}
    if args.check == "strict-narrow":
        cells = []
        for k, cell in enumerate(l1_example_cells(T)):
            res = find_small_sign(T, cell, 2.0**-60, strategy="kernel_pairing")
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
    _Emitter(args, "example-l1").emit(report)
    return 0


def _cmd_example_condexp(args, config: dict, seed: int) -> int:
    k = args.grid if args.grid is not None else int(config.get("grid", 8))
    T = build_conditional_expectation(k)
    # strict-narrowness witness: a vertical +1/-1 pair maps to zero
    values = [0] * T.space.n_atoms
    values[0], values[1] = 1, -1
    witness = SignVector.from_values(T.space, values)
    report = {
        "operator": operator_to_json(T),
        "grid": k,
        "witness_image_norm": fnorm(T.target, T.apply(witness)),
    }
    _Emitter(args, "example-condexp").emit(report)
    return 0


def _cmd_bench(args, config: dict, seed: int) -> int:
    """Deterministic sweep of the pipelines on built-in instances.

    Reports sizes and achieved norms only (no wall clock), so repeated runs
    are byte-identical.
    """
    from .instances import random_finite_rank, random_narrow_operator

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
    _Emitter(args, "bench").emit(
        report, rows, ["case", "atoms_in", "atoms_out", "t1", "t2"]
    )
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
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
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
