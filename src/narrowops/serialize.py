"""Flat-file formats: operator bundles (JSON), reports (JSON) and report
rows (CSV).

Operator bundles are JSON objects ``{"space": ..., "matrix": ..., "norm": ...}``.
All JSON is written with sorted keys and no timestamps so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .measure import MeasureSpace
from .norms import TargetNorm
from .operators import DiscreteOperator


def dump_json(obj: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def operator_to_json(T: DiscreteOperator) -> dict:
    return {
        "space": T.space.to_json(),
        "matrix": [[float(v) for v in row] for row in T.matrix],
        "norm": T.target.to_json(),
    }


def operator_from_json(obj: dict) -> DiscreteOperator:
    return DiscreteOperator(
        matrix=np.asarray(obj["matrix"], dtype=float),
        space=MeasureSpace.from_json(obj["space"]),
        target=TargetNorm.from_json(obj["norm"]),
    )


def rows_to_csv(rows: list[dict], columns: list[str], path: str | Path) -> None:
    """Write dict rows with a fixed column order (missing values are blank)."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c)) for c in columns))
    Path(path).write_text("\n".join(lines) + "\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    return str(v)
