"""Flat-file formats: matrices (CSV/JSON), operator bundles, reports.

The CSV matrix format is row-major with a two-line header::

    rows,cols
    3,6
    <3 lines of 6 comma-separated values>

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


def matrix_to_csv(matrix: np.ndarray, path: str | Path) -> None:
    m = np.asarray(matrix, dtype=float)
    lines = ["rows,cols", f"{m.shape[0]},{m.shape[1]}"]
    for row in m:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def matrix_from_csv(path: str | Path) -> np.ndarray:
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0].strip() != "rows,cols":
        raise ValueError("matrix CSV must start with the 'rows,cols' header")
    rows, cols = (int(v) for v in lines[1].split(","))
    data = [[float(v) for v in line.split(",")] for line in lines[2:2 + rows]]
    m = np.asarray(data, dtype=float)
    if m.shape != (rows, cols):
        raise ValueError(f"matrix CSV body is {m.shape}, header says ({rows},{cols})")
    return m


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
