"""Concrete operator instances: the L1 integration example, the conditional
expectation on the square, and seeded random families for tests.

The L1 example discretizes the dyadic-cell integration operator
``x -> (integral of x over A_n)_n`` with ``A_n = [2^-n, 2^-(n-1)]``; the
residual cell ``[0, 2^-N]`` carries zero rows, which is exactly the
truncation tail ``2^-N``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .errors import NonDyadic
from .measure import MeasurableSet, MeasureSpace, _is_power_of_two
from .norms import lp_norm, sup_norm
from .operators import DiscreteOperator


# the fields each instance kind needs; the others are optional
_REQUIRED_FIELDS = {
    "l1_example": ("levels",),
    "conditional_expectation": ("grid",),
    "random_narrow": ("atoms", "target_dim", "decay"),
    "random_finite_rank": ("rank", "atoms", "target_dim"),
}
# the real-valued fields; every other field but `kind` is an integer
_REAL_FIELDS = ("decay", "scale")


@dataclass(frozen=True)
class InstanceSpec:
    """Declarative description of a built-in instance (for configs/CLI)."""

    kind: str
    levels: int | None = None
    atoms_per_level: int | None = None
    grid: int | None = None
    rank: int | None = None
    atoms: int | None = None
    target_dim: int | None = None
    decay: float | None = None
    scale: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _REQUIRED_FIELDS:
            raise ValueError(f"unknown instance kind {self.kind!r}")
        missing = [f for f in _REQUIRED_FIELDS[self.kind] if getattr(self, f) is None]
        if missing:
            raise ValueError(f"a {self.kind} instance needs {', '.join(missing)}")
        for f in fields(self)[1:]:  # every field after `kind`
            value = getattr(self, f.name)
            want, what = ((numbers.Real, "a real number") if f.name in _REAL_FIELDS
                          else (numbers.Integral, "an integer"))
            if value is not None and (type(value) is bool or not isinstance(value, want)):
                raise ValueError(f"instance field {f.name!r} must be {what}, got {value!r}")

    def build(self) -> DiscreteOperator:
        if self.kind == "l1_example":
            return build_l1_example(self.levels, self.atoms_per_level)
        if self.kind == "conditional_expectation":
            return build_conditional_expectation(self.grid)
        if self.kind == "random_narrow":
            return random_narrow_operator(
                self.seed, self.atoms, self.target_dim, self.decay
            )
        return random_finite_rank(
            self.seed, self.rank, self.atoms, self.target_dim,
            scale=self.scale if self.scale is not None else 1.0,
        )

    @staticmethod
    def from_json(obj: dict) -> "InstanceSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("an instance needs a 'kind'")
        unknown = sorted(set(obj) - {f.name for f in fields(InstanceSpec)})
        if unknown:
            raise ValueError(f"unknown instance field(s): {', '.join(unknown)}")
        return InstanceSpec(**obj)


def build_l1_example(
    levels: int, atoms_per_level: int | None = None
) -> DiscreteOperator:
    """Discretized Example-6.2-style operator into l1 of dimension `levels`.

    Cell A_n (n = 1..levels) is discretized into equal atoms; row n holds the
    atom weights of cell n (integration), and the residual cell [0, 2^-N]
    contributes zero rows.  With `atoms_per_level=None` the dyadic profile is
    used: cell n gets 2^(N-n) atoms of weight 2^-N plus one residual atom,
    for exactly 2^N atoms in total.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    n_levels = levels
    weights: list[Fraction] = []
    cell_of_atom: list[int] = []  # 1..levels, 0 for the residual
    if atoms_per_level is None:
        for n in range(1, n_levels + 1):
            count = 2 ** (n_levels - n)
            weights.extend([Fraction(1, 2**n_levels)] * count)
            cell_of_atom.extend([n] * count)
        weights.append(Fraction(1, 2**n_levels))
        cell_of_atom.append(0)
    else:
        if atoms_per_level < 2 or not _is_power_of_two(atoms_per_level):
            raise NonDyadic("atoms_per_level must be a power of two >= 2")
        for n in range(1, n_levels + 1):
            w = Fraction(1, 2**n * atoms_per_level)
            weights.extend([w] * atoms_per_level)
            cell_of_atom.extend([n] * atoms_per_level)
        weights.append(Fraction(1, 2**n_levels))
        cell_of_atom.append(0)

    space = MeasureSpace.from_weights(weights)
    matrix = np.zeros((n_levels, space.n_atoms))
    w = space.weights_float()
    for i, cell in enumerate(cell_of_atom):
        if cell >= 1:
            matrix[cell - 1, i] = w[i]
    return DiscreteOperator(matrix=matrix, space=space, target=lp_norm(1, dim=n_levels))


def l1_example_cells(T: DiscreteOperator) -> list[MeasurableSet]:
    """Cells A_1..A_N plus the residual cell, read back from the rows."""
    cells = []
    claimed: set[int] = set()
    for r in range(T.target_dim):
        idx = [int(i) for i in np.flatnonzero(T.matrix[r])]
        claimed.update(idx)
        cells.append(T.space.subset(idx))
    residual = [i for i in range(T.space.n_atoms) if i not in claimed]
    if residual:
        cells.append(T.space.subset(residual))
    return cells


def l1_example_tail_bound(levels: int):
    """Certified sign tail for the L1 example: sup_z ||T z - S_n z|| <= 2^-n."""

    def tail(n: int) -> float:
        if n >= levels:
            return 0.0
        return 2.0**-n

    return tail


def build_conditional_expectation(grid: int) -> DiscreteOperator:
    """Conditional expectation on the k x k grid of the unit square.

    Atom (t, s) has index t*k + s and weight 1/k^2; row t averages over s, so
    every entry of row t on column-t atoms is 1/k.  Vertical +1/-1 pairs map
    to zero: the strict-narrowness witness.
    """
    k = grid
    if k is None or not _is_power_of_two(k):
        raise NonDyadic("grid size must be a power of two")
    space = MeasureSpace.uniform(k * k)
    matrix = np.zeros((k, k * k))
    for t in range(k):
        matrix[t, t * k:(t + 1) * k] = 1.0 / k
    return DiscreteOperator(matrix=matrix, space=space, target=sup_norm(dim=k))


def random_narrow_operator(
    seed: int,
    atoms: int | None,
    target_dim: int,
    decay: float,
    space: MeasureSpace | None = None,
) -> DiscreteOperator:
    """Random operator with geometrically decaying column norms.

    Column i is scaled to sup-norm decay^(i+1), so single-atom partition
    bounds shrink geometrically and partitioning succeeds at any epsilon
    after bounded refinement.  decay = 0 gives the zero operator.
    """
    if decay < 0 or decay >= 1:
        raise ValueError("decay must be in [0, 1)")
    if space is None:
        space = MeasureSpace.uniform(atoms)
    n = space.n_atoms
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((target_dim, n))
    if decay == 0.0:
        matrix = np.zeros((target_dim, n))
    else:
        peaks = np.max(np.abs(matrix), axis=0)
        peaks[peaks == 0.0] = 1.0
        matrix = matrix / peaks * decay ** np.arange(1, n + 1)
    return DiscreteOperator(matrix=matrix, space=space, target=sup_norm(dim=target_dim))


def random_finite_rank(
    seed: int,
    rank: int,
    atoms: int | None,
    target_dim: int,
    scale: float = 1.0,
    space: MeasureSpace | None = None,
) -> DiscreteOperator:
    """Random operator of exact numerical rank `rank` into weighted l1."""
    if space is None:
        space = MeasureSpace.uniform(atoms)
    n = space.n_atoms
    if rank > min(target_dim, n):
        raise ValueError("rank must be <= min(target_dim, atoms)")
    rng = np.random.default_rng(seed)
    if rank == 0:
        matrix = np.zeros((target_dim, n))
    else:
        left = rng.standard_normal((target_dim, rank))
        right = rng.standard_normal((rank, n))
        matrix = scale * (left @ right)
    return DiscreteOperator(matrix=matrix, space=space, target=lp_norm(1, dim=target_dim))
