"""Concrete operator instances: the L1 integration example, the conditional
expectation on the square, and seeded random families for tests.

The L1 example discretizes the dyadic-cell integration operator
``x -> (integral of x over A_n)_n`` with ``A_n = [2^-n, 2^-(n-1)]``; the
residual cell ``[0, 2^-N]`` carries zero rows, which is exactly the
truncation tail ``2^-N``.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

import numpy as np

from .errors import NonDyadic
from .measure import MeasurableSet, MeasureSpace, _is_power_of_two
from .narrowness import check_integers
from .norms import lp_norm, sup_norm
from .operators import DiscreteOperator


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
    check_integers(1, levels=levels)
    if atoms_per_level is not None:
        check_integers(atoms_per_level=atoms_per_level)
        if atoms_per_level < 2 or not _is_power_of_two(atoms_per_level):
            raise NonDyadic("atoms_per_level must be a power of two >= 2")
    weights: list[Fraction] = []
    cell_of_atom: list[int] = []  # 1..levels, 0 for the residual
    for n in range(1, levels + 1):
        count = atoms_per_level or 2 ** (levels - n)
        weights.extend([Fraction(1, 2**n * count)] * count)
        cell_of_atom.extend([n] * count)
    weights.append(Fraction(1, 2**levels))
    cell_of_atom.append(0)

    space = MeasureSpace.from_weights(weights)
    matrix = np.zeros((levels, space.n_atoms))
    w = space.weights_float()
    for i, cell in enumerate(cell_of_atom):
        if cell >= 1:
            matrix[cell - 1, i] = w[i]
    return DiscreteOperator(matrix=matrix, space=space, target=lp_norm(1, dim=levels))


def l1_example_cells(T: DiscreteOperator) -> list[MeasurableSet]:
    """Cells A_1..A_N plus the residual cell, read back from the rows."""
    cells = [T.space.subset(np.flatnonzero(row)) for row in T.matrix]
    residual = np.flatnonzero(~T.matrix.any(axis=0))
    if residual.size:
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
    check_integers(grid=grid)
    k = grid
    if not _is_power_of_two(k):
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
    `atoms` is read only when no `space` is given.
    """
    check_integers(0, seed=seed)
    check_integers(1, target_dim=target_dim)
    if (isinstance(decay, bool) or not isinstance(decay, numbers.Real)
            or not 0 <= decay < 1):
        raise ValueError(f"decay must be a real number in [0, 1), got {decay!r}")
    if space is None:
        check_integers(atoms=atoms)
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
    """Random operator of exact numerical rank `rank` into weighted l1.
    `atoms` is read only when no `space` is given."""
    check_integers(0, seed=seed, rank=rank)
    check_integers(1, target_dim=target_dim)
    if (isinstance(scale, bool) or not isinstance(scale, numbers.Real)
            or not math.isfinite(scale)):
        raise ValueError(f"scale must be a finite real number, got {scale!r}")
    if space is None:
        check_integers(atoms=atoms)
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


# each instance kind: its builder, and the defaults of its config fields
# that the builder itself has no default for
_KINDS = {
    "l1_example": (build_l1_example, {}),
    "conditional_expectation": (build_conditional_expectation, {}),
    "random_narrow": (random_narrow_operator, {"seed": 0}),
    "random_finite_rank": (random_finite_rank, {"seed": 0}),
}


def build_instance(spec: dict) -> DiscreteOperator:
    """The operator a config's instance spec describes.

    `spec` is a JSON object: its `kind` names the builder, and its other
    fields are the builder's keyword arguments, over the kind's defaults.
    The builder checks each value; Python's TypeError names a field the
    builder does not take or a required one that is missing.  A `space`
    is not a config field.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("an instance must be a JSON object with a 'kind'")
    fields = dict(spec)
    kind = fields.pop("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown instance kind {kind!r}")
    if "space" in fields:
        raise ValueError("'space' is not an instance field")
    builder, defaults = _KINDS[kind]
    return builder(**{**defaults, **fields})
