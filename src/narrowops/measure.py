"""Finite measure spaces with exact dyadic atom weights.

Atomlessness is modeled by on-demand refinement: any atom can be split into
2^t equal children, and every derived object (set, sign, operator column) is
remapped through the returned :class:`RefineMap`.  All measure arithmetic is
exact: weights are integers over a common power-of-two denominator, so
mean-zero and equal-measure predicates never involve a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InvalidAtom,
    NonDyadic,
    NotDivisible,
    UnequalWeights,
    Unsplittable,
)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# While the total numerator stays below this limit, every signed sum of
# atom numerators, and the difference of two such sums, is exact in int64.
_EXACT_LIMIT = 2**62


def _exact_total(nums: np.ndarray) -> int:
    """Sum of positive int64 numerators, in two halves that cannot wrap."""
    hi, lo = np.divmod(nums, 2**31)
    return (int(hi.sum()) << 31) + int(lo.sum())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _as_indices(indices) -> np.ndarray:
    """Fresh 1-d int64 copy of atom indices; floats, strings, booleans and
    nested input raise InvalidAtom instead of being truncated or cast."""
    try:
        a = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices))
    except (TypeError, ValueError):
        raise InvalidAtom("atom indices must be a 1-d sequence of integers") from None
    if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
        raise InvalidAtom("atom indices must be a 1-d sequence of integers")
    return a.astype(np.int64)


@dataclass(frozen=True, eq=False)
class RefineMap:
    """Index mapping produced by a refinement.

    Old atom ``i`` is replaced by ``counts[i]`` consecutive children starting
    at ``start(i)``.  Order of atoms is preserved.  ``counts`` is a read-only
    int64 array.
    """

    counts: np.ndarray

    def __post_init__(self):
        c = np.array(self.counts, dtype=np.int64)
        if c.ndim != 1 or (c.size and c.min() < 1):
            raise ValueError("child counts must be >= 1")
        object.__setattr__(self, "counts", _read_only(c))

    @staticmethod
    def identity(n: int) -> "RefineMap":
        return RefineMap(counts=np.ones(n, dtype=np.int64))

    @property
    def n_old(self) -> int:
        return len(self.counts)

    @property
    def n_new(self) -> int:
        return int(self.counts.sum())

    @property
    def is_identity(self) -> bool:
        return bool((self.counts == 1).all())

    def starts(self) -> np.ndarray:
        return np.cumsum(self.counts) - self.counts

    def children(self, old_index: int) -> range:
        s = int(self.starts()[old_index])
        return range(s, s + int(self.counts[old_index]))

    def map_indices(self, indices: Iterable[int] | np.ndarray) -> np.ndarray:
        idx = _as_indices(indices)
        c = self.counts[idx]
        # child k of old atom idx[j] sits at starts[idx[j]] + k
        offsets = np.repeat(self.starts()[idx] - (np.cumsum(c) - c), c)
        return offsets + np.arange(offsets.size)

    def lift_values(self, values: Sequence[int] | np.ndarray) -> np.ndarray:
        """Each child inherits the parent's value (indicator lifting)."""
        v = np.asarray(values)
        if v.shape[-1] != self.n_old:
            raise InvalidAtom(f"expected {self.n_old} values, got {v.shape[-1]}")
        return np.repeat(v, self.counts, axis=-1)

    def split_columns(self, matrix: np.ndarray) -> np.ndarray:
        """Split column i into counts[i] equal parts (integral-kernel rule)."""
        m = np.asarray(matrix, dtype=float)
        if m.shape[1] != self.n_old:
            raise InvalidAtom(f"expected {self.n_old} columns, got {m.shape[1]}")
        return np.repeat(m / self.counts, self.counts, axis=1)

    def compose(self, later: "RefineMap") -> "RefineMap":
        """Map refining self's output further; returns old -> newest mapping."""
        if later.n_old != self.n_new:
            raise InvalidAtom("maps are not composable")
        return RefineMap(counts=np.add.reduceat(later.counts, self.starts()))


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Finite measure space as a list of positive dyadic atom weights.

    Atom ``i`` has weight ``numerators[i] / 2**denom_log2``.  ``numerators``
    is a read-only int64 array whose total stays below 2^62, so integer
    measure arithmetic on it is exact; larger spaces raise NonDyadic.
    """

    denom_log2: int
    numerators: np.ndarray

    def __post_init__(self):
        if self.denom_log2 < 0:
            raise NonDyadic("denominator exponent must be >= 0")
        try:
            nums = np.array(self.numerators, dtype=np.int64)
        except OverflowError:
            raise NonDyadic("atom numerators exceed the exact int64 range") from None
        if nums.ndim != 1 or nums.size == 0:
            raise InvalidAtom("a measure space needs at least one atom")
        if nums.min() <= 0 or not np.array_equal(nums, self.numerators):
            raise InvalidAtom("atom weights must be positive integers / 2^k")
        # canonical form: lowest dyadic terms, so repeated refinement of
        # disjoint regions does not inflate the shared denominator
        common = int(np.bitwise_or.reduce(nums))
        shift = min(self.denom_log2, (common & -common).bit_length() - 1)
        nums >>= shift
        if _exact_total(nums) >= _EXACT_LIMIT:
            raise NonDyadic("total atom numerator exceeds the exact int64 range")
        object.__setattr__(self, "denom_log2", self.denom_log2 - shift)
        object.__setattr__(self, "numerators", _read_only(nums))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasureSpace):
            return NotImplemented
        return self.denom_log2 == other.denom_log2 and np.array_equal(
            self.numerators, other.numerators
        )

    def __hash__(self) -> int:
        return hash((self.denom_log2, self.numerators.tobytes()))

    @staticmethod
    def from_weights(weights: Sequence[Fraction | int]) -> "MeasureSpace":
        """Build from exact weights; denominators must be powers of two."""
        fracs = [Fraction(w) for w in weights]
        k = 0
        for f in fracs:
            if not _is_power_of_two(f.denominator):
                raise NonDyadic(f"weight {f} is not dyadic")
            k = max(k, f.denominator.bit_length() - 1)
        nums = [int(f * 2**k) for f in fracs]
        return MeasureSpace(denom_log2=k, numerators=nums)

    @staticmethod
    def uniform(n_atoms: int, total: Fraction | int = 1) -> "MeasureSpace":
        """n_atoms equal atoms; n_atoms must be a power of two in exact mode."""
        if not _is_power_of_two(n_atoms):
            raise NonDyadic("uniform spaces need a power-of-two atom count")
        w = Fraction(total, n_atoms)
        return MeasureSpace.from_weights([w] * n_atoms)

    @property
    def n_atoms(self) -> int:
        return len(self.numerators)

    @property
    def total(self) -> Fraction:
        return Fraction(int(self.numerators.sum()), 2**self.denom_log2)

    def weight(self, atom: int) -> Fraction:
        self._check_atom(atom)
        return Fraction(int(self.numerators[atom]), 2**self.denom_log2)

    def weights_float(self) -> np.ndarray:
        return self.numerators / 2.0**self.denom_log2

    def measure(self, indices: Iterable[int] | np.ndarray) -> Fraction:
        idx = _as_indices(indices)
        if idx.size:
            self._check_atom(int(idx.min()))
            self._check_atom(int(idx.max()))
        return Fraction(int(self.numerators[idx].sum()), 2**self.denom_log2)

    def full_set(self) -> "MeasurableSet":
        return MeasurableSet(space=self, indices=np.arange(self.n_atoms))

    def subset(self, indices: Iterable[int] | np.ndarray) -> "MeasurableSet":
        return MeasurableSet(space=self, indices=np.unique(_as_indices(indices)))

    def _check_atom(self, atom: int) -> None:
        if not 0 <= atom < self.n_atoms:
            raise InvalidAtom(f"atom {atom} out of range [0, {self.n_atoms})")

    def refine(self, atom: int, parts: int) -> tuple["MeasureSpace", RefineMap]:
        """Split one atom into `parts` equal children; parts must be 2^t >= 2."""
        self._check_atom(atom)
        if parts < 2:
            raise InvalidAtom("parts must be >= 2")
        return self.refine_atoms([atom], parts)

    def refine_atoms(
        self, atoms: Iterable[int] | np.ndarray, parts: int
    ) -> tuple["MeasureSpace", RefineMap]:
        """Split each listed atom into `parts` equal children in one pass."""
        marked = np.unique(_as_indices(atoms))
        if marked.size:
            self._check_atom(int(marked[0]))
            self._check_atom(int(marked[-1]))
        if parts < 2:
            raise InvalidAtom("parts must be >= 2")
        if not _is_power_of_two(parts):
            raise NonDyadic(f"parts={parts} is not a power of two")
        t = parts.bit_length() - 1
        if int(self.numerators.sum()) << t >= _EXACT_LIMIT:
            raise NonDyadic(f"refining into {parts} parts leaves the exact int64 range")
        counts = np.ones(self.n_atoms, dtype=np.int64)
        counts[marked] = parts
        # marked atoms keep their numerator over the finer denominator (each
        # child is 1/parts of the parent); unmarked ones scale up by parts
        nums = np.repeat(self.numerators * (parts // counts), counts)
        space = MeasureSpace(denom_log2=self.denom_log2 + t, numerators=nums)
        return space, RefineMap(counts=counts)

    def uniformize(self) -> tuple["MeasureSpace", RefineMap]:
        """Refine every atom down to the minimum atom weight.

        Requires every weight to be a power-of-two multiple of the smallest.
        """
        min_num = self.numerators.min()
        counts, rest = np.divmod(self.numerators, min_num)
        if rest.any() or (counts & (counts - 1)).any():
            raise NonDyadic(
                "weights are not power-of-two multiples of the minimum"
            )
        if (counts == 1).all():
            return self, RefineMap.identity(self.n_atoms)
        nums = np.full(int(counts.sum()), min_num)
        space = MeasureSpace(denom_log2=self.denom_log2, numerators=nums)
        return space, RefineMap(counts=counts)

    def to_json(self) -> dict:
        return {
            "denominator_log2": self.denom_log2,
            "numerators": self.numerators.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "MeasureSpace":
        return MeasureSpace(
            denom_log2=int(obj["denominator_log2"]),
            numerators=[int(n) for n in obj["numerators"]],
        )


@dataclass(frozen=True, eq=False)
class MeasurableSet:
    """Subset of atoms of a MeasureSpace.

    ``indices`` is a read-only, sorted, duplicate-free int64 array.
    """

    space: MeasureSpace
    indices: np.ndarray

    def __post_init__(self):
        idx = _as_indices(self.indices)
        if (np.diff(idx) <= 0).any():
            raise InvalidAtom("indices must be sorted and duplicate-free")
        if idx.size and (idx[0] < 0 or idx[-1] >= self.space.n_atoms):
            raise InvalidAtom("index out of range for the space")
        object.__setattr__(self, "indices", _read_only(idx))

    @property
    def size(self) -> int:
        return self.indices.size

    @property
    def is_empty(self) -> bool:
        return not self.indices.size

    @property
    def measure(self) -> Fraction:
        nums = self.space.numerators[self.indices]
        return Fraction(int(nums.sum()), 2**self.space.denom_log2)

    def weights_float(self) -> np.ndarray:
        return self.space.weights_float()[self.indices]

    def difference(self, other: "MeasurableSet") -> "MeasurableSet":
        keep = np.setdiff1d(self.indices, other.indices, assume_unique=True)
        return MeasurableSet(space=self.space, indices=keep)

    def lift(self, rmap: RefineMap, space: MeasureSpace) -> "MeasurableSet":
        return MeasurableSet(space=space, indices=rmap.map_indices(self.indices))


@dataclass(frozen=True, eq=False)
class SignVector:
    """{-1, 0, +1}-valued vector over the atoms of a space.

    ``values`` is a read-only int8 array with one entry per atom.
    """

    space: MeasureSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.space.n_atoms,):
            raise InvalidAtom("values length must equal the atom count")
        if not ((v == 1) | (v == 0) | (v == -1)).all():
            raise ValueError("sign values must be in {-1, 0, +1}")
        object.__setattr__(self, "values", _read_only(v.astype(np.int8)))

    @staticmethod
    def from_values(space: MeasureSpace, values: Sequence[int]) -> "SignVector":
        return SignVector(space=space, values=values)

    @staticmethod
    def zero(space: MeasureSpace) -> "SignVector":
        return SignVector(space=space, values=np.zeros(space.n_atoms, dtype=np.int8))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.values).tolist())

    def support_set(self) -> MeasurableSet:
        return MeasurableSet(space=self.space, indices=np.flatnonzero(self.values))

    @property
    def mean_zero(self) -> bool:
        """Exact: sum of value * weight vanishes in integer arithmetic."""
        return self.integral_numerator() == 0

    def integral_numerator(self) -> int:
        return int(np.dot(self.values.astype(np.int64), self.space.numerators))

    def integral(self) -> Fraction:
        return Fraction(self.integral_numerator(), 2**self.space.denom_log2)

    def as_array(self) -> np.ndarray:
        return self.values.astype(float)

    def is_sign_on(self, mset: MeasurableSet) -> bool:
        """True iff support equals mset exactly (a 'sign on A' in the classical sense)."""
        return np.array_equal(np.flatnonzero(self.values), mset.indices)

    def pointwise_product(self, other: "SignVector") -> "SignVector":
        if other.space is not self.space and other.space != self.space:
            raise InvalidAtom("signs live on different spaces")
        return SignVector(space=self.space, values=self.values * other.values)

    def add_disjoint(self, other: "SignVector") -> "SignVector":
        """Sum of signs with disjoint supports (stays {-1,0,+1}-valued)."""
        return SignVector(space=self.space, values=self.values + other.values)

    def lift(self, rmap: RefineMap, space: MeasureSpace) -> "SignVector":
        return SignVector(space=space, values=rmap.lift_values(self.values))


def rademacher_sign(mset: MeasurableSet, level: int) -> SignVector:
    """Block Rademacher sign on `mset`: alternating +-1 blocks of size
    |set| / 2^level.

    Requires equal atom weights inside the set and divisibility of the set
    size by 2^level.  Signs at distinct levels have a mean-zero pointwise
    product, the testable surrogate for probabilistic independence.
    """
    if level < 1:
        raise NotDivisible("level must be >= 1")
    s = mset.size
    blocks = 2**level
    if s % blocks != 0:
        raise NotDivisible(f"set size {s} not divisible by 2^{level}")
    idx = mset.indices
    nums = mset.space.numerators[idx]
    if s == 0 or (nums != nums[0]).any():
        raise UnequalWeights("atoms in the set must have equal weight")
    block_size = s // blocks
    values = np.zeros(mset.space.n_atoms, dtype=np.int8)
    values[idx] = 1 - 2 * (np.arange(s) // block_size % 2)
    return SignVector(space=mset.space, values=values)


def half_split(mset: MeasurableSet) -> tuple[MeasurableSet, MeasurableSet]:
    """Split a set into two disjoint subsets of exactly equal measure.

    Greedy largest-first subset accumulation, with an exact subset-sum
    fallback for small sets.  Raises Unsplittable when no equal split exists
    (the caller should refine and retry).
    """
    if mset.is_empty:
        raise Unsplittable("cannot split the empty set")
    nums = mset.space.numerators[mset.indices].tolist()
    total = sum(nums)
    if total % 2 != 0:
        raise Unsplittable("total numerator is odd; refine first")
    half = total // 2

    order = sorted(range(len(nums)), key=lambda j: (-nums[j], j))
    acc = 0
    first: set[int] = set()
    for j in order:
        if acc + nums[j] <= half:
            acc += nums[j]
            first.add(j)
            if acc == half:
                break
    if acc != half:
        first_dp = _subset_sum(nums, half)
        if first_dp is None:
            raise Unsplittable("no subset achieves exactly half the measure")
        first = first_dp
    in_first = np.zeros(len(nums), dtype=bool)
    in_first[list(first)] = True
    return (
        MeasurableSet(space=mset.space, indices=mset.indices[in_first]),
        MeasurableSet(space=mset.space, indices=mset.indices[~in_first]),
    )


def _subset_sum(nums: list[int], target: int) -> set[int] | None:
    """Exact subset-sum over atom numerators; reachable-sum DP."""
    reachable: dict[int, int | None] = {0: None}
    parent: dict[int, tuple[int, int]] = {}
    for j, n in enumerate(nums):
        updates = {}
        for s in reachable:
            t = s + n
            if t <= target and t not in reachable and t not in updates:
                updates[t] = s
        for t, s in updates.items():
            reachable[t] = s
            parent[t] = (s, j)
        if target in reachable:
            break
    if target not in reachable:
        return None
    out: set[int] = set()
    cur = target
    while cur != 0:
        prev, j = parent[cur]
        out.add(j)
        cur = prev
    return out
