"""Finite measure spaces with exact dyadic atom weights.

Atomlessness is modeled by on-demand refinement: any atom can be split into
2^t equal children, and every derived object (set, sign, operator column) is
remapped through the returned :class:`RefineMap`.  All measure arithmetic is
exact: weights are integers over a common power-of-two denominator, so
mean-zero and equal-measure predicates never involve a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InvalidAtom,
    NonDyadic,
    NotDivisible,
    UnequalWeights,
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


def _check_split(total: int, parts: int) -> None:
    """Refuse to split the atoms of a space of lowest-terms total numerator
    `total` into `parts` children if that can leave the exact int64 range."""
    if total << (parts.bit_length() - 1) >= _EXACT_LIMIT:
        raise NonDyadic(f"refining into {parts} parts leaves the exact int64 range")


def _split_in_two(total: int, num: int, d: int) -> tuple[int, int, int]:
    """(total, num, d) after splitting in two every atom of numerator `num`
    in a space of lowest-terms total numerator `total` over 2^d, refused as
    `_check_split` refuses it.  The split keeps the lowest terms: an odd
    `num` doubles the total and the denominator, an even one is halved."""
    _check_split(total, 2)
    if num % 2:
        return total << 1, num, d + 1
    return total, num >> 1, d


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
    at ``starts[i]``.  Order of atoms is preserved.  ``counts`` and
    ``starts`` are read-only int64 arrays; ``starts``, ``n_new`` and
    ``is_identity`` are computed on first use.
    """

    counts: np.ndarray

    def __post_init__(self):
        c = np.array(self.counts, dtype=np.int64)
        if c.ndim != 1 or (c.size and c.min() < 1):
            raise ValueError("child counts must be >= 1")
        object.__setattr__(self, "counts", _read_only(c))

    @staticmethod
    def _of_counts(counts: np.ndarray) -> "RefineMap":
        """Map of a fresh int64 array of counts >= 1 that refinement or
        composition derived: it needs no check and no copy."""
        rmap = object.__new__(RefineMap)
        rmap.__dict__.update(counts=_read_only(counts))
        return rmap

    @staticmethod
    def identity(n: int) -> "RefineMap":
        return RefineMap._of_counts(np.ones(n, dtype=np.int64))

    @property
    def n_old(self) -> int:
        return len(self.counts)

    @cached_property
    def n_new(self) -> int:
        return int(self.counts.sum())

    @cached_property
    def is_identity(self) -> bool:
        return bool((self.counts == 1).all())

    @cached_property
    def starts(self) -> np.ndarray:
        return _read_only(np.cumsum(self.counts) - self.counts)

    def map_indices(self, indices: Iterable[int] | np.ndarray) -> np.ndarray:
        idx = _as_indices(indices)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_old):
            raise InvalidAtom(f"atom index out of range [0, {self.n_old})")
        c = self.counts[idx]
        # child k of old atom idx[j] sits at starts[idx[j]] + k
        offsets = np.repeat(self.starts[idx] - (np.cumsum(c) - c), c)
        return offsets + np.arange(offsets.size)

    def lift_values(self, values: Sequence[int] | np.ndarray) -> np.ndarray:
        """Each child inherits the parent's value (indicator lifting)."""
        v = np.asarray(values)
        if v.shape[-1] != self.n_old:
            raise InvalidAtom(f"expected {self.n_old} values, got {v.shape[-1]}")
        return np.repeat(v, self.counts, axis=-1)

    def compose(self, later: "RefineMap") -> "RefineMap":
        """Map refining self's output further; returns old -> newest mapping."""
        if later.n_old != self.n_new:
            raise InvalidAtom("maps are not composable")
        return RefineMap._of_counts(np.add.reduceat(later.counts, self.starts))


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
        self._lowest_terms(self.denom_log2, nums)
        if _exact_total(self.numerators) >= _EXACT_LIMIT:
            raise NonDyadic("total atom numerator exceeds the exact int64 range")

    def _lowest_terms(self, denom_log2: int, nums: np.ndarray) -> "MeasureSpace":
        """Self as positive int64 `nums` / 2^denom_log2 shifted in place to lowest
        terms, so refining disjoint regions does not inflate the denominator.
        `refine_atoms`, `_tile` and `uniformize` build their spaces by this alone."""
        common = int(np.bitwise_or.reduce(nums))
        shift = min(denom_log2, (common & -common).bit_length() - 1)
        nums >>= shift
        object.__setattr__(self, "denom_log2", denom_log2 - shift)
        object.__setattr__(self, "numerators", _read_only(nums))
        return self

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
            # a Fraction keeps a numpy integer denominator as it is
            d = int(f.denominator)
            if not _is_power_of_two(d):
                raise NonDyadic(f"weight {f} is not dyadic")
            k = max(k, d.bit_length() - 1)
        nums = [int(f * 2**k) for f in fracs]
        return MeasureSpace(denom_log2=k, numerators=nums)

    @staticmethod
    def uniform(n_atoms: int) -> "MeasureSpace":
        """n_atoms equal atoms of total weight 1; n_atoms must be a power of two."""
        if not _is_power_of_two(n_atoms):
            raise NonDyadic("uniform spaces need a power-of-two atom count")
        return MeasureSpace.from_weights([Fraction(1, n_atoms)] * n_atoms)

    @property
    def n_atoms(self) -> int:
        return len(self.numerators)

    @property
    def total(self) -> Fraction:
        return Fraction(int(self.numerators.sum()), 2**self.denom_log2)

    def weights_float(self) -> np.ndarray:
        return self.numerators / 2.0**self.denom_log2

    def full_set(self) -> "MeasurableSet":
        return MeasurableSet(space=self, indices=np.arange(self.n_atoms))

    def subset(self, indices: Iterable[int] | np.ndarray) -> "MeasurableSet":
        return MeasurableSet(space=self, indices=np.unique(_as_indices(indices)))

    def refine_atoms(
        self, atoms: Iterable[int] | np.ndarray, parts: int
    ) -> tuple["MeasureSpace", RefineMap]:
        """Split each listed atom into `parts` equal children in one pass."""
        marked = _as_indices(atoms)
        # a MeasurableSet's indices are already strictly increasing
        if (marked[1:] <= marked[:-1]).any():
            marked = np.unique(marked)
        if marked.size and (marked[0] < 0 or marked[-1] >= self.n_atoms):
            raise InvalidAtom(f"atom index out of range [0, {self.n_atoms})")
        if parts < 2:
            raise InvalidAtom("parts must be >= 2")
        if not _is_power_of_two(parts):
            raise NonDyadic(f"parts={parts} is not a power of two")
        _check_split(int(self.numerators.sum()), parts)
        t = parts.bit_length() - 1
        # marked atoms keep their numerator over the finer denominator (each
        # child is 1/parts of the parent); unmarked ones scale up by parts
        counts = np.ones(self.n_atoms, dtype=np.int64)
        scale = np.full(self.n_atoms, parts, dtype=np.int64)
        counts[marked], scale[marked] = parts, 1
        nums = np.repeat(self.numerators * scale, counts)
        space = object.__new__(MeasureSpace)._lowest_terms(self.denom_log2 + t, nums)
        return space, RefineMap._of_counts(counts)

    def _tile(self, denom_log2: int, pieces) -> tuple["MeasureSpace", RefineMap, list]:
        """The refinement of self into the atoms of `pieces`, each a tuple
        (k, num, lefts, *columns) of atoms [l, l + num) / 2^k with
        self.denom_log2 <= k <= denom_log2, one at each int64 left end l,
        that together tile self's atoms.  Returns the space of them in order
        of their left ends, in lowest terms, the map from self, and each
        column of per-atom values laid out alike."""
        ks, nums, lefts, *columns = zip(*pieces)
        shifts = [denom_log2 - k for k in ks]
        nums = np.repeat(np.array([num << s for num, s in zip(nums, shifts)], dtype=np.int64),
                         [l.size for l in lefts])
        lefts = np.concatenate([l << s for l, s in zip(lefts, shifts)])
        order = np.argsort(lefts)
        space = object.__new__(MeasureSpace)._lowest_terms(denom_log2, nums[order])
        # self's atoms begin where their children do
        firsts = (np.cumsum(self.numerators) - self.numerators) << (denom_log2 - self.denom_log2)
        counts = np.diff(np.searchsorted(lefts[order], firsts), append=lefts.size)
        return space, RefineMap._of_counts(counts), [np.concatenate(c)[order] for c in columns]

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
        space = object.__new__(MeasureSpace)._lowest_terms(self.denom_log2, nums)
        return space, RefineMap._of_counts(counts)

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

    def lift(self, rmap: RefineMap, space: MeasureSpace) -> "MeasurableSet":
        return MeasurableSet(space=space, indices=rmap.map_indices(self.indices))

    @staticmethod
    def _of_mask(space: MeasureSpace, mask: np.ndarray) -> "MeasurableSet":
        """The atoms where `mask` is nonzero: flatnonzero's indices need no check."""
        mset = object.__new__(MeasurableSet)
        mset.__dict__.update(space=space, indices=_read_only(np.flatnonzero(mask)))
        return mset


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

    def support_set(self) -> MeasurableSet:
        return MeasurableSet._of_mask(self.space, self.values)

    @property
    def mean_zero(self) -> bool:
        """Exact: sum of value * weight vanishes in integer arithmetic."""
        return self.integral_numerator() == 0

    def integral_numerator(self) -> int:
        return int(np.dot(self.values.astype(np.int64), self.space.numerators))

    def is_sign_on(self, mset: MeasurableSet) -> bool:
        """True iff support equals mset exactly (a 'sign on A' in the classical sense)."""
        return np.array_equal(np.flatnonzero(self.values), mset.indices)

    def lift(self, rmap: RefineMap, space: MeasureSpace) -> "SignVector":
        return SignVector(space=space, values=rmap.lift_values(self.values))


def _rademacher_blocks(mset: MeasurableSet) -> np.ndarray:
    """Block size of each level l >= 1 of the Rademacher family on `mset`,
    |set| / 2^l for every l with 2^l dividing |set|; the set must be a
    non-empty set of equal-weight atoms."""
    nums = mset.space.numerators[mset.indices]
    if not nums.size or (nums != nums[0]).any():
        raise UnequalWeights("atoms in the set must have equal weight")
    s = nums.size
    # 2^l divides s exactly for l below the bit length of s's lowest set bit
    return s >> np.arange(1, (s & -s).bit_length())


def rademacher_signs(mset: MeasurableSet) -> np.ndarray:
    """Block Rademacher family on a non-empty set of equal-weight atoms, as
    an (L, n_atoms) int8 matrix: row l-1 alternates +-1 blocks of size
    |set| / 2^l on the set, for every l >= 1 with 2^l dividing |set|.  Rows
    have mean-zero pointwise products, the surrogate for independence."""
    block_sizes = _rademacher_blocks(mset)
    family = np.zeros((block_sizes.size, mset.space.n_atoms), dtype=np.int8)
    family[:, mset.indices] = 1 - 2 * (np.arange(mset.size) // block_sizes[:, None] % 2)
    return family


def _cut_sums(cuts: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Per-old-atom sums of int64 `terms`, one per atom of a set whose
    positions at the cuts between old atoms are `cuts`, as differences of
    exact prefix sums: the int64 sums that ``np.add.reduceat`` forms over
    the whole space when every atom outside the set contributes 0."""
    prefix = np.concatenate(([0], np.cumsum(terms)))
    return prefix[cuts[1:]] - prefix[cuts[:-1]]


def _wave_sums(num: int, size: int, blocks: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Per-parent sums of the +-1 waves with block sizes `blocks` on a set
    of `size` atoms of numerator `num` (rows of :func:`rademacher_signs`)
    times the numerator, without building them: an (L, len(cuts) - 1) int64
    array, old atom j's children in the set being its positions cuts[j] to
    cuts[j + 1] - 1.  Entry [l, j] is a difference of prefix sums; a wave's
    prefix sum at position t is b - |b - (t mod 2b)|.  When the set size is
    a power of two, so is every block size, and t mod 2b is the mask
    t & (2b - 1)."""
    b = blocks[:, None]
    phase = cuts & (2 * b - 1) if _is_power_of_two(size) else cuts % (2 * b)
    wave = np.abs(b - phase)
    return num * (wave[:, :-1] - wave[:, 1:])


def rademacher_sign(mset: MeasurableSet, level: int) -> SignVector:
    """The level-`level` row of :func:`rademacher_signs` as a sign, built
    alone; the set size must be divisible by 2^level."""
    if level < 1:
        raise NotDivisible("level must be >= 1")
    if mset.size % 2**level != 0:
        raise NotDivisible(f"set size {mset.size} not divisible by 2^{level}")
    block = _rademacher_blocks(mset)[level - 1]
    values = np.zeros(mset.space.n_atoms, dtype=np.int8)
    values[mset.indices] = 1 - 2 * (np.arange(mset.size) // block % 2)
    return SignVector(space=mset.space, values=values)
