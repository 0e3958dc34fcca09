"""Exception hierarchy shared by all narrowops modules."""


class NarrowOpsError(Exception):
    """Base class for all library errors."""


class InvalidAtom(NarrowOpsError):
    """Atom index out of range for the space."""


class NonDyadic(NarrowOpsError):
    """Operation would leave the exact dyadic-rational weight model."""


class NotDivisible(NarrowOpsError):
    """Set size incompatible with the requested Rademacher block structure."""


class UnequalWeights(NarrowOpsError):
    """Operation requires all atoms in the set to have equal weight."""


class DimensionMismatch(NarrowOpsError):
    """Vector/matrix dimensions do not match."""


class NotLocallyConvex(NarrowOpsError):
    """Separating functionals require a locally convex target norm."""


class ZeroVector(NarrowOpsError):
    """A nonzero vector is required."""


class SetTooLarge(NarrowOpsError):
    """Exhaustive enumeration refused: the set exceeds the size cap."""


class NoFeasibleSign(NarrowOpsError):
    """No sign satisfying the stated constraints exists on the set."""


class NoSignFound(NarrowOpsError):
    """Small-sign search failed; carries the best candidate seen.

    Attributes:
        best_sign: best SignVector found (may be None).
        best_value: its image norm (inf if no candidate).
    """

    def __init__(self, message, best_sign=None, best_value=float("inf")):
        super().__init__(message)
        self.best_sign = best_sign
        self.best_value = best_value


class AtomTooLarge(NarrowOpsError):
    """A single atom already violates the partition budget.

    Attributes:
        atom: offending atom index.
        bound: its certified single-atom sign-image bound.
    """

    def __init__(self, atom, bound, budget):
        super().__init__(
            f"atom {atom} has sign-image bound {bound} > budget {budget}; refine it"
        )
        self.atom = atom
        self.bound = bound
        self.budget = budget


class DegenerateNullspace(NarrowOpsError):
    """Elimination failed to produce a numerically reliable null vector: a
    rounding step's direction failed its residual check on the original
    vectors even after the tableau was rebuilt by least squares, or
    ``linalg.null_vector`` found no null vector."""


class RankTooLarge(NarrowOpsError):
    """Numerical rank exceeds the configured limit."""


class PreconditionFailed(NarrowOpsError):
    """A pipeline precondition check failed.

    Attributes:
        detail: structured information about the violation.
    """

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class StageFailed(NarrowOpsError):
    """A pipeline stage could not be completed within its budgets."""

    def __init__(self, stage, message, best=None):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage
        self.best = best


class AdaptiveBudgetExhausted(NarrowOpsError):
    """Adaptive net pipeline ran out of rounds; carries the offending images.

    Attributes:
        trace: list of target vectors that escaped the net, one per failed round.
    """

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


class NoTruncationSmallEnough(NarrowOpsError):
    """No truncation level meets the requested tail budget."""


class RefinementBudgetExceeded(NarrowOpsError):
    """Refinement would exceed the configured atom budget."""
