"""narrowops: certified sign constructions on discretized measure spaces.

Exact dyadic measure spaces with refinement, F-norms, discrete operators,
constructive coefficient rounding, small-sign partitions, and end-to-end
pipelines producing signs with certified image bounds under two operators
at once.
"""

from .errors import (
    AdaptiveBudgetExhausted,
    AtomTooLarge,
    DegenerateNullspace,
    DimensionMismatch,
    InvalidAtom,
    NarrowOpsError,
    NoFeasibleSign,
    NonDyadic,
    NoSignFound,
    NotDivisible,
    NotLocallyConvex,
    NoTruncationSmallEnough,
    PreconditionFailed,
    RankTooLarge,
    RefinementBudgetExceeded,
    SetTooLarge,
    StageFailed,
    UnequalWeights,
    ZeroVector,
)
from .instances import (
    build_conditional_expectation,
    build_instance,
    build_l1_example,
    l1_example_cells,
    l1_example_tail_bound,
    random_finite_rank,
    random_narrow_operator,
)
from .measure import (
    MeasurableSet,
    MeasureSpace,
    RefineMap,
    SignVector,
    rademacher_sign,
    rademacher_signs,
)
from .narrowness import (
    AdversarialOutcome,
    NetCover,
    Partition,
    SmallSignResult,
    adversarial_disjoint_signs,
    find_small_sign,
    net_cover,
    partition_small_cells,
)
from .norms import (
    TargetNorm,
    dual_unit_functional,
    fnorm,
    fnorm_many,
    lp_norm,
    sup_norm,
)
from .operators import DiscreteOperator, max_sign_image_norm
from .pipelines import (
    AbsContinuityResult,
    PipelineParams,
    PipelineReport,
    check_absolute_continuity,
    pairing_construction,
    sum_compact_locally_convex,
    sum_compact_via_truncation,
    sum_finite_rank,
)
from .rounding import (
    RoundingInstance,
    RoundingResult,
    round_half_integer,
    sign_round,
)

__version__ = "0.1.0"
