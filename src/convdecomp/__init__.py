"""Exact convex decomposition of scaled packing-relaxation optima.

Given a packing problem, a gap verifier for it, and an optimum of its
linear relaxation, this package expresses the optimum, divided by the gap
constant and by 1 + s for a slack s of ceil(sqrt(n)) times the first
phase's precision, as a convex combination of feasible 0/1 points whose
barycenter equals the scaled optimum bit for bit.  All arithmetic is exact.
"""

from .epsilon import decompose_epsilon
from .errors import (
    DecompositionError,
    DimensionMismatch,
    DominanceViolation,
    IneligibleInstanceError,
    InfeasiblePoint,
    InstanceFormatError,
    SlackTooSmall,
    VerifierGapViolation,
    VerifierViolation,
)
from .exact import (
    ExactRun,
    build_dominating,
    ceil_sqrt,
    decompose_exact,
    minimum_slack,
    reduce_to_exact,
    unit_points_feasible,
)
from .geometry import (
    BinaryPoint,
    ConvexCombination,
    RVector,
    squared_l2,
    to_rational,
)
from .problems import (
    ExplicitProblem,
    KnapsackInstance,
    KnapsackProblem,
    PackingProblem,
    ValidationReport,
    load_instance,
    validate_decomposition,
)
from .verifier import ExtendedVerifier, GapVerifier, clip_negative

__version__ = "0.1.0"

__all__ = [
    "BinaryPoint",
    "ConvexCombination",
    "DecompositionError",
    "DimensionMismatch",
    "DominanceViolation",
    "ExactRun",
    "ExplicitProblem",
    "ExtendedVerifier",
    "GapVerifier",
    "IneligibleInstanceError",
    "InfeasiblePoint",
    "InstanceFormatError",
    "KnapsackInstance",
    "KnapsackProblem",
    "PackingProblem",
    "RVector",
    "SlackTooSmall",
    "ValidationReport",
    "VerifierGapViolation",
    "VerifierViolation",
    "build_dominating",
    "ceil_sqrt",
    "clip_negative",
    "decompose_epsilon",
    "decompose_exact",
    "load_instance",
    "minimum_slack",
    "reduce_to_exact",
    "squared_l2",
    "to_rational",
    "unit_points_feasible",
    "validate_decomposition",
]
