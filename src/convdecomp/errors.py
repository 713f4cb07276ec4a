"""Exception types shared across the decomposition pipeline."""


class DecompositionError(Exception):
    """Base class for every error this package raises on purpose."""


class DimensionMismatch(DecompositionError, ValueError):
    """Two objects of different dimensions were combined."""


class InstanceFormatError(DecompositionError, ValueError):
    """An instance file or dict does not match the expected schema."""


class IneligibleInstanceError(DecompositionError):
    """The instance cannot be decomposed: some unit vector is infeasible."""


class VerifierViolation(DecompositionError):
    """Base class for certified misbehavior of a gap verifier."""


class VerifierGapViolation(VerifierViolation):
    """The verifier returned a point that fails the gap inequality.

    Carries the objective vector and the offending point as a certificate,
    so a caller can demonstrate that the supplied verifier does not verify
    the gap constant it claims.
    """

    def __init__(self, message, mu=None, sampled=None, iteration=None):
        super().__init__(message)
        self.mu = mu
        self.sampled = sampled
        self.iteration = iteration


class InfeasiblePoint(VerifierViolation):
    """A verifier or reduction step produced a point outside the problem."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class SlackTooSmall(DecompositionError):
    """The slack cannot absorb the L1 gap between barycenter and target."""


class DominanceViolation(DecompositionError):
    """A supposedly dominating combination fails to dominate its target."""
