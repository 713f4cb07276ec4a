"""Gap-verifier oracle interface and its extension to signed objectives.

A gap verifier is an approximation algorithm attached to a packing problem:
fed a nonnegative objective, it returns a feasible 0/1 point whose value,
multiplied by the verifier's gap constant alpha, is at least the optimum of
the problem's linear relaxation.  The decomposition loop needs to query
arbitrary signed objectives, so :class:`ExtendedVerifier` wraps any verifier
with the clip-then-zero construction that preserves the gap constant on all
of R^n (zeroing a component keeps the point feasible because the feasible
set is downward closed).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Callable

from .errors import DimensionMismatch, InfeasiblePoint
from .geometry import BinaryPoint, RVector, to_rational


class GapVerifier(ABC):
    """Oracle returning feasible points that certify an integrality gap.

    Contract, for every nonnegative objective mu:
    ``alpha * (mu . query(mu)) >= max over the relaxed feasible set of mu . x``.
    Not locally checkable in general, but checkable by enumeration at the
    dimensions this package targets.
    """

    def __init__(self, n: int, alpha):
        alpha = to_rational(alpha)
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        if alpha < 1:
            raise ValueError(f"gap constant must be >= 1, got {alpha}")
        self._n = n
        self._alpha = alpha

    @property
    def n(self) -> int:
        return self._n

    @property
    def alpha(self) -> Fraction:
        return self._alpha

    @abstractmethod
    def query(self, mu: RVector) -> BinaryPoint:
        """Answer a nonnegative objective with a feasible binary point."""


def clip_negative(mu: RVector) -> RVector:
    """Componentwise maximum with zero."""
    num = mu.numerators
    if min(num) >= 0:
        return mu
    return RVector.from_numerators((max(c, 0) for c in num), mu.denominator)


class ExtendedVerifier:
    """Adapts a :class:`GapVerifier` to objectives with negative components.

    The query clips the objective to its nonnegative part, asks the inner
    verifier, and forces the answer to 0 on every coordinate where the
    objective was negative.  The gap inequality then holds for the original
    signed objective.

    Every answer is validated against the problem's feasibility predicate
    and rejected loudly if it fails; a buggy verifier would otherwise
    corrupt the decomposition silently.
    """

    def __init__(self, inner: GapVerifier, feasible: Callable[[BinaryPoint], bool]):
        self._inner = inner
        self._feasible = feasible

    @property
    def n(self) -> int:
        return self._inner.n

    @property
    def alpha(self) -> Fraction:
        return self._inner.alpha

    def query(self, mu: RVector) -> BinaryPoint:
        if mu.dim != self.n:
            raise DimensionMismatch(
                f"objective has dimension {mu.dim}, verifier expects {self.n}"
            )
        answer = self._inner.query(clip_negative(mu))
        if answer.dim != self.n:
            raise DimensionMismatch(
                f"verifier returned a point of dimension {answer.dim}, expected {self.n}"
            )
        if not self._feasible(answer):
            raise InfeasiblePoint(
                f"verifier returned infeasible point {answer!r}", point=answer
            )
        zeroed = BinaryPoint(
            0 if c < 0 else b for c, b in zip(mu.numerators, answer.bits)
        )
        if zeroed != answer and not self._feasible(zeroed):
            # Zeroing components must stay feasible when the problem is
            # downward closed; failure here certifies a broken predicate.
            raise InfeasiblePoint(
                f"zeroed point {zeroed!r} is infeasible; feasible set is not downward closed",
                point=zeroed,
            )
        return zeroed
