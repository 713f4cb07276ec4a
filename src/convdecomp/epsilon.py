"""Iterative decomposition to within a prescribed distance of the target.

The loop keeps a plain map from verifier answers to weights, starting from
weight 1 on the origin, and builds the convex combination from it once, on
return.  Each round queries the extended verifier in the direction of the
remaining residual, then moves the barycenter to the point of the segment
between it and the sampled point that is closest to the target: every weight
is multiplied by the step and the sampled point gains one minus the step.
For a target inside the alpha-scaled feasible region and an honest verifier,
the squared residual after i rounds is at most n/(i+1), so at most
ceil(n / epsilon^2) - 1 rounds are needed to bring the residual within
epsilon.

Every round cross-checks the verifier's answer against the separating
inequality the gap contract implies; a violation aborts the run with a
certificate instead of looping forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import DegenerateSegment, VerifierGapViolation
from .geometry import (
    BinaryPoint,
    ConvexCombination,
    RVector,
    RationalLike,
    squared_l2,
    to_rational,
)
from .verifier import ExtendedVerifier

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class IterationRecord:
    """One loop pass: residual going in, step taken, point sampled."""

    squared_residual: Fraction
    step: Fraction
    sampled: BinaryPoint


@dataclass(frozen=True)
class EpsilonRun:
    """Result and full trace of one precision-phase run.

    ``trace[i].squared_residual`` is the squared residual at the start of
    pass i; the sequence is strictly decreasing and entry i never exceeds
    n/(i+1).  The final squared residual is at most epsilon^2.
    """

    target: RVector
    epsilon: Fraction
    trace: Tuple[IterationRecord, ...]
    result: ConvexCombination
    final_squared_residual: Fraction

    @property
    def iterations(self) -> int:
        return len(self.trace)


def iteration_budget(n: int, epsilon: RationalLike) -> int:
    """Worst-case number of passes: ceil(n / epsilon^2) - 1."""
    eps = to_rational(epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    return math.ceil(Fraction(n) / (eps * eps)) - 1


def optimal_step(current: RVector, sampled: BinaryPoint, target: RVector) -> Fraction:
    """Weight on ``current`` that moves the segment point closest to ``target``.

    The candidate points are delta * current + (1 - delta) * sampled for
    delta in [0, 1].  Minimizing the squared distance gives the closed form

        delta = ((target - sampled) . (current - sampled)) / |current - sampled|^2

    clamped to [0, 1]; squared distance is minimized exactly in rationals,
    so no square roots are involved.
    """
    sampled_vec = sampled.as_vector()
    direction = current - sampled_vec
    denom = squared_l2(direction)
    if denom == 0:
        raise DegenerateSegment(
            "segment endpoints coincide; the verifier answered with the current barycenter"
        )
    raw = (target - sampled_vec).dot(direction) / denom
    if raw < 0:
        return _ZERO
    if raw > 1:
        return _ONE
    return raw


def decompose_epsilon(
    target: RVector,
    verifier: ExtendedVerifier,
    epsilon: RationalLike,
) -> EpsilonRun:
    """Build a combination whose barycenter is within ``epsilon`` of ``target``.

    ``target`` must lie in [0, 1]^n and belong to the feasible region scaled
    down by the verifier's gap constant (a scaled relaxed optimum always
    does).  Raises :class:`VerifierGapViolation` with a certificate if the
    verifier's answers are inconsistent with its claimed gap constant.
    """
    epsilon = to_rational(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    n = target.dim
    if verifier.n != n:
        raise ValueError(
            f"verifier dimension {verifier.n} does not match target dimension {n}"
        )
    for k, c in enumerate(target):
        if c < 0 or c > 1:
            raise ValueError(f"target component {k} is {c}, outside [0, 1]")

    epsilon_sq = epsilon * epsilon
    weights = {BinaryPoint.origin(n): _ONE}
    current = RVector.zeros(n)
    residual = target - current
    residual_sq = squared_l2(residual)
    trace = []

    while residual_sq > epsilon_sq:
        i = len(trace)
        if residual_sq > Fraction(n, i + 1):
            raise VerifierGapViolation(
                f"squared residual {residual_sq} exceeds {n}/{i + 1} at pass {i}; "
                "the verifier does not verify its claimed gap",
                mu=residual,
                iteration=i,
            )
        sampled = verifier.query(residual)
        shortfall = residual.dot(target) - residual.dot(sampled.as_vector())
        if shortfall > 0:
            raise VerifierGapViolation(
                f"sampled point undershoots the target by {shortfall} along the "
                f"residual direction at pass {i}",
                mu=residual,
                sampled=sampled,
                iteration=i,
            )
        step = optimal_step(current, sampled, target)
        for point in weights:
            weights[point] *= step
        weights[sampled] = weights.get(sampled, _ZERO) + (_ONE - step)
        trace.append(IterationRecord(residual_sq, step, sampled))
        queried = residual
        # Barycenter of the new weights, updated incrementally (exact by linearity).
        current = current.scale(step) + sampled.as_vector().scale(_ONE - step)
        residual = target - current
        new_sq = squared_l2(residual)
        if new_sq >= residual_sq:
            raise VerifierGapViolation(
                f"no progress at pass {i}: squared residual went from "
                f"{residual_sq} to {new_sq}",
                mu=queried,
                sampled=sampled,
                iteration=i,
            )
        residual_sq = new_sq

    return EpsilonRun(
        target=target,
        epsilon=epsilon,
        trace=tuple(trace),
        result=ConvexCombination(weights),
        final_squared_residual=residual_sq,
    )
