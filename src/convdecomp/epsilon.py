"""Iterative decomposition to within a prescribed distance of the target.

The barycenter starts at the origin.  Each round queries the extended
verifier in the direction of the remaining residual, then moves the
barycenter to the point of the segment between it and the sampled point that
is closest to the target, keeping the step as weight on the old barycenter.
The loop carries only the residual (target minus barycenter) and the trace;
the weights are built from the trace once, on return, so nothing is
rescaled per round.  For a target inside the alpha-scaled feasible region
and an honest verifier, the squared residual after i rounds is at most
n/(i+1), so at most ceil(n / epsilon^2) - 1 rounds are needed to bring the
residual within epsilon.

Every round cross-checks the verifier's answer against the separating
inequality the gap contract implies; a violation aborts the run with a
certificate instead of looping forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import VerifierGapViolation
from .geometry import (
    BinaryPoint,
    ConvexCombination,
    RVector,
    RationalLike,
    squared_l2,
    to_rational,
)
from .verifier import ExtendedVerifier

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
    n/(i+1).  The final squared residual is at most epsilon^2.  ``result``
    is read off the trace: the point sampled in pass i weighs
    ``(1 - step_i)`` times the product of the later steps, and the origin
    the product of all steps.
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
    residual = target
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
        away = target - sampled.as_vector()
        shortfall = residual.dot(away)
        if shortfall > 0:
            raise VerifierGapViolation(
                f"sampled point undershoots the target by {shortfall} along the "
                f"residual direction at pass {i}",
                mu=residual,
                sampled=sampled,
                iteration=i,
            )
        # The new residual is step * residual + (1 - step) * away, whose
        # squared norm is away_sq - 2 step gain + step^2 (gain + residual_sq
        # - shortfall); the step minimizes it.  No clamp is needed: the loop
        # condition gives residual_sq > 0 and the gap check gives shortfall
        # <= 0, so gain >= 0 and the denominator exceeds gain by at least
        # residual_sq: the step lies in [0, 1) and the denominator is never 0.
        away_sq = squared_l2(away)
        gain = away_sq - shortfall
        step = gain / (gain + residual_sq - shortfall)
        trace.append(IterationRecord(residual_sq, step, sampled))
        new_sq = away_sq - step * gain
        if new_sq >= residual_sq:
            raise VerifierGapViolation(
                f"no progress at pass {i}: squared residual went from "
                f"{residual_sq} to {new_sq}",
                mu=residual,
                sampled=sampled,
                iteration=i,
            )
        residual = residual.scale(step) + away.scale(_ONE - step)
        residual_sq = new_sq

    weights = []
    later = _ONE
    for record in reversed(trace):
        weights.append((record.sampled, (_ONE - record.step) * later))
        later *= record.step
    weights.append((BinaryPoint.origin(n), later))
    return EpsilonRun(
        target=target,
        epsilon=epsilon,
        trace=tuple(trace),
        result=ConvexCombination(weights),
        final_squared_residual=residual_sq,
    )
