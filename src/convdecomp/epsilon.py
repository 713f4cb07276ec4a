"""Iterative decomposition to within a prescribed distance of the target.

The combination starts as a point mass on the origin.  Each round queries
the extended verifier in the direction of the remaining residual (target
minus barycenter), adds the sampled point to the active points, and moves
the weights to the point of the active points' hull nearest the target:
the fully-corrective Frank-Wolfe step, found exactly by Wolfe's
min-norm-point method.  A point whose weight falls to 0 leaves the active
set.  The paper steps instead to the point nearest the target on the
segment between the old barycenter and the sampled point; that segment
lies in the hull, so every round ends at least as close as the paper's
step would.  For a target inside the alpha-scaled feasible region and an
honest verifier, the squared residual after i rounds is therefore at most
n/(i+1), and at most ceil(n / epsilon^2) - 1 rounds are needed to bring
the residual within epsilon.

The barycenter is the point of the active points' affine hull nearest the
target, so the residual is orthogonal to that hull, and a sampled point in
it fails the gap check below.  The active points thus stay affinely
independent: there are at most n + 1 of them, and their weights solve one
small Gram system with integer entries, whose determinant bounds their
denominators.

Every round cross-checks the verifier's answer against the separating
inequality the gap contract implies; a violation aborts the run with a
certificate instead of looping forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .errors import VerifierGapViolation
from .geometry import (
    BinaryPoint,
    ConvexCombination,
    RVector,
    RationalLike,
    rational_text,
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
    n/(i+1).  The final squared residual is at most epsilon^2.  ``result``
    holds the active points of the last pass with their weights: the point
    of their hull nearest the target, at most n + 1 affinely independent
    points.
    """

    target: RVector
    epsilon: Fraction
    trace: Tuple[IterationRecord, ...]
    result: ConvexCombination
    final_squared_residual: Fraction

    @property
    def iterations(self) -> int:
        return len(self.trace)


class _Atom(NamedTuple):
    """An active point with the numbers its Gram entries are made of."""

    point: BinaryPoint
    mask: int  # one byte per bit, so the popcount of an AND is a dot product
    target_dot: Fraction


def _atom(point: BinaryPoint, target: RVector) -> _Atom:
    mask = int.from_bytes(bytes(point.bits), "big")
    return _Atom(point, mask, Fraction(point.dot(target.numerators), target.denominator))


def _affine_weights(corral: List[_Atom]) -> List[Fraction]:
    """Weights of the point of the corral's affine hull nearest the target.

    With a the first atom, the weights w_i of the others solve the Gram
    system sum_j (c_i - a).(c_j - a) w_j = (t - a).(c_i - a), whose matrix
    entries are the integers |c_i & c_j| - |c_i & a| - |c_j & a| + |a|; the
    first atom takes the rest of 1.  The atoms are affinely independent, so
    the matrix is positive definite and elimination needs no pivoting.
    """
    base = corral[0]
    size = base.mask.bit_count()
    others = corral[1:]
    shared = [(c.mask & base.mask).bit_count() for c in others]
    rows = [
        [
            Fraction((ci.mask & cj.mask).bit_count() - si - sj + size)
            for cj, sj in zip(others, shared)
        ]
        + [ci.target_dot - base.target_dot - si + size]
        for ci, si in zip(others, shared)
    ]
    k = len(rows)
    for p, pivot in enumerate(rows):
        for row in rows[p + 1 :]:
            factor = row[p] / pivot[p]
            for j in range(p + 1, k + 1):
                row[j] -= factor * pivot[j]
    weights = [_ZERO] * k
    for p in reversed(range(k)):
        row = rows[p]
        later = sum((row[j] * weights[j] for j in range(p + 1, k)), _ZERO)
        weights[p] = (row[k] - later) / row[p]
    return [_ONE - sum(weights, _ZERO)] + weights


def _nearest(
    pool: List[_Atom], weights: List[Fraction], target: RVector
) -> Tuple[List[_Atom], List[Fraction], RVector]:
    """Corral, weights and residual of the point of conv(pool) nearest the target.

    Wolfe's method over the finite set ``pool``, started from ``weights``
    (nonnegative, summing to 1).  Minor cycles move toward the nearest point
    of the corral's affine hull, as far as the weights stay nonnegative, and
    drop the points whose weight reaches 0, until that nearest point has
    positive weights only.  A point of the pool outside the corral that the
    residual still favours then rejoins it, and the cycles repeat.
    """
    corral = pool
    while True:
        alpha = _affine_weights(corral)
        while min(alpha) <= 0:
            # Only an added point can have weight 0 here, and its alpha is
            # positive: the residual favours it.  So no denominator is 0.
            theta = min(w / (w - a) for w, a in zip(weights, alpha) if a <= 0)
            weights = [w + theta * (a - w) for w, a in zip(weights, alpha)]
            corral = [c for c, w in zip(corral, weights) if w]
            weights = [w for w in weights if w]
            alpha = _affine_weights(corral)
        residual = target - _combination(corral, alpha).barycenter()
        lean = residual.numerators
        level = corral[0].point.dot(lean)
        better = [a for a in pool if a not in corral and a.point.dot(lean) > level]
        if not better:
            return corral, alpha, residual
        corral = corral + better[:1]
        weights = alpha + [_ZERO]


def _combination(corral: List[_Atom], weights: List[Fraction]) -> ConvexCombination:
    return ConvexCombination((atom.point, w) for atom, w in zip(corral, weights))


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
    num = target.numerators
    if min(num) < 0 or max(num) > target.denominator:
        for k, c in enumerate(target):
            if c < 0 or c > 1:
                raise ValueError(f"target component {k} is {c}, outside [0, 1]")

    epsilon_sq = epsilon * epsilon
    residual = target
    residual_sq = squared_l2(residual)
    trace = []
    corral = [_atom(BinaryPoint.origin(n), target)]
    weights = [_ONE]

    while residual_sq > epsilon_sq:
        i = len(trace)
        if residual_sq > Fraction(n, i + 1):
            raise VerifierGapViolation(
                f"squared residual {rational_text(residual_sq)} exceeds {n}/{i + 1} "
                f"at pass {i}; the verifier does not verify its claimed gap",
                mu=residual,
                iteration=i,
            )
        sampled = verifier.query(residual)
        away = target - sampled.as_vector()
        shortfall = residual.dot(away)
        if shortfall > 0:
            raise VerifierGapViolation(
                "sampled point undershoots the target by "
                f"{rational_text(shortfall)} along the residual direction at pass {i}",
                mu=residual,
                sampled=sampled,
                iteration=i,
            )
        # The paper's step, recorded in the trace: the residual at step *
        # barycenter + (1 - step) * sampled is step * residual + (1 - step) *
        # away, whose squared norm is away_sq - 2 step gain + step^2 (gain +
        # residual_sq - shortfall); the step minimizes it.  No clamp is
        # needed: the loop condition gives residual_sq > 0 and the gap check
        # gives shortfall <= 0, so gain >= 0 and the denominator exceeds gain
        # by at least residual_sq: the step lies in [0, 1) and the
        # denominator is never 0.  At pass 0 the pool is the origin and the
        # sampled point, whose hull is that segment, so the pass lands where
        # the step does.
        away_sq = squared_l2(away)
        gain = away_sq - shortfall
        step = gain / (gain + residual_sq - shortfall)
        trace.append(IterationRecord(residual_sq, step, sampled))
        corral, weights, new_residual = _nearest(
            corral + [_atom(sampled, target)], weights + [_ZERO], target
        )
        new_sq = squared_l2(new_residual)
        if new_sq >= residual_sq:
            raise VerifierGapViolation(
                f"no progress at pass {i}: squared residual went from "
                f"{rational_text(residual_sq)} to {rational_text(new_sq)}",
                mu=residual,
                sampled=sampled,
                iteration=i,
            )
        residual = new_residual
        residual_sq = new_sq

    return EpsilonRun(
        target=target,
        epsilon=epsilon,
        trace=tuple(trace),
        result=_combination(corral, weights),
        final_squared_residual=residual_sq,
    )
