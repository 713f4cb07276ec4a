"""Turning a near decomposition into an exact one.

Two steps.  First, the combination produced by the precision phase is padded
with unit vectors (one per coordinate it undershoots or overshoots) and with
the origin, then rescaled by 1/(1+s); the result provably dominates the
target scaled by the same 1/(1+s).  Second, a per-dimension reduction lowers
components of support points (replacing a point y by y with one coordinate
cleared) until the barycenter equals the scaled target bit for bit.

The slack s is a rational stand-in for sqrt(n)*epsilon: with r the smallest
integer whose square reaches n, any s >= r*epsilon absorbs the worst-case L1
gap of a combination within L2 distance epsilon of the target, because
L1 <= sqrt(n)*L2 <= r*epsilon <= s.  Keeping s rational keeps the scaled
target exact, and s depends only on (n, epsilon), never on the achieved
residual, so the final target is fixed before any decomposition starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Tuple

from .epsilon import EpsilonRun, decompose_epsilon
from .errors import (
    DominanceViolation,
    IneligibleInstanceError,
    InfeasiblePoint,
    SlackTooSmall,
)
from .geometry import (
    BinaryPoint,
    ConvexCombination,
    RVector,
    RationalLike,
    rational_text,
    to_rational,
)

if TYPE_CHECKING:  # pragma: no cover
    from .problems import PackingProblem

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class ExactRun:
    """Everything produced on the way to an exact decomposition."""

    scaled_target: RVector
    slack: Fraction
    phase1: EpsilonRun
    dominating: ConvexCombination
    result: ConvexCombination
    exact_steps: int


def ceil_sqrt(n: int) -> int:
    """Smallest integer r with r*r >= n."""
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def minimum_slack(n: int, epsilon: RationalLike) -> Fraction:
    """Smallest admissible slack for dimension n and precision epsilon."""
    eps = to_rational(epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    return eps * ceil_sqrt(n)


def unit_points_feasible(problem: "PackingProblem") -> bool:
    """True iff every unit vector passes the problem's feasibility predicate.

    Exact decomposition needs all of them: the dominating construction pads
    with unit vectors, so an infeasible one makes the instance ineligible.
    """
    return all(map(problem.feasible, BinaryPoint.units(problem.n)))


def build_dominating(
    combination: ConvexCombination,
    target_over_alpha: RVector,
    slack: RationalLike,
) -> ConvexCombination:
    """Pad and rescale so the barycenter dominates the scaled target.

    Adds, for each coordinate k, the unit vector e_k with weight equal to
    the absolute gap between barycenter and target on that coordinate, tops
    up with the origin so the total added mass is exactly ``slack``, and
    divides everything by 1 + slack.  The result's barycenter dominates
    target_over_alpha / (1 + slack) componentwise, and its weights sum to
    exactly 1.

    Raises :class:`SlackTooSmall` if the combined coordinate gaps exceed the
    slack, which certifies the precondition was violated.
    """
    s = to_rational(slack)
    n = combination.dim
    if target_over_alpha.dim != n:
        raise ValueError(
            f"target dimension {target_over_alpha.dim} does not match combination dimension {n}"
        )
    difference = target_over_alpha - combination.barycenter()
    gaps = [abs(c) for c in difference.numerators]
    total_gap = Fraction(sum(gaps), difference.denominator)
    if total_gap > s:
        raise SlackTooSmall(
            f"coordinate gaps sum to {rational_text(total_gap)}, "
            f"exceeding the slack {rational_text(s)}"
        )
    scale = _ONE / (_ONE + s)
    weights = {point: w * scale for point, w in combination.items()}
    unit_den = difference.denominator * scale.denominator
    for k, gap in enumerate(gaps):
        if gap:
            unit = BinaryPoint.unit(n, k)
            share = Fraction(gap * scale.numerator, unit_den)
            weights[unit] = weights.get(unit, _ZERO) + share
    padding = s - total_gap
    if padding:
        origin = BinaryPoint.origin(n)
        weights[origin] = weights.get(origin, _ZERO) + padding * scale
    return ConvexCombination(weights)


def reduce_to_exact(
    dominating: ConvexCombination,
    x: RVector,
    problem: "PackingProblem",
) -> Tuple[ConvexCombination, int]:
    """Lower support points until the barycenter equals ``x`` exactly.

    Processes dimensions in index order.  While the barycenter still
    exceeds x on dimension k, the heaviest support point with a 1 there
    (ties broken lexicographically) either sheds exactly the surplus onto
    its lowered copy, ending the dimension, or is replaced by the lowered
    copy wholesale.  Lowering a coordinate keeps a point feasible in any
    downward-closed problem; each lowered point is still checked against
    the problem's predicate and rejected loudly if it fails.

    Returns the exact combination and the number of reduction steps, which
    is at most support_size(dominating) * n + (n^2 + n) / 2.
    """
    n = dominating.dim
    if x.dim != n:
        raise ValueError(f"target dimension {x.dim} does not match combination dimension {n}")
    sigma = dominating.barycenter()
    items = dominating.items()
    # Every number below is an int over one denominator, which must include
    # every weight's: a step moves a whole weight or the surplus.
    den = math.lcm(x.denominator, sigma.denominator, *(w.denominator for _, w in items))
    have = [c * (den // sigma.denominator) for c in sigma.numerators]
    want = [c * (den // x.denominator) for c in x.numerators]
    for k in range(n):
        if want[k] < 0:
            raise ValueError(f"target component {k} is negative: {rational_text(x[k])}")
        if have[k] < want[k]:
            raise DominanceViolation(
                f"barycenter component {k} is {rational_text(sigma[k])}, "
                f"below the target {rational_text(x[k])}"
            )

    weights = {point: w.numerator * (den // w.denominator) for point, w in items}
    steps = 0
    for k in range(n):
        surplus = have[k] - want[k]
        if not surplus:
            continue
        # A step changes no other candidate's weight and adds no candidate,
        # so they are collected once; together they carry the surplus.
        candidates = [p for p in weights if p[k] == 1]
        while surplus:
            y = min(candidates, key=lambda p: (-weights[p], p.bits))
            moved = weights[y] if weights[y] < surplus else surplus
            lowered = y.minus_unit(k)
            if not problem.feasible(lowered):
                raise InfeasiblePoint(
                    f"lowered point {lowered!r} is infeasible; the problem is "
                    "not downward closed",
                    point=lowered,
                )
            remaining = weights[y] - moved
            if remaining:
                weights[y] = remaining
            else:
                del weights[y]
                candidates.remove(y)
            weights[lowered] = weights.get(lowered, 0) + moved
            steps += 1
            surplus -= moved
    return ConvexCombination((p, Fraction(w, den)) for p, w in weights.items()), steps


def decompose_exact(
    problem: "PackingProblem",
    xstar: RVector,
    epsilon: RationalLike,
    *,
    overall: bool = False,
) -> ExactRun:
    """Decompose ``xstar / (alpha * (1 + s))`` exactly into feasible points.

    ``xstar`` must be an optimum of the problem's relaxation (components in
    [0, 1]).  By default the precision phase runs at ``epsilon`` and the
    slack is s = ceil(sqrt(n)) * epsilon.  With ``overall=True`` the
    precision phase runs at epsilon / ceil(sqrt(n)) instead, so the slack,
    and hence the extra scaling, is epsilon itself at the cost of more
    iterations.
    """
    epsilon = to_rational(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    n = problem.n
    if xstar.dim != n:
        raise ValueError(f"xstar dimension {xstar.dim} does not match problem dimension {n}")
    if not unit_points_feasible(problem):
        bad = [k for k, unit in enumerate(BinaryPoint.units(n)) if not problem.feasible(unit)]
        raise IneligibleInstanceError(
            "instance is not decomposition-eligible: unit vector infeasible "
            f"at dimension(s) {bad}"
        )

    r = ceil_sqrt(n)
    precision = epsilon / r if overall else epsilon
    s = minimum_slack(n, precision)

    target = xstar.scale(_ONE / problem.alpha)
    phase1 = decompose_epsilon(target, problem.extended_verifier(), precision)
    dominating = build_dominating(phase1.result, target, s)
    scaled_target = target.scale(_ONE / (_ONE + s))
    result, steps = reduce_to_exact(dominating, scaled_target, problem)
    if result.barycenter() != scaled_target:
        raise AssertionError(
            "internal error: reduction finished but the barycenter does not "
            "match the scaled target"
        )
    return ExactRun(
        scaled_target=scaled_target,
        slack=s,
        phase1=phase1,
        dominating=dominating,
        result=result,
        exact_steps=steps,
    )
