"""Shared fixtures-in-spirit: random instances, oracles, a broken verifier."""

import bisect
import itertools
import json
import math
import random
from fractions import Fraction

from convdecomp import (
    BinaryPoint,
    ConvexCombination,
    DimensionMismatch,
    DominanceViolation,
    ExplicitProblem,
    GapVerifier,
    KnapsackInstance,
    KnapsackProblem,
    RVector,
    SlackTooSmall,
    VerifierGapViolation,
    clip_negative,
    squared_l2,
    to_rational,
)
from convdecomp.epsilon import EpsilonRun, IterationRecord

F = Fraction

ENUMERATION_LIMIT = 16


def cube_problem(n):
    """Explicit problem whose feasible set is the whole 0/1 cube."""
    return ExplicitProblem(n, [BinaryPoint([1] * n)])


def iteration_budget(n: int, epsilon) -> int:
    """Worst-case number of precision-phase passes: ceil(n / epsilon^2) - 1."""
    eps = to_rational(epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    return math.ceil(Fraction(n) / (eps * eps)) - 1


def random_explicit_problem(rng: random.Random, n: int, eligible=True, max_seeds=None):
    """Random downward-closed point set; eligible adds every unit vector."""
    if max_seeds is None:
        max_seeds = min(2**n, n + 3)
    seeds = [
        BinaryPoint([rng.randint(0, 1) for _ in range(n)])
        for _ in range(rng.randint(1, max_seeds))
    ]
    if eligible:
        seeds += [BinaryPoint.unit(n, k) for k in range(n)]
    return ExplicitProblem(n, seeds)


def random_knapsack_problem(rng: random.Random, n: int, eligible=True):
    cap = rng.randint(5, 60)
    if eligible:
        weights = [F(rng.randint(1, cap)) for _ in range(n)]
    else:
        weights = [F(rng.randint(1, cap)) for _ in range(n - 1)] + [F(cap + rng.randint(1, 9))]
    if rng.random() < 0.3:
        weights = [w / rng.randint(1, 3) for w in weights]
    return KnapsackProblem(KnapsackInstance(weights, cap))


def random_nonneg_mu(rng: random.Random, n: int) -> RVector:
    return RVector([F(rng.randint(0, 24), rng.randint(1, 4)) for _ in range(n)])


def random_signed_mu(rng: random.Random, n: int) -> RVector:
    return RVector([F(rng.randint(-24, 24), rng.randint(1, 4)) for _ in range(n)])


def random_combination(rng: random.Random, points, max_support=4) -> ConvexCombination:
    """Random distribution over a sample of the given points."""
    pool = sorted(points, key=lambda p: p.bits)
    support = rng.sample(pool, min(rng.randint(1, max_support), len(pool)))
    weights = [F(rng.randint(1, 9)) for _ in support]
    total = sum(weights)
    return ConvexCombination({p: w / total for p, w in zip(support, weights)})


class OriginVerifier(GapVerifier):
    """Deliberately broken: answers the origin no matter the objective."""

    def __init__(self, n, alpha=1):
        super().__init__(n, alpha)

    def query(self, mu):
        return BinaryPoint.origin(self.n)


def knapsack_lp_oracle(weights, capacity, mu) -> Fraction:
    """Exact optimum of the knapsack relaxation, independently of the solver.

    A vertex of the relaxation has at most one fractional coordinate, so the
    optimum is the best over all integral subsets that fit, each optionally
    extended by a fractional slice of one leftover item.
    """
    n = len(weights)
    best = F(0)
    for pattern in itertools.product((0, 1), repeat=n):
        load = sum((w for w, b in zip(weights, pattern) if b), F(0))
        if load > capacity:
            continue
        value = sum((c for c, b in zip(mu, pattern) if b), F(0))
        best = max(best, value)
        room = capacity - load
        for j in range(n):
            if pattern[j]:
                continue
            slice_ = min(F(1), room / weights[j])
            best = max(best, value + slice_ * mu[j])
    return best


def reference_density_order(weights, mu):
    """Indices with positive objective, by value density, ties by index."""
    keep = [k for k in range(len(weights)) if mu[k] > 0]
    keep.sort(key=lambda k: (-(mu[k] / weights[k]), k))
    return keep


def reference_knapsack_query(weights, capacity, mu) -> BinaryPoint:
    """The knapsack verifier's answer as first written: the density-ordered
    prefix that fits, or the single most valuable item if it is worth more."""
    n = len(weights)
    order = reference_density_order(weights, mu)
    prefix_bits = [0] * n
    prefix_value = F(0)
    remaining = capacity
    for k in order:
        if weights[k] > remaining:
            break
        prefix_bits[k] = 1
        prefix_value += mu[k]
        remaining -= weights[k]
    if not order:
        return BinaryPoint.origin(n)
    best_single = min(order, key=lambda k: (-mu[k], k))
    if mu[best_single] > prefix_value:
        return BinaryPoint.unit(n, best_single)
    return BinaryPoint(prefix_bits)


def reference_knapsack_relaxed_optimum(weights, capacity, mu) -> RVector:
    """The knapsack relaxation's optimum as first written: fill by density,
    split the first misfit."""
    comps = [F(0)] * len(weights)
    remaining = capacity
    for k in reference_density_order(weights, mu):
        w = weights[k]
        if w <= remaining:
            comps[k] = F(1)
            remaining -= w
        else:
            if remaining > 0:
                comps[k] = remaining / w
            break
    return RVector(comps)


def brute_force_sigma(combination) -> RVector:
    """Recompute the barycenter the slow, obvious way."""
    n = combination.dim
    comps = [F(0)] * n
    for point, weight in combination.items():
        for k in range(n):
            comps[k] += weight * point[k]
    return RVector(comps)


def l1_distance(a: RVector, b: RVector) -> Fraction:
    """Exact sum of componentwise absolute differences."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"vector dimensions differ: {a.dim} vs {b.dim}")
    return sum((abs(x - y) for x, y in zip(a, b)), F(0))


def relaxed_value(problem, mu: RVector) -> Fraction:
    """Optimal value of the relaxation for a nonnegative objective."""
    return mu.dot(problem.relaxed_optimum(mu))


def brute_force_lp_bound(problem, mu: RVector, limit: int = ENUMERATION_LIMIT) -> Fraction:
    """Exact optimum of the relaxation for an arbitrary signed objective.

    Negative components contribute nothing at the optimum of a downward
    closed problem, so the objective is clipped to its nonnegative part and
    handed to the problem's exact solver.
    """
    if problem.n > limit:
        raise ValueError(f"dimension {problem.n} exceeds the enumeration limit {limit}")
    return relaxed_value(problem, clip_negative(mu))


def feasible_points(problem, limit: int = ENUMERATION_LIMIT):
    """Enumerate all feasible binary points (desk scale only)."""
    if problem.n > limit:
        raise ValueError(f"dimension {problem.n} exceeds the enumeration limit {limit}")
    for bits in itertools.product((0, 1), repeat=problem.n):
        point = BinaryPoint(bits)
        if problem.feasible(point):
            yield point


def brute_force_integer_bound(problem, mu: RVector, limit: int = ENUMERATION_LIMIT) -> Fraction:
    """max of mu . x over all feasible binary points, by enumeration."""
    return max(
        sum((mu[k] for k in point.ones()), F(0))
        for point in feasible_points(problem, limit)
    )


def reference_sample(combination, count: int, seed: int):
    """The sampler's defining inversion, over fractions: each draw returns
    the first point whose cumulative weight exceeds k / 2^64, where k is the
    next 64 bits of ``random.Random(seed)``."""
    points = []
    cumulative = []
    running = F(0)
    for point, weight in combination.items():
        running += weight
        points.append(point)
        cumulative.append(running)
    rng = random.Random(seed)
    return [
        points[bisect.bisect_right(cumulative, F(rng.getrandbits(64), 2**64))]
        for _ in range(count)
    ]


def reference_to_json(report) -> str:
    """The report text by definition: the standard library's indenting
    encoder run over the whole schema dict, every draw's bits included."""
    return json.dumps(report.to_dict(), indent=2)


def reference_optimal_step(current: RVector, sampled: BinaryPoint, target: RVector) -> Fraction:
    """Weight on ``current`` that moves the segment point closest to ``target``.

    The candidate points are delta * current + (1 - delta) * sampled for
    delta in [0, 1]; the closed form

        delta = ((target - sampled) . (current - sampled)) / |current - sampled|^2

    is clamped to [0, 1].  Coinciding endpoints divide by zero.
    """
    sampled_vec = sampled.as_vector()
    direction = current - sampled_vec
    raw = (target - sampled_vec).dot(direction) / squared_l2(direction)
    if raw < 0:
        return F(0)
    if raw > 1:
        return F(1)
    return raw


def reference_decompose_epsilon(target: RVector, verifier, epsilon) -> EpsilonRun:
    """The precision phase as first written: it keeps the barycenter, the
    residual and a weight map, rescales every weight on every pass, and
    steps by :func:`reference_optimal_step`."""
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
    weights = {BinaryPoint.origin(n): F(1)}
    current = RVector([F(0)] * n)
    residual = target - current
    residual_sq = squared_l2(residual)
    trace = []

    while residual_sq > epsilon_sq:
        i = len(trace)
        if residual_sq > F(n, i + 1):
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
        step = reference_optimal_step(current, sampled, target)
        for point in weights:
            weights[point] *= step
        weights[sampled] = weights.get(sampled, F(0)) + (1 - step)
        trace.append(IterationRecord(residual_sq, step, sampled))
        queried = residual
        current = current.scale(step) + sampled.as_vector().scale(1 - step)
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


class ReferenceVector:
    """Rational vectors as first written: a tuple of Fractions, with every
    operation done one Fraction at a time.  The package's integer-numerator
    ``RVector`` must agree with it on every operation."""

    __slots__ = ("_parts",)

    def __init__(self, components):
        parts = tuple(to_rational(c) for c in components)
        if not parts:
            raise ValueError("a vector needs at least one component")
        self._parts = parts

    def __len__(self):
        return len(self._parts)

    def __getitem__(self, index):
        return self._parts[index]

    def __iter__(self):
        return iter(self._parts)

    def __add__(self, other):
        return ReferenceVector(a + b for a, b in zip(self._parts, other._parts))

    def __sub__(self, other):
        return ReferenceVector(a - b for a, b in zip(self._parts, other._parts))

    def scale(self, factor):
        f = to_rational(factor)
        return ReferenceVector(f * a for a in self._parts)

    def dot(self, other):
        total = F(0)
        for a, b in zip(self._parts, other._parts):
            if a and b:
                total += a * b
        return total

    def __eq__(self, other):
        return self._parts == other._parts

    def __hash__(self):
        return hash(self._parts)

    def __repr__(self):
        return "RVector((%s))" % ", ".join(f"'{c}'" for c in self._parts)


def reference_squared_l2(v) -> Fraction:
    total = F(0)
    for c in v:
        if c:
            total += c * c
    return total


def reference_barycenter(combination) -> ReferenceVector:
    comps = [F(0)] * combination.dim
    for point, w in combination.items():
        for k in point.ones():
            comps[k] += w
    return ReferenceVector(comps)


def reference_clip_negative(mu) -> ReferenceVector:
    return ReferenceVector(c if c > 0 else F(0) for c in mu)


def reference_build_dominating(combination, target_over_alpha, slack) -> ConvexCombination:
    """``build_dominating`` as first written, one Fraction per component."""
    s = to_rational(slack)
    n = combination.dim
    sigma = reference_barycenter(combination)
    gaps = [abs(t - c) for t, c in zip(target_over_alpha, sigma)]
    total_gap = sum(gaps, F(0))
    if total_gap > s:
        raise SlackTooSmall(f"coordinate gaps sum to {total_gap}, exceeding the slack {s}")
    scale = 1 / (1 + s)
    weights = {point: w * scale for point, w in combination.items()}
    for k, gap in enumerate(gaps):
        if gap:
            unit = BinaryPoint.unit(n, k)
            weights[unit] = weights.get(unit, F(0)) + gap * scale
    padding = s - total_gap
    if padding:
        origin = BinaryPoint.origin(n)
        weights[origin] = weights.get(origin, F(0)) + padding * scale
    return ConvexCombination(weights)


def reference_reduce_to_exact(dominating, x, problem):
    """``reduce_to_exact`` as first written: the barycenter, the target and
    the weights stay Fractions, and each step moves one Fraction."""
    n = dominating.dim
    sigma = list(reference_barycenter(dominating))
    for k, (have, want) in enumerate(zip(sigma, x)):
        if want < 0:
            raise ValueError(f"target component {k} is negative: {want}")
        if have < want:
            raise DominanceViolation(
                f"barycenter component {k} is {have}, below the target {want}"
            )
    weights = dict(dominating.items())
    steps = 0
    for k in range(n):
        while sigma[k] > x[k]:
            candidates = [p for p in weights if p[k] == 1]
            y = min(candidates, key=lambda p: (-weights[p], p.bits))
            surplus = sigma[k] - x[k]
            moved = weights[y] if weights[y] < surplus else surplus
            lowered = y.minus_unit(k)
            assert problem.feasible(lowered)
            remaining = weights[y] - moved
            if remaining:
                weights[y] = remaining
            else:
                del weights[y]
            weights[lowered] = weights.get(lowered, F(0)) + moved
            sigma[k] -= moved
            steps += 1
    return ConvexCombination(weights), steps
