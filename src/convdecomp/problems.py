"""Concrete packing problems and their verifiers.

Two problem families ship with the package.  Knapsack is the nontrivial
one: its relaxation has an exact closed-form optimum (fractional greedy),
so no external LP solver is needed, and the classic greedy-or-best-single
rule verifies a gap of 2.  Explicit polytopes are stored as listed, enumerate
nothing on load, test membership by dominance and verify a gap of 1 by exact
maximization; they are the workhorse for oracle-backed testing.
"""

from __future__ import annotations

import json
import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    DimensionMismatch,
    IneligibleInstanceError,
    InstanceFormatError,
)
from .geometry import (
    BinaryPoint,
    ConvexCombination,
    RVector,
    RationalLike,
    rational_text,
    squared_l2,
    to_rational,
)
from .verifier import ExtendedVerifier, GapVerifier

_ZERO = Fraction(0)


class PackingProblem(ABC):
    """A downward-closed 0/1 problem bundled with its verifier and solver."""

    kind: str = "abstract"

    @property
    @abstractmethod
    def n(self) -> int:
        """Dimension of the problem."""

    @abstractmethod
    def feasible(self, point: BinaryPoint) -> bool:
        """Membership test for binary points."""

    @property
    @abstractmethod
    def verifier(self) -> GapVerifier:
        """The problem's gap verifier (nonnegative objectives only)."""

    @property
    def alpha(self) -> Fraction:
        """Gap constant claimed by :attr:`verifier`."""
        return self.verifier.alpha

    @abstractmethod
    def relaxed_optimum(self, mu: RVector) -> RVector:
        """An exact optimizer of the relaxation for a nonnegative objective."""

    def relaxation_contains(self, x: RVector) -> bool:
        """Whether x passes the relaxation's box test, 0 <= x_k <= 1.

        Problems that can test their relaxation exactly override this.
        """
        self._check_dim(x)
        num = x.numerators
        return min(num) >= 0 and max(num) <= x.denominator

    def extended_verifier(self) -> ExtendedVerifier:
        """The verifier wrapped for arbitrary signed objectives."""
        return ExtendedVerifier(self.verifier, self.feasible)

    def _check_dim(self, v: Union[RVector, BinaryPoint]) -> None:
        if v.dim != self.n:
            raise DimensionMismatch(
                f"dimension {v.dim} does not match problem dimension {self.n}"
            )


def _require_nonnegative(mu: RVector) -> None:
    if min(mu.numerators) < 0:
        for k, c in enumerate(mu):
            if c < 0:
                raise ValueError(f"objective component {k} is negative: {c}")


# ---------------------------------------------------------------------------
# Knapsack


@dataclass(frozen=True)
class KnapsackInstance:
    """Item weights and a capacity, all exact rationals."""

    weights: Tuple[Fraction, ...]
    capacity: Fraction

    def __init__(self, weights: Sequence[RationalLike], capacity: RationalLike):
        ws = tuple(to_rational(w) for w in weights)
        cap = to_rational(capacity)
        if not ws:
            raise InstanceFormatError("knapsack needs at least one item")
        if any(w <= 0 for w in ws):
            raise InstanceFormatError("knapsack weights must be positive")
        if cap <= 0:
            raise InstanceFormatError("knapsack capacity must be positive")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "capacity", cap)

    @property
    def n(self) -> int:
        return len(self.weights)

    # The integer forms below are worked out on first use, so loading an
    # instance does no more than parse it.

    @cached_property
    def _scaled(self) -> Tuple[Tuple[int, ...], int]:
        """The weights and the capacity as ints over their common denominator."""
        den = math.lcm(self.capacity.denominator, *(w.denominator for w in self.weights))
        weights = tuple(w.numerator * (den // w.denominator) for w in self.weights)
        return weights, self.capacity.numerator * (den // self.capacity.denominator)

    @cached_property
    def decomposition_eligible(self) -> bool:
        """True iff every single item fits on its own."""
        weights, capacity = self._scaled
        return max(weights) <= capacity

    def fits(self, point: BinaryPoint) -> bool:
        weights, capacity = self._scaled
        return point.dot(weights) <= capacity

    def fractional_greedy(self, mu: RVector) -> RVector:
        """Optimum of the relaxation for a nonnegative objective.

        Items with positive objective fill the capacity by decreasing value
        density, ties by index, and the first item that does not fit takes
        the share of it that does; that share is below 1, so the optimum's
        ones are exactly the prefix that fits.  Items the objective ignores
        stay 0, so a zero objective yields the origin.
        """
        weights, remaining = self._scaled
        num = mu.numerators
        # With W the scaled weights, all below 2^b, two distinct densities
        # num_k / W_k differ by at least 1 / (W_i W_j) > 2^-2b, so their
        # floors after scaling by 2^2b differ too: an exact integer key.
        shift = 2 * max(weights).bit_length()
        keys = [(c << shift) // w for c, w in zip(num, weights)]
        order = sorted(
            filter(num.__getitem__, range(self.n)), key=keys.__getitem__, reverse=True
        )
        taken = []
        share = _ZERO
        for k in order:
            w = weights[k]
            if w > remaining:
                share = Fraction(remaining, w)
                misfit = k
                break
            taken.append(k)
            remaining -= w
        den = share.denominator
        comps = [0] * self.n
        for k in taken:
            comps[k] = den
        if share:
            comps[misfit] = share.numerator
        return RVector.from_numerators(comps, den)


class KnapsackVerifier(GapVerifier):
    """Greedy-or-best-single rule; verifies a gap of 2.

    The answer is the better, by objective value, of the fractional
    optimum rounded down (its ones, the density-ordered prefix that fits)
    and the single most valuable item.  The fractional optimum never
    exceeds the rounded-down value plus one item's value, so twice the
    answer's value covers it.  Requires every item to fit on its own.
    """

    def __init__(self, instance: KnapsackInstance):
        super().__init__(instance.n, 2)
        self._instance = instance

    def query(self, mu: RVector) -> BinaryPoint:
        inst = self._instance
        if mu.dim != inst.n:
            raise DimensionMismatch(
                f"objective dimension {mu.dim} does not match instance dimension {inst.n}"
            )
        _require_nonnegative(mu)
        if not inst.decomposition_eligible:
            heavy = [k for k, w in enumerate(inst.weights) if w > inst.capacity]
            raise IneligibleInstanceError(
                f"item(s) {heavy} are heavier than the capacity; the greedy "
                "rule does not verify a gap of 2 on such instances"
            )
        greedy = inst.fractional_greedy(mu)
        rounded = BinaryPoint([int(c == greedy.denominator) for c in greedy.numerators])
        # Scan only the items the objective values, as the greedy does; when
        # there are none, item 0 is worth 0 and never beats the origin.
        num = mu.numerators
        positive = filter(num.__getitem__, range(inst.n))
        best_single = max(positive, key=num.__getitem__, default=0)
        if num[best_single] > rounded.dot(num):
            return BinaryPoint.unit(inst.n, best_single)
        return rounded


class KnapsackProblem(PackingProblem):
    """Knapsack packing problem with the gap-2 greedy verifier."""

    kind = "knapsack"

    def __init__(self, instance: KnapsackInstance):
        self._instance = instance
        self._verifier = KnapsackVerifier(instance)

    @property
    def instance(self) -> KnapsackInstance:
        return self._instance

    @property
    def n(self) -> int:
        return self._instance.n

    def feasible(self, point: BinaryPoint) -> bool:
        self._check_dim(point)
        return self._instance.fits(point)

    @property
    def verifier(self) -> GapVerifier:
        return self._verifier

    def relaxation_contains(self, x: RVector) -> bool:
        """Exact test: the box and the capacity, w . x <= capacity."""
        if not super().relaxation_contains(x):
            return False
        weights, capacity = self._instance._scaled
        return sum(map(operator.mul, weights, x.numerators)) <= capacity * x.denominator

    def relaxed_optimum(self, mu: RVector) -> RVector:
        """Fractional greedy: fill by density, split the first misfit."""
        self._check_dim(mu)
        _require_nonnegative(mu)
        return self._instance.fractional_greedy(mu)


# ---------------------------------------------------------------------------
# Explicit polytopes


class ExplicitVerifier(GapVerifier):
    """Exact maximization over the downward closure; verifies a gap of 1.

    The relaxation peaks at a feasible point, so exact maximization has no
    gap.  Ties go to the lexicographically smallest point.  A listed point
    with the coordinates the objective ignores cleared is the best, and the
    smallest of the best, points below it; so the best such masked point,
    or the origin when none is listed, is the answer over the closure.
    """

    def __init__(self, n: int, seeds: FrozenSet[BinaryPoint]):
        super().__init__(n, 1)
        self._seeds = seeds

    def query(self, mu: RVector) -> BinaryPoint:
        if mu.dim != self.n:
            raise DimensionMismatch(
                f"objective dimension {mu.dim} does not match polytope dimension {self.n}"
            )
        _require_nonnegative(mu)
        num = mu.numerators
        return min(
            (
                BinaryPoint([b if c else 0 for b, c in zip(seed.bits, num)])
                for seed in self._seeds
            ),
            key=lambda p: (-p.dot(num), p.bits),
            default=BinaryPoint.origin(self.n),
        )


class ExplicitProblem(PackingProblem):
    """The downward closure of the listed points, stored as listed.

    A point is feasible if it is the origin or a listed point dominates it,
    so membership is a dominance test and nothing is enumerated on load.
    """

    kind = "explicit"

    def __init__(self, n: int, points: Iterable[BinaryPoint]):
        if n < 1:
            raise InstanceFormatError(f"dimension must be positive, got {n}")
        self._n = n
        self._seeds = frozenset(points)
        for p in self._seeds:
            if p.dim != n:
                raise DimensionMismatch(
                    f"point {p!r} has dimension {p.dim}, expected {n}"
                )
        self._verifier = ExplicitVerifier(n, self._seeds)

    @property
    def n(self) -> int:
        return self._n

    @property
    def seeds(self) -> FrozenSet[BinaryPoint]:
        """The listed points, without duplicates."""
        return self._seeds

    def feasible(self, point: BinaryPoint) -> bool:
        self._check_dim(point)
        return point.is_origin() or any(s.dominates(point) for s in self._seeds)

    @property
    def verifier(self) -> GapVerifier:
        return self._verifier

    def relaxed_optimum(self, mu: RVector) -> RVector:
        self._check_dim(mu)
        return self._verifier.query(mu).as_vector()


# ---------------------------------------------------------------------------
# Decomposition validation


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a decomposition against its target."""

    failures: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return not self.failures


def validate_decomposition(
    problem: PackingProblem,
    combination: ConvexCombination,
    target: RVector,
    *,
    epsilon: Optional[Fraction] = None,
    squared_residual: Optional[Fraction] = None,
) -> ValidationReport:
    """Re-derive every guarantee a finished decomposition must satisfy.

    The combination's constructor already guarantees positive weights that
    sum to exactly 1; this checks the dimensions and that every support
    point is feasible.  Without ``epsilon`` the barycenter must equal the
    target bit for bit; by linearity the expected value of any objective
    ``mu`` then equals ``mu . target``, so no objective is compared.  With
    ``epsilon`` (a precision-phase output) the squared distance from the
    barycenter to the target must equal the reported ``squared_residual``,
    when given, and stay within epsilon^2.  All failures are itemized rather
    than raised.
    """
    failures: List[str] = []
    if combination.dim != problem.n:
        failures.append(
            f"combination dimension {combination.dim} does not match problem "
            f"dimension {problem.n}"
        )
    else:
        for point in combination.support():
            if not problem.feasible(point):
                failures.append(f"support point {list(point.bits)} is infeasible")
    if target.dim != combination.dim:
        failures.append(
            f"target dimension {target.dim} does not match combination "
            f"dimension {combination.dim}"
        )
    elif epsilon is None:
        sigma = combination.barycenter()
        if sigma != target:
            for k in range(target.dim):
                if sigma[k] != target[k]:
                    failures.append(
                        f"barycenter component {k} is {rational_text(sigma[k])}, "
                        f"target wants {rational_text(target[k])}"
                    )
    else:
        actual = squared_l2(target - combination.barycenter())
        if squared_residual is not None and actual != squared_residual:
            failures.append(
                f"recomputed squared residual {rational_text(actual)} differs "
                f"from reported {rational_text(squared_residual)}"
            )
        if actual > epsilon * epsilon:
            failures.append(
                f"squared residual {rational_text(actual)} exceeds "
                f"epsilon^2 = {rational_text(epsilon * epsilon)}"
            )
    return ValidationReport(failures=tuple(failures))


# ---------------------------------------------------------------------------
# Instance files


def load_instance(source: Union[str, Path, dict]) -> PackingProblem:
    """Build a problem from a JSON file path or an already-parsed dict.

    Knapsack instances look like
    ``{"problem": "knapsack", "weights": ["2", "3", "4"], "capacity": "5"}``
    and explicit instances like
    ``{"problem": "explicit", "n": 2, "points": [[1, 0], [0, 1]]}``.
    Rationals may be integers or "p/q" strings.  Every file that is not
    UTF-8 JSON, or nests too deeply to parse, raises ``InstanceFormatError``.
    """
    if isinstance(source, dict):
        data = source
    elif isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            # Decoding and JSON errors are ValueErrors, and so is an integer
            # past the interpreter's int-to-string limit.
            except (ValueError, RecursionError) as bad:
                raise InstanceFormatError(f"cannot read instance {source}: {bad}") from bad
    else:
        raise TypeError(f"instance source must be a path or dict, got {type(source).__name__}")
    if not isinstance(data, dict):
        raise InstanceFormatError("instance file must hold a JSON object")
    kind = data.get("problem")
    if kind == "knapsack":
        try:
            weights = data["weights"]
            capacity = data["capacity"]
        except KeyError as missing:
            raise InstanceFormatError(f"knapsack instance lacks {missing}") from None
        if not isinstance(weights, list):
            raise InstanceFormatError("knapsack weights must be a list")
        try:
            return KnapsackProblem(KnapsackInstance(weights, capacity))
        except (TypeError, ValueError, ZeroDivisionError) as bad:
            raise InstanceFormatError(f"bad knapsack instance: {bad}") from bad
    if kind == "explicit":
        try:
            n = data["n"]
            rows = data["points"]
        except KeyError as missing:
            raise InstanceFormatError(f"explicit instance lacks {missing}") from None
        if not isinstance(n, int) or isinstance(n, bool):
            raise InstanceFormatError("explicit instance dimension must be an integer")
        if not isinstance(rows, list):
            raise InstanceFormatError("explicit points must be a list of bit lists")
        try:
            points = []
            for row in rows:
                if any(type(b) is not int for b in row):  # a JSON float is already rounded
                    raise TypeError(f"point bits must be the integers 0 or 1: {row!r}")
                points.append(BinaryPoint(row))
            return ExplicitProblem(n, points)
        except (TypeError, ValueError) as bad:
            raise InstanceFormatError(f"bad explicit instance: {bad}") from bad
    raise InstanceFormatError(f"unknown problem kind: {kind!r}")
