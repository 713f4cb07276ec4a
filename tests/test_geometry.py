import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from convdecomp import (
    BinaryPoint,
    ConvexCombination,
    DimensionMismatch,
    DominanceViolation,
    RVector,
    SlackTooSmall,
    build_dominating,
    clip_negative,
    reduce_to_exact,
    squared_l2,
    to_rational,
)
from helpers import (
    ReferenceVector,
    brute_force_sigma,
    cube_problem,
    feasible_points,
    l1_distance,
    random_combination,
    reference_barycenter,
    reference_build_dominating,
    reference_clip_negative,
    reference_reduce_to_exact,
    reference_squared_l2,
)

F = Fraction


class TestToRational:
    def test_accepts_int_str_fraction(self):
        assert to_rational(3) == F(3)
        assert to_rational("3/4") == F(3, 4)
        assert to_rational(" -7/3 ") == F(-7, 3)
        assert to_rational(F(1, 2)) == F(1, 2)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            to_rational(0.5)

    def test_decimal_string_accepted(self):
        assert to_rational("0.25") == F(1, 4)

    @pytest.mark.parametrize("text", ["1e5", "2E-3", "1e999999999", "1.5e3"])
    def test_rejects_exponent_notation(self, text):
        with pytest.raises(ValueError, match="exponent notation"):
            to_rational(text)

    def test_string_round_trip(self):
        for q in (F(1, 2), F(3), F(-7, 3), F(0)):
            assert to_rational(str(q)) == q


class TestRVector:
    def test_arithmetic_is_exact(self):
        a = RVector(["1/3", "1/7"])
        b = RVector(["2/3", "6/7"])
        assert a + b == RVector([1, 1])
        assert (a + b) - b == a
        assert a.dot(b) == F(2, 9) + F(6, 49)
        assert a.scale("3") == RVector([1, "3/7"])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            RVector([1, 2]) + RVector([1, 2, 3])
        with pytest.raises(DimensionMismatch):
            RVector([1]).dot(RVector([1, 2]))

    def test_indexing_is_bounds_checked(self):
        v = RVector([1, 2])
        assert v[1] == 2
        with pytest.raises(IndexError):
            v[2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RVector([])

    def test_squared_l2_examples(self):
        assert squared_l2(RVector([0, 0])) == 0
        assert squared_l2(RVector(["1/2", "1/2"])) == F(1, 2)
        assert squared_l2(RVector(["3/5", "4/5"])) == 1

    def test_l1_distance_examples(self):
        v = RVector(["1/2", "1/2"])
        assert l1_distance(v, v) == 0
        assert l1_distance(v, RVector(["1/2", 0])) == F(1, 2)
        assert l1_distance(RVector([1, 0]), RVector([0, 1])) == 2

    def test_norms_nonnegative_zero_iff_zero(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(1, 8)
            a = RVector([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)])
            b = RVector([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)])
            assert squared_l2(a - b) >= 0
            assert l1_distance(a, b) >= 0
            assert (squared_l2(a - b) == 0) == (a == b)
            assert (l1_distance(a, b) == 0) == (a == b)


class TestBinaryPoint:
    def test_bits_validated(self):
        with pytest.raises(ValueError):
            BinaryPoint([0, 2])
        with pytest.raises(ValueError):
            BinaryPoint([])

    def test_unit_and_origin(self):
        assert BinaryPoint.unit(3, 1) == BinaryPoint([0, 1, 0])
        assert BinaryPoint.origin(2).is_origin()
        with pytest.raises(IndexError):
            BinaryPoint.unit(2, 2)

    def test_minus_unit(self):
        p = BinaryPoint([1, 1, 0])
        assert p.minus_unit(0) == BinaryPoint([0, 1, 0])
        with pytest.raises(ValueError):
            p.minus_unit(2)

    def test_lexicographic_order(self):
        pts = [BinaryPoint(b) for b in ([1, 1], [0, 0], [1, 0], [0, 1])]
        assert [p.bits for p in sorted(pts)] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_dominates(self):
        assert BinaryPoint([1, 1]).dominates(BinaryPoint([0, 1]))
        assert not BinaryPoint([0, 1]).dominates(BinaryPoint([1, 0]))

    def test_as_vector(self):
        assert BinaryPoint([1, 0, 1]).as_vector() == RVector([1, 0, 1])


def _validated_bits(raw):
    """The constructor's contract, one component at a time."""
    for b in raw:
        if b != 0 and b != 1:
            raise ValueError(f"binary point component must be 0 or 1, got {b!r}")
    return tuple(int(b) for b in raw)


BIT_LIKE = st.sampled_from([0, 1, True, False, 0.0, 1.0, F(0), F(1)])


class TestBinaryPointFastPaths:
    @given(st.lists(BIT_LIKE, min_size=1, max_size=12), st.lists(BIT_LIKE, min_size=1, max_size=12))
    def test_constructor_matches_the_componentwise_contract(self, raw, other_raw):
        point, other = BinaryPoint(raw), BinaryPoint(other_raw)
        bits, other_bits = _validated_bits(raw), _validated_bits(other_raw)
        assert point.bits == bits
        assert all(type(b) is int for b in point.bits)
        assert point.ones() == tuple(k for k, b in enumerate(bits) if b)
        assert hash(point) == hash(bits)
        assert (point == other) == (bits == other_bits)
        assert (point < other) == (bits < other_bits)

    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
           st.lists(st.integers(0, 1), min_size=1, max_size=40))
    def test_unit_matches_the_constructor(self, case, other_bits):
        n, k = case
        fast = BinaryPoint.unit(n, k)
        slow = BinaryPoint([True if j == k else 0.0 for j in range(n)])
        other = BinaryPoint(other_bits)
        assert fast.bits == slow.bits
        assert fast.ones() == slow.ones() == (k,)
        assert hash(fast) == hash(slow)
        assert fast == slow
        assert (fast < other) == (slow < other)
        assert (other < fast) == (other < slow)

    @given(st.integers(1, 40))
    def test_units_match_unit(self, n):
        units = list(BinaryPoint.units(n))
        expected = [BinaryPoint.unit(n, k) for k in range(n)]
        assert [p.bits for p in units] == [p.bits for p in expected]
        assert [p.ones() for p in units] == [p.ones() for p in expected]
        assert [hash(p) for p in units] == [hash(p) for p in expected]
        assert sorted(units) == sorted(expected)
        assert units == expected
        # Each point owns its bits: none is a view of the reused buffer.
        assert len({id(p.bits) for p in units}) == n

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40), st.data())
    def test_minus_unit_matches_the_constructor(self, bits, data):
        k = data.draw(st.integers(0, len(bits) - 1))
        bits[k] = 1
        point = BinaryPoint(bits)
        slow = BinaryPoint([0 if j == k else b for j, b in enumerate(bits)])
        # The same component counted from the front and from the back.
        for fast in (point.minus_unit(k), point.minus_unit(k - len(bits))):
            assert fast.bits == slow.bits
            assert fast.ones() == slow.ones()
            assert hash(fast) == hash(slow)
            assert fast == slow

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
    def test_hash_is_the_hash_of_the_bits_before_and_after_caching(self, bits):
        for point in (BinaryPoint(bits), BinaryPoint.unit(len(bits), 0),
                      BinaryPoint.origin(len(bits))):
            assert hash(point) == hash(point.bits)
            assert hash(point) == hash(point.bits)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([], "a point needs at least one component"),
            ([0, 2], "binary point component must be 0 or 1, got 2"),
            ([1, -1], "binary point component must be 0 or 1, got -1"),
            ([0, 0.5], "binary point component must be 0 or 1, got 0.5"),
            (["1"], "binary point component must be 0 or 1, got '1'"),
            ([0, None], "binary point component must be 0 or 1, got None"),
            ([[1]], "binary point component must be 0 or 1, got [1]"),
            ([1, 2, [0]], "binary point component must be 0 or 1, got 2"),
            ([0, [1], 2], "binary point component must be 0 or 1, got [1]"),
        ],
    )
    def test_rejected_input_names_the_first_bad_component(self, raw, message):
        with pytest.raises(ValueError) as caught:
            BinaryPoint(raw)
        assert str(caught.value) == message


class TestConvexCombination:
    def test_point_mass_examples(self):
        for bits in ([0, 0], [1, 0], [1, 1, 0]):
            p = BinaryPoint(bits)
            lam = ConvexCombination.point_mass(p)
            assert lam.items() == ((p, F(1)),)

    def test_barycenter_examples(self):
        lam = ConvexCombination({BinaryPoint([0, 0]): 1})
        assert lam.barycenter() == RVector([0, 0])
        lam = ConvexCombination({BinaryPoint([1, 0]): "1/2", BinaryPoint([0, 0]): "1/2"})
        assert lam.barycenter() == RVector(["1/2", 0])
        lam = ConvexCombination(
            {
                BinaryPoint([1, 1]): "1/4",
                BinaryPoint([0, 1]): "1/4",
                BinaryPoint([0, 0]): "1/2",
            }
        )
        assert lam.barycenter() == RVector(["1/4", "1/2"])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ConvexCombination({BinaryPoint([0, 1]): F(1, 2)})

    def test_weight_sum_past_the_int_str_limit_is_reported_by_size(self):
        q = 10 ** (sys.get_int_max_str_digits() + 10) + 1
        with pytest.raises(ValueError, match=r"^weights sum to <rational of \d+ bits over"):
            ConvexCombination({BinaryPoint([0, 1]): 1 - F(1, q)})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ConvexCombination(
                {BinaryPoint([0, 1]): F(3, 2), BinaryPoint([1, 0]): F(-1, 2)}
            )

    def test_zero_weights_dropped(self):
        lam = ConvexCombination({BinaryPoint([0, 1]): 1, BinaryPoint([1, 0]): 0})
        assert lam.support() == (BinaryPoint([0, 1]),)
        assert dict(lam.items()) == {BinaryPoint([0, 1]): 1}

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            ConvexCombination(
                {BinaryPoint([0, 1]): F(1, 2), BinaryPoint([1, 0, 0]): F(1, 2)}
            )

    def test_support_iteration_is_lexicographic(self):
        lam = ConvexCombination(
            {BinaryPoint([1, 1]): "1/3", BinaryPoint([0, 1]): "1/3", BinaryPoint([1, 0]): "1/3"}
        )
        assert [p.bits for p in lam.support()] == [(0, 1), (1, 0), (1, 1)]


class TestRandomizedProperties:
    def test_combination_invariants(self):
        rng = random.Random(501)
        for _ in range(150):
            n = rng.randint(1, 8)
            prob = cube_problem(n)
            lam = random_combination(rng, feasible_points(prob), max_support=5)
            total = sum((w for _, w in lam.items()), F(0))
            assert total == 1
            assert all(w > 0 for _, w in lam.items())
            sigma = lam.barycenter()
            assert all(0 <= c <= 1 for c in sigma)
            assert sigma == brute_force_sigma(lam)


# Denominators made of the primes 2 and 3 only, so sums, differences and
# products of components cancel often.
SHARED_DENOMINATORS = st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36, 72])
RATIONALS = st.builds(F, st.integers(-72, 72), SHARED_DENOMINATORS)
UNIT_RATIONALS = SHARED_DENOMINATORS.flatmap(lambda d: st.integers(0, d).map(lambda a: F(a, d)))


@st.composite
def vector_pairs(draw):
    n = draw(st.integers(1, 8))
    components = st.lists(RATIONALS, min_size=n, max_size=n)
    return draw(components), draw(components)


@st.composite
def combination_cases(draw):
    """A combination, a target in the unit box and per-component factors.

    Weights a_i / sum(a) reduce to different denominators, and the
    barycenter adds weights up, so its lowest-terms denominator often
    leaves some weight's denominator out (1/4 + 1/4 = 1/2).
    """
    n = draw(st.integers(1, 5))
    points = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(BinaryPoint)
    support = draw(st.lists(points, min_size=1, max_size=6, unique=True))
    parts = draw(st.lists(st.integers(1, 12), min_size=len(support), max_size=len(support)))
    combination = ConvexCombination(
        {p: F(a, sum(parts)) for p, a in zip(support, parts)}
    )
    target = draw(st.lists(UNIT_RATIONALS, min_size=n, max_size=n))
    factors = draw(st.lists(UNIT_RATIONALS, min_size=n, max_size=n))
    return combination, target, factors


# The weights 25/36, 1/12, 1/12 and 5/36 have a barycenter of (2/9, 2/9):
# 36 does not divide 9.
CANCELLING = ConvexCombination(
    {
        BinaryPoint([0, 0]): F(25, 36),
        BinaryPoint([0, 1]): F(1, 12),
        BinaryPoint([1, 0]): F(1, 12),
        BinaryPoint([1, 1]): F(5, 36),
    }
)


def assert_same_vector(vector, reference):
    """``vector`` holds the values of ``reference`` and is in lowest terms."""
    assert list(vector) == list(reference)
    assert all(type(c) is Fraction for c in vector)
    assert [vector[k] for k in range(len(reference))] == list(reference)
    assert repr(vector) == repr(reference)
    assert vector == RVector(reference)
    assert hash(vector) == hash(RVector(reference))
    assert vector.denominator > 0
    assert math.gcd(vector.denominator, *vector.numerators) == 1


class TestRVectorMatchesReference:
    """The integer-numerator vector against tuple-of-Fraction semantics."""

    @settings(deadline=None)
    @given(vector_pairs(), RATIONALS)
    @example(([F(1, 6), F(1, 3)], [F(1, 6), F(-2, 3)]), F(3))
    def test_arithmetic(self, pair, factor):
        a, b = pair
        va, vb = RVector(a), RVector(b)
        ra, rb = ReferenceVector(a), ReferenceVector(b)
        assert_same_vector(va, ra)
        assert_same_vector(va + vb, ra + rb)
        assert_same_vector(va - vb, ra - rb)
        assert_same_vector(va.scale(factor), ra.scale(factor))
        assert_same_vector(clip_negative(va - vb), reference_clip_negative(ra - rb))
        assert va.dot(vb) == ra.dot(rb)
        assert squared_l2(va - vb) == reference_squared_l2(ra - rb)

    @settings(deadline=None)
    @given(vector_pairs(), st.integers(1, 12))
    def test_equality_and_hash(self, pair, extra):
        a, b = pair
        va, vb = RVector(a), RVector(b)
        assert (va == vb) == (ReferenceVector(a) == ReferenceVector(b))
        # The same values over a larger common denominator reduce to the
        # same vector.
        den = extra * math.lcm(*(c.denominator for c in a))
        wide = RVector.from_numerators([int(c * den) for c in a], den)
        assert wide == va and hash(wide) == hash(va)
        assert (va - va) == RVector([0] * len(a))
        assert (va + vb) - vb == va

    def test_from_numerators_rejects_bad_denominators(self):
        with pytest.raises(ValueError):
            RVector.from_numerators([1, 2], 0)
        with pytest.raises(ValueError):
            RVector.from_numerators([1, 2], -3)
        with pytest.raises(ValueError):
            RVector.from_numerators([], 1)

    @settings(deadline=None)
    @given(combination_cases())
    @example((CANCELLING, [F(1, 2), F(1, 4)], [F(1), F(1, 2)]))
    def test_barycenter_and_exact_steps(self, case):
        combination, target, factors = case
        sigma = combination.barycenter()
        assert_same_vector(sigma, reference_barycenter(combination))
        target = RVector(target)
        # Slacks below, at and above the coordinate gaps' sum.
        total_gap = l1_distance(target, sigma)
        for slack in (total_gap - F(1, 72), total_gap, total_gap + F(1, 2)):
            if slack < 0:
                continue
            try:
                expected = reference_build_dominating(combination, target, slack)
            except SlackTooSmall as refused:
                with pytest.raises(SlackTooSmall) as caught:
                    build_dominating(combination, target, slack)
                assert str(caught.value) == str(refused)
            else:
                assert build_dominating(combination, target, slack) == expected
        # Targets at or below the barycenter are reached exactly; one factor
        # above 1 on a positive component is a dominance violation.
        problem = cube_problem(combination.dim)
        for grow in (F(1), F(3, 2)):
            x = RVector(c * f * grow for c, f in zip(sigma, factors))
            try:
                expected = reference_reduce_to_exact(combination, x, problem)
            except DominanceViolation as refused:
                with pytest.raises(DominanceViolation) as caught:
                    reduce_to_exact(combination, x, problem)
                assert str(caught.value) == str(refused)
            else:
                assert reduce_to_exact(combination, x, problem) == expected
