import itertools
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from convdecomp import (
    BinaryPoint,
    ConvexCombination,
    ExplicitProblem,
    IneligibleInstanceError,
    InstanceFormatError,
    KnapsackInstance,
    KnapsackProblem,
    RVector,
    clip_negative,
    load_instance,
    validate_decomposition,
)
from helpers import (
    brute_force_lp_bound,
    feasible_points,
    knapsack_lp_oracle,
    random_knapsack_problem,
    random_signed_mu,
    reference_knapsack_query,
    reference_knapsack_relaxed_optimum,
    relaxed_value,
)

F = Fraction


class TestKnapsackVerifier:
    def test_zero_objective_gives_origin(self):
        problem = KnapsackProblem(KnapsackInstance([2, 3, 4], 5))
        assert problem.verifier.query(RVector([0, 0, 0])) == BinaryPoint.origin(3)

    def test_greedy_prefix_wins(self):
        problem = KnapsackProblem(KnapsackInstance([2, 3, 4], 5))
        answer = problem.verifier.query(RVector([3, 3, 4]))
        assert answer == BinaryPoint([1, 1, 0])
        assert brute_force_lp_bound(problem, RVector([3, 3, 4])) == 6

    def test_best_single_item_wins(self):
        problem = KnapsackProblem(KnapsackInstance([1, 1, 10], 10))
        mu = RVector([1, 1, 10])
        answer = problem.verifier.query(mu)
        assert answer == BinaryPoint([0, 0, 1])
        # the fractional optimum takes items 1 and 2 plus 8/10 of item 3
        assert problem.relaxed_optimum(mu) == RVector([1, 1, "4/5"])
        lp = knapsack_lp_oracle(problem.instance.weights, problem.instance.capacity, mu)
        assert lp == 10
        assert relaxed_value(problem, mu) == lp
        assert 2 * mu.dot(answer.as_vector()) >= lp

    def test_ineligible_instance_raises(self):
        problem = KnapsackProblem(KnapsackInstance([2, 7], 5))
        assert not problem.instance.decomposition_eligible
        with pytest.raises(IneligibleInstanceError):
            problem.verifier.query(RVector([1, 1]))

    def test_negative_objective_rejected(self):
        problem = KnapsackProblem(KnapsackInstance([2, 3], 5))
        with pytest.raises(ValueError):
            problem.verifier.query(RVector([-1, 1]))


class TestKnapsackLP:
    def test_zero_objective(self):
        problem = KnapsackProblem(KnapsackInstance([2, 3, 4], 5))
        assert problem.relaxed_optimum(RVector([0, 0, 0])) == RVector([0, 0, 0])

    def test_capacity_exactly_consumed(self):
        problem = KnapsackProblem(KnapsackInstance([2, 3, 4], 5))
        assert problem.relaxed_optimum(RVector([3, 3, 4])) == RVector([1, 1, 0])

    def test_matches_vertex_enumeration_oracle(self):
        rng = random.Random(91)
        for _ in range(12):
            n = rng.randint(2, 8)
            problem = random_knapsack_problem(rng, n, eligible=rng.random() < 0.7)
            inst = problem.instance
            for _ in range(25):
                mu = clip_negative(random_signed_mu(rng, n))
                value = relaxed_value(problem, mu)
                assert value == knapsack_lp_oracle(inst.weights, inst.capacity, mu)
                # the optimizer itself must be feasible for the relaxation
                x = problem.relaxed_optimum(mu)
                assert all(0 <= c <= 1 for c in x)
                load = sum((w * c for w, c in zip(inst.weights, x)), F(0))
                assert load <= inst.capacity

    def test_instance_validation(self):
        with pytest.raises(InstanceFormatError):
            KnapsackInstance([], 5)
        with pytest.raises(InstanceFormatError):
            KnapsackInstance([1, 0], 5)
        with pytest.raises(InstanceFormatError):
            KnapsackInstance([1, 2], 0)


@st.composite
def knapsack_cases(draw):
    """(weights, capacity, objective) with repeated densities and values,
    zero components, and a capacity that some items fill exactly."""
    n = draw(st.integers(1, 8))
    halves = st.integers(0, 6).map(lambda i: F(i, 2))
    weights = draw(st.lists(halves.filter(bool), min_size=n, max_size=n))
    mu = draw(st.lists(halves, min_size=n, max_size=n))
    chosen = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    filled = sum((w for w, c in zip(weights, chosen) if c), F(0))
    capacity = max(filled + draw(st.sampled_from([0, 0, F(1, 2)])), max(weights))
    return weights, capacity, mu


class TestKnapsackMatchesReference:
    """The verifier and the relaxation solver give exactly the answers of
    the loops they replaced, ties included."""

    @settings(deadline=None, max_examples=300)
    @given(knapsack_cases())
    @example(([1, 1, 2], 2, [1, 1, 2]))
    @example(([1, 2, 1], 3, [0, 0, 0]))
    # Densities 1/(2^20 - 1) < 1/(2^20 - 2) differ by less than 2^-40: an
    # integer sort key must not tie them.
    @example(([2**20 - 1, 2**20 - 2], 2**20 - 1, [1, 1]))
    @example(([F(2**20 - 1, 3), F(2**20 - 2, 3), 5], F(2**20 - 1, 3), [1, 1, 1]))
    def test_answers_and_relaxed_optima(self, case):
        weights, capacity, mu = case
        inst = KnapsackInstance(weights, capacity)
        problem = KnapsackProblem(inst)
        mu = RVector(mu)
        args = (inst.weights, inst.capacity, mu)
        assert problem.verifier.query(mu) == reference_knapsack_query(*args)
        assert problem.relaxed_optimum(mu) == reference_knapsack_relaxed_optimum(*args)


def closure_by_subsets(n, rows):
    """Downward closure of the rows, built by enumerating subsets of each."""
    closed = {BinaryPoint.origin(n)}
    for row in rows:
        ones = [k for k, b in enumerate(row) if b]
        for pattern in itertools.product((0, 1), repeat=len(ones)):
            bits = [0] * n
            for k, keep in zip(ones, pattern):
                bits[k] = keep
            closed.add(BinaryPoint(bits))
    return closed


@st.composite
def explicit_cases(draw):
    """(n, listed rows, nonnegative objective) with zeros and ties likely."""
    n = draw(st.integers(1, 8))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=6))
    weights = st.fractions(min_value=0, max_value=2, max_denominator=2)
    mu = draw(st.lists(weights, min_size=n, max_size=n))
    return n, rows, mu


class TestExplicitPolytope:
    def test_closure_is_computed_and_reported(self):
        problem = ExplicitProblem(2, [BinaryPoint([1, 0]), BinaryPoint([0, 1])])
        closure = set(feasible_points(problem))
        assert closure == {
            BinaryPoint([0, 0]),
            BinaryPoint([1, 0]),
            BinaryPoint([0, 1]),
        }
        assert closure - set(problem.seeds) == {BinaryPoint([0, 0])}

    @settings(deadline=None)
    @given(explicit_cases())
    @example((3, [], [0, 1, 1]))
    @example((3, [[0, 0, 0]], [1, 0, 2]))
    @example((3, [[1, 1, 0], [1, 1, 0], [0, 1, 1]], [1, 0, 1]))
    def test_dominance_matches_enumerated_closure(self, case):
        n, rows, mu = case
        problem = ExplicitProblem(n, [BinaryPoint(r) for r in rows])
        closure = set(feasible_points(problem))
        assert closure == closure_by_subsets(n, rows)
        mu = RVector(mu)
        best = min(closure, key=lambda p: (-mu.dot(p.as_vector()), p.bits))
        assert problem.verifier.query(mu) == best

    def test_stored_set_equals_its_own_closure(self):
        rng = random.Random(92)
        for _ in range(40):
            n = rng.randint(1, 6)
            seeds = [
                BinaryPoint([rng.randint(0, 1) for _ in range(n)])
                for _ in range(rng.randint(1, 4))
            ]
            problem = ExplicitProblem(n, seeds)
            for p in feasible_points(problem):
                for bits in itertools.product(*[(0, b) if b else (0,) for b in p.bits]):
                    assert problem.feasible(BinaryPoint(bits))

    def test_verifier_examples(self):
        cube = ExplicitProblem(2, [BinaryPoint([1, 1])])
        assert cube.verifier.query(RVector(["1/2", "1/3"])) == BinaryPoint([1, 1])
        cross = ExplicitProblem(2, [BinaryPoint([1, 0]), BinaryPoint([0, 1])])
        assert cross.verifier.query(RVector([1, 2])) == BinaryPoint([0, 1])
        assert cross.verifier.query(RVector([0, 0])) == BinaryPoint([0, 0])

    def test_downward_closure_of_knapsack_feasibility(self):
        rng = random.Random(93)
        for _ in range(6):
            problem = random_knapsack_problem(rng, rng.randint(2, 10))
            for point in feasible_points(problem):
                for k in point.ones():
                    assert problem.feasible(point.minus_unit(k))


class TestBruteForceLPBound:
    def test_nonpositive_objective_gives_zero(self):
        problem = KnapsackProblem(KnapsackInstance([2, 3], 5))
        assert brute_force_lp_bound(problem, RVector([-1, 0])) == 0

    def test_knapsack_example(self):
        problem = KnapsackProblem(KnapsackInstance([2, 3, 4], 5))
        assert brute_force_lp_bound(problem, RVector([3, 3, 4])) == 6

    def test_explicit_cube_with_mixed_signs(self):
        cube = ExplicitProblem(3, [BinaryPoint([1, 1, 1])])
        assert brute_force_lp_bound(cube, RVector([1, -1, 2])) == 3

    def test_enumeration_limit(self):
        problem = KnapsackProblem(KnapsackInstance([1] * 17, 20))
        with pytest.raises(ValueError):
            brute_force_lp_bound(problem, RVector([1] * 17))
        assert brute_force_lp_bound(problem, RVector([1] * 17), limit=17) == 17


class TestValidateDecomposition:
    def test_origin_point_mass(self):
        problem = KnapsackProblem(KnapsackInstance([2, 3], 5))
        lam = ConvexCombination.point_mass(BinaryPoint.origin(2))
        report = validate_decomposition(problem, lam, RVector([0, 0]))
        assert report.passed

    def test_matching_target_passes(self):
        problem = KnapsackProblem(KnapsackInstance([2, 3], 5))
        lam = ConvexCombination(
            {BinaryPoint([1, 0]): F(1, 2), BinaryPoint([0, 0]): F(1, 2)}
        )
        assert validate_decomposition(problem, lam, RVector(["1/2", 0])).passed

    def test_component_mismatch_is_itemized(self):
        problem = KnapsackProblem(KnapsackInstance([2, 3], 5))
        lam = ConvexCombination(
            {BinaryPoint([1, 0]): F(1, 2), BinaryPoint([0, 0]): F(1, 2)}
        )
        report = validate_decomposition(problem, lam, RVector(["1/2", "1/4"]))
        assert not report.passed
        assert len(report.failures) == 1
        assert "component 1" in report.failures[0]

    def test_infeasible_support_is_itemized(self):
        problem = KnapsackProblem(KnapsackInstance([2, 3], 4))
        lam = ConvexCombination.point_mass(BinaryPoint([1, 1]))
        report = validate_decomposition(problem, lam, RVector([1, 1]))
        assert not report.passed
        assert any("infeasible" in msg for msg in report.failures)


    def test_objective_checked_on_exact_decompositions(self):
        problem = KnapsackProblem(KnapsackInstance([2, 3], 5))
        lam = ConvexCombination(
            {BinaryPoint([1, 0]): F(1, 2), BinaryPoint([0, 0]): F(1, 2)}
        )
        assert validate_decomposition(problem, lam, RVector(["1/2", 0])).passed
        # Bit-exact barycenter equality is what carries the objective guarantee.
        report = validate_decomposition(problem, lam, RVector(["1/2", "1/4"]))
        assert len(report.failures) == 1
        assert "component 1" in report.failures[0]

    def test_residual_above_epsilon_squared_is_itemized(self):
        problem = KnapsackProblem(KnapsackInstance([2, 3], 5))
        lam = ConvexCombination.point_mass(BinaryPoint.origin(2))
        report = validate_decomposition(
            problem,
            lam,
            RVector(["1/2", "1/2"]),
            epsilon=F(1, 2),
            squared_residual=F(1, 2),
        )
        assert report.failures == ("squared residual 1/2 exceeds epsilon^2 = 1/4",)

    def test_misreported_residual_is_itemized(self):
        problem = KnapsackProblem(KnapsackInstance([2, 3], 5))
        lam = ConvexCombination.point_mass(BinaryPoint.origin(2))
        report = validate_decomposition(
            problem,
            lam,
            RVector(["1/2", "1/2"]),
            epsilon=F(1),
            squared_residual=F(1, 4),
        )
        assert report.failures == (
            "recomputed squared residual 1/2 differs from reported 1/4",
        )

    def test_mismatch_past_the_int_str_limit_is_itemized(self):
        # The barycenter's denominator q stays under the interpreter's
        # int-to-string limit; the target's, about q^2, passes it.
        q = 10 ** (sys.get_int_max_str_digits() // 2 + 50) + 1
        problem = ExplicitProblem(2, [BinaryPoint([1, 1])])
        lam = ConvexCombination(
            {BinaryPoint([1, 0]): F(1, q), BinaryPoint([0, 0]): 1 - F(1, q)}
        )
        target = RVector([F(1, (q + 2) ** 2 + 7), 0])
        report = validate_decomposition(problem, lam, target)
        (failure,) = report.failures
        assert failure.startswith(f"barycenter component 0 is 1/{q}, target wants <rational of")

class TestLoadInstance:
    def test_knapsack_file(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(
            json.dumps({"problem": "knapsack", "weights": ["2", "3", "4"], "capacity": "5"})
        )
        problem = load_instance(str(path))
        assert isinstance(problem, KnapsackProblem)
        assert problem.n == 3
        assert problem.instance.capacity == 5

    def test_explicit_dict(self):
        problem = load_instance(
            {"problem": "explicit", "n": 2, "points": [[1, 0], [0, 1]]}
        )
        assert isinstance(problem, ExplicitProblem)
        assert problem.feasible(BinaryPoint([0, 0]))
        assert not problem.feasible(BinaryPoint([1, 1]))

    def test_rational_strings_and_ints_mix(self):
        problem = load_instance(
            {"problem": "knapsack", "weights": ["1/2", 2], "capacity": "5/2"}
        )
        assert problem.instance.weights == (F(1, 2), F(2))

    def test_bad_inputs(self):
        with pytest.raises(InstanceFormatError):
            load_instance({"problem": "matching"})
        with pytest.raises(InstanceFormatError):
            load_instance({"problem": "knapsack", "weights": "2,3", "capacity": 5})
        with pytest.raises(InstanceFormatError):
            load_instance({"problem": "knapsack", "weights": ["2", "-3"], "capacity": 5})
        with pytest.raises(InstanceFormatError):
            load_instance({"problem": "explicit", "n": 2, "points": [[1, 2]]})
        with pytest.raises(InstanceFormatError):
            load_instance({"problem": "explicit", "points": [[1, 0]]})
        with pytest.raises(TypeError):
            load_instance([1, 2, 3])

    def test_top_level_array_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(InstanceFormatError):
            load_instance(str(path))

    @pytest.mark.parametrize(
        "content",
        [
            b'{"problem": "knapsack", "weights": ["2"], "capacity": "5\xff"}',
            b"{not json",
            b"[" * 1001,
        ],
        ids=["not-utf8", "malformed", "nested"],
    )
    def test_unreadable_file_raises_instance_format_error(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(InstanceFormatError):
            load_instance(str(path))
