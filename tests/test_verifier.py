import random
from fractions import Fraction

import pytest

from convdecomp import (
    BinaryPoint,
    ExtendedVerifier,
    GapVerifier,
    InfeasiblePoint,
    KnapsackInstance,
    KnapsackProblem,
    RVector,
    clip_negative,
)
from helpers import (
    brute_force_integer_bound,
    brute_force_lp_bound,
    knapsack_lp_oracle,
    random_explicit_problem,
    random_knapsack_problem,
    random_signed_mu,
)

F = Fraction


def test_clip_negative_examples():
    assert clip_negative(RVector([-1, 2])) == RVector([0, 2])
    assert clip_negative(RVector([0, 0])) == RVector([0, 0])
    assert clip_negative(RVector(["-1/3", -2])) == RVector([0, 0])


@pytest.fixture
def knapsack_234():
    return KnapsackProblem(KnapsackInstance([2, 3, 4], 5))


class TestExtendedQuery:
    def test_zero_objective_gives_feasible_point(self, knapsack_234):
        answer = knapsack_234.extended_verifier().query(RVector([0, 0, 0]))
        assert knapsack_234.feasible(answer)
        assert answer == BinaryPoint.origin(3)

    def test_nonnegative_objective_passes_through(self, knapsack_234):
        mu = RVector([3, 3, 4])
        ev = knapsack_234.extended_verifier()
        assert ev.query(mu) == BinaryPoint([1, 1, 0])
        # gap constant 2 covers the relaxed optimum of 6
        assert 2 * mu.dot(BinaryPoint([1, 1, 0]).as_vector()) >= 6
        assert brute_force_lp_bound(knapsack_234, mu) == 6

    def test_negative_components_are_zeroed(self, knapsack_234):
        ev = knapsack_234.extended_verifier()
        mu = RVector([-5, 3, 4])
        inner_answer = knapsack_234.verifier.query(clip_negative(mu))
        answer = ev.query(mu)
        assert answer[0] == 0
        assert all(answer[k] == inner_answer[k] for k in range(1, 3))

    def test_infeasible_inner_answer_is_rejected(self):
        class Liar(GapVerifier):
            def query(self, mu):
                return BinaryPoint([1, 1, 1])

        problem = KnapsackProblem(KnapsackInstance([2, 3, 4], 5))
        ev = ExtendedVerifier(Liar(3, 2), problem.feasible)
        with pytest.raises(InfeasiblePoint):
            ev.query(RVector([1, 1, 1]))


class TestExtensionProperties:
    def _instances(self, rng):
        problems = []
        for _ in range(3):
            problems.append(random_knapsack_problem(rng, rng.randint(3, 12)))
        for _ in range(3):
            problems.append(
                random_explicit_problem(rng, rng.randint(2, 8))
            )
        return problems

    def test_zeroing_and_gap_on_mixed_signs(self):
        rng = random.Random(77)
        for problem in self._instances(rng):
            ev = problem.extended_verifier()
            for _ in range(60):
                mu = random_signed_mu(rng, problem.n)
                answer = ev.query(mu)
                assert problem.feasible(answer)
                for k in range(problem.n):
                    if mu[k] < 0:
                        assert answer[k] == 0
                value = mu.dot(answer.as_vector())
                assert ev.alpha * value >= brute_force_lp_bound(problem, mu)
                assert ev.alpha * value >= brute_force_integer_bound(problem, mu)

    def test_agrees_with_inner_on_nonnegative(self):
        rng = random.Random(78)
        for problem in self._instances(rng):
            ev = problem.extended_verifier()
            for _ in range(40):
                mu = clip_negative(random_signed_mu(rng, problem.n))
                assert ev.query(mu) == problem.verifier.query(mu)


class TestVerifierContractsAgainstOracles:
    def test_knapsack_gap_two_on_random_nonnegative(self):
        rng = random.Random(79)
        for _ in range(6):
            n = rng.randint(2, 8)
            problem = random_knapsack_problem(rng, n)
            inst = problem.instance
            for _ in range(40):
                mu = clip_negative(random_signed_mu(rng, n))
                answer = problem.verifier.query(mu)
                assert problem.feasible(answer)
                lp = knapsack_lp_oracle(inst.weights, inst.capacity, mu)
                assert 2 * mu.dot(answer.as_vector()) >= lp

    def test_explicit_verifier_is_tight(self):
        rng = random.Random(80)
        for _ in range(6):
            problem = random_explicit_problem(rng, rng.randint(2, 8))
            for _ in range(40):
                mu = clip_negative(random_signed_mu(rng, problem.n))
                answer = problem.verifier.query(mu)
                assert mu.dot(answer.as_vector()) == brute_force_lp_bound(problem, mu)
