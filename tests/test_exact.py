import random
import sys
from fractions import Fraction

import pytest

from convdecomp import (
    BinaryPoint,
    ConvexCombination,
    DominanceViolation,
    ExplicitProblem,
    GapVerifier,
    IneligibleInstanceError,
    KnapsackInstance,
    KnapsackProblem,
    RVector,
    SlackTooSmall,
    build_dominating,
    ceil_sqrt,
    decompose_exact,
    minimum_slack,
    reduce_to_exact,
    unit_points_feasible,
)
from helpers import (
    cube_problem,
    feasible_points,
    l1_distance,
    random_combination,
    random_explicit_problem,
    random_knapsack_problem,
    random_nonneg_mu,
    reference_reduce_to_exact,
)

F = Fraction


def test_ceil_sqrt():
    expected = {1: 1, 2: 2, 3: 2, 4: 2, 5: 3, 9: 3, 10: 4, 14: 4, 16: 4, 17: 5}
    for n, r in expected.items():
        assert ceil_sqrt(n) == r
        assert r * r >= n
        assert (r - 1) * (r - 1) < n


def test_minimum_slack():
    assert minimum_slack(2, F(1, 10)) == F(1, 5)
    assert minimum_slack(3, F(1, 10)) == F(1, 5)
    assert minimum_slack(5, F(1, 2)) == F(3, 2)


class TestUnitPointsFeasible:
    def test_knapsack_every_item_fits(self):
        assert unit_points_feasible(KnapsackProblem(KnapsackInstance([2, 3, 4], 5)))

    def test_knapsack_heavy_item(self):
        assert not unit_points_feasible(KnapsackProblem(KnapsackInstance([2, 7], 5)))

    def test_explicit_downward_closure(self):
        assert unit_points_feasible(cube_problem(2))


class TestBuildDominating:
    def test_pure_origin_padding_when_already_on_target(self):
        lam = ConvexCombination(
            {BinaryPoint([1, 1]): F(1, 2), BinaryPoint([0, 0]): F(1, 2)}
        )
        target = lam.barycenter()
        dominated = build_dominating(lam, target, F(1, 2))
        assert dominated == ConvexCombination(
            {BinaryPoint([1, 1]): F(1, 3), BinaryPoint([0, 0]): F(2, 3)}
        )
        assert dominated.barycenter() == target.scale(F(2, 3))

    def test_tight_dominance_with_one_gap(self):
        lam = ConvexCombination(
            {BinaryPoint([1, 0]): F(1, 2), BinaryPoint([0, 0]): F(1, 2)}
        )
        target = RVector(["1/2", "1/2"])
        dominated = build_dominating(lam, target, F(1, 2))
        assert dominated == ConvexCombination(
            {
                BinaryPoint([1, 0]): F(1, 3),
                BinaryPoint([0, 0]): F(1, 3),
                BinaryPoint([0, 1]): F(1, 3),
            }
        )
        assert dominated.barycenter() == RVector(["1/3", "1/3"])

    def test_gap_plus_origin_padding(self):
        lam = ConvexCombination(
            {
                BinaryPoint([1, 0]): F(1, 4),
                BinaryPoint([1, 1]): F(1, 4),
                BinaryPoint([0, 0]): F(1, 2),
            }
        )
        assert lam.barycenter() == RVector(["1/2", "1/4"])
        target = RVector(["1/2", "1/2"])
        dominated = build_dominating(lam, target, F(1, 2))
        # gaps are (0, 1/4); the leftover 1/4 of slack goes to the origin
        weights = dict(dominated.items())
        assert weights[BinaryPoint([0, 1])] == F(1, 4) / F(3, 2)
        assert weights[BinaryPoint([0, 0])] == (F(1, 2) + F(1, 4)) / F(3, 2)
        assert dominated.barycenter() == RVector(["1/3", "1/3"])

    def test_slack_too_small(self):
        lam = ConvexCombination.point_mass(BinaryPoint([0, 0]))
        with pytest.raises(SlackTooSmall):
            build_dominating(lam, RVector(["1/2", "1/2"]), F(1, 2))

    def test_slack_past_the_int_str_limit_is_reported_by_size(self):
        q = 10 ** (sys.get_int_max_str_digits() + 10) + 1
        lam = ConvexCombination.point_mass(BinaryPoint([0, 0]))
        with pytest.raises(SlackTooSmall) as raised:
            build_dominating(lam, RVector(["1/2", "1/2"]), F(1, q))
        assert str(raised.value) == (
            f"coordinate gaps sum to 1, exceeding the slack "
            f"<rational of 1 bits over {q.bit_length()} bits>"
        )

    def test_dominance_property_randomized(self):
        rng = random.Random(41)
        for _ in range(120):
            n = rng.randint(1, 8)
            problem = cube_problem(n)
            lam = random_combination(rng, feasible_points(problem), max_support=4)
            # target anywhere in the unit box, including components the
            # combination overshoots
            target = RVector([F(rng.randint(0, 8), 8) for _ in range(n)])
            slack = l1_distance(lam.barycenter(), target) + F(rng.randint(0, 4), 4)
            if slack == 0:
                slack = F(1, 4)
            dominated = build_dominating(lam, target, slack)
            assert sum((w for _, w in dominated.items()), F(0)) == 1
            scaled = target.scale(F(1) / (1 + slack))
            sigma = dominated.barycenter()
            assert all(s >= t for s, t in zip(sigma, scaled))


class TestReduceToExact:
    def test_already_exact_is_a_no_op(self):
        problem = cube_problem(2)
        lam = ConvexCombination(
            {BinaryPoint([1, 1]): F(1, 2), BinaryPoint([0, 0]): F(1, 2)}
        )
        result, steps = reduce_to_exact(lam, lam.barycenter(), problem)
        assert steps == 0
        assert result == lam

    def test_single_split(self):
        problem = cube_problem(2)
        lam = ConvexCombination(
            {BinaryPoint([1, 1]): F(1, 2), BinaryPoint([0, 0]): F(1, 2)}
        )
        result, steps = reduce_to_exact(lam, RVector(["1/4", "1/2"]), problem)
        assert steps == 1
        assert result == ConvexCombination(
            {
                BinaryPoint([1, 1]): F(1, 4),
                BinaryPoint([0, 1]): F(1, 4),
                BinaryPoint([0, 0]): F(1, 2),
            }
        )
        assert result.barycenter() == RVector(["1/4", "1/2"])

    def test_whole_replacement_then_split(self):
        problem = cube_problem(2)
        lam = ConvexCombination(
            {
                BinaryPoint([1, 0]): F(1, 4),
                BinaryPoint([1, 1]): F(1, 4),
                BinaryPoint([0, 0]): F(1, 2),
            }
        )
        result, steps = reduce_to_exact(lam, RVector([0, "1/4"]), problem)
        assert result.barycenter() == RVector([0, "1/4"])
        assert steps == 2
        assert result == ConvexCombination(
            {BinaryPoint([0, 1]): F(1, 4), BinaryPoint([0, 0]): F(3, 4)}
        )

    def test_ties_on_weight_go_by_bits(self):
        # Dimension 0 lowers (1,1,0) to (0,1,0), which joins the end of the
        # support; dimension 1 then takes three moves over three candidates
        # of weight 1/3, and only the order by bits splits (1,1,1) last.
        problem = cube_problem(3)
        lam = ConvexCombination(
            {BinaryPoint(bits): "1/3" for bits in ([0, 1, 1], [1, 1, 0], [1, 1, 1])}
        )
        target = RVector(["1/3", "1/4", "1/3"])
        result, steps = reduce_to_exact(lam, target, problem)
        assert (result, steps) == reference_reduce_to_exact(lam, target, problem)
        assert steps == 5
        assert result == ConvexCombination(
            {
                BinaryPoint([0, 0, 0]): F(2, 3),
                BinaryPoint([1, 0, 1]): F(1, 12),
                BinaryPoint([1, 1, 1]): F(1, 4),
            }
        )

    def test_dominance_violation_detected_upfront(self):
        problem = cube_problem(2)
        lam = ConvexCombination.point_mass(BinaryPoint([0, 0]))
        with pytest.raises(DominanceViolation):
            reduce_to_exact(lam, RVector(["1/2", 0]), problem)

    def test_negative_target_rejected(self):
        problem = cube_problem(2)
        lam = ConvexCombination.point_mass(BinaryPoint([1, 1]))
        with pytest.raises(ValueError):
            reduce_to_exact(lam, RVector(["-1/2", 0]), problem)

    def test_exactness_on_synthetic_dominating_pairs(self):
        rng = random.Random(42)
        for _ in range(150):
            n = rng.randint(1, 8)
            problem = cube_problem(n)
            lam = random_combination(rng, feasible_points(problem), max_support=5)
            sigma = lam.barycenter()
            # random target below the barycenter, often equal on components
            target = RVector(
                [
                    c if rng.random() < 0.3 else c * F(rng.randint(0, 6), 6)
                    for c in sigma
                ]
            )
            result, steps = reduce_to_exact(lam, target, problem)
            assert result.barycenter() == target
            assert sum((w for _, w in result.items()), F(0)) == 1
            assert steps <= lam.support_size * n + (n * n + n) // 2
            for point in result.support():
                assert problem.feasible(point)


class TestDecomposeExact:
    def test_origin_target(self):
        problem = cube_problem(3)
        run = decompose_exact(problem, RVector([0, 0, 0]), F(1, 10))
        assert run.result == ConvexCombination.point_mass(BinaryPoint.origin(3))
        assert run.exact_steps == 0

    def test_worked_cube_example(self):
        problem = cube_problem(2)
        run = decompose_exact(problem, RVector(["1/2", "1/2"]), F(1, 10))
        assert run.slack == F(1, 5)
        assert run.scaled_target == RVector(["5/12", "5/12"])
        assert run.result.barycenter() == RVector(["5/12", "5/12"])

    def test_worked_knapsack_example(self):
        problem = KnapsackProblem(KnapsackInstance([2, 3, 4], 5))
        mu = RVector([3, 3, 4])
        xstar = problem.relaxed_optimum(mu)
        assert xstar == RVector([1, 1, 0])
        assert mu.dot(xstar) == 6
        run = decompose_exact(problem, xstar, F(1, 10))
        expected = xstar.scale(F(1) / (2 * (1 + run.slack)))
        assert run.result.barycenter() == expected

    def test_gap_constant_is_the_verifiers(self):
        class ClaimedGap(GapVerifier):
            """The greedy rule's answers under a looser claim, a gap of 3."""

            def __init__(self, inner):
                super().__init__(inner.n, 3)
                self._inner = inner

            def query(self, mu):
                return self._inner.query(mu)

        class LooseKnapsack(KnapsackProblem):
            def __init__(self, instance):
                super().__init__(instance)
                self._claimed = ClaimedGap(self._verifier)

            @property
            def verifier(self):
                return self._claimed

        problem = LooseKnapsack(KnapsackInstance([2, 3, 4], 5))
        assert problem.alpha == 3
        xstar = RVector([1, 1, 0])
        run = decompose_exact(problem, xstar, F(1, 10))
        assert run.scaled_target == xstar.scale(F(1) / (3 * (1 + run.slack)))
        assert run.result.barycenter() == run.scaled_target

    def test_ineligible_instance_rejected(self):
        problem = KnapsackProblem(KnapsackInstance([2, 7], 5))
        with pytest.raises(IneligibleInstanceError):
            decompose_exact(problem, RVector([0, 0]), F(1, 2))

    def test_overall_mode_scales_by_epsilon_itself(self):
        problem = cube_problem(3)
        xstar = RVector(["1/2", "1/3", 1])
        run = decompose_exact(problem, xstar, F(1, 2), overall=True)
        assert run.slack == F(1, 2)
        assert run.phase1.epsilon == F(1, 4)
        assert run.scaled_target == xstar.scale(F(2, 3))
        assert run.result.barycenter() == run.scaled_target

    def test_weight_denominators_outside_the_target_are_kept(self):
        """The benchmark's explicit-oracle request 33 at seed 502.

        Its dominating combination has weights over 36 and 12 while the
        scaled target's components are over 9 and 18, so a reduction
        that did its bookkeeping over the target's and the barycenter's
        denominators alone would miss the target here.
        """
        rows = [
            "00000001111001", "10101010010100", "10111110001000", "11001100001111",
            "11101111000011", "11110111010011", "10101000000001", "00100001111000",
            "01001001101010",
        ]
        n = 14
        points = [BinaryPoint(int(b) for b in row) for row in rows]
        points += [BinaryPoint.unit(n, k) for k in range(n)]
        problem = ExplicitProblem(n, points)
        xstar = RVector(F(4, 9) if k == 4 else F(1, 9) if k == 10 else 0 for k in range(n))
        run = decompose_exact(problem, xstar, 1, overall=True)
        expected = xstar.scale(F(1) / (problem.alpha * (1 + run.slack)))
        assert run.result.barycenter() == expected
        assert {w.denominator for _, w in run.dominating.items()} == {12, 36}

    def test_pipeline_randomized(self):
        rng = random.Random(43)
        for _ in range(30):
            if rng.random() < 0.5:
                problem = random_knapsack_problem(rng, rng.randint(3, 10))
            else:
                problem = random_explicit_problem(rng, rng.randint(2, 8))
            mu = random_nonneg_mu(rng, problem.n)
            xstar = problem.relaxed_optimum(mu)
            epsilon = rng.choice((F(1), F(1, 2), F(1, 10)))
            run = decompose_exact(problem, xstar, epsilon)
            n = problem.n
            assert run.result.barycenter() == run.scaled_target
            assert run.scaled_target == xstar.scale(
                F(1) / (problem.alpha * (1 + run.slack))
            )
            dominated = run.dominating.barycenter()
            assert all(d >= t for d, t in zip(dominated, run.scaled_target))
            assert run.exact_steps <= run.dominating.support_size * n + (n * n + n) // 2
            for point in run.result.support():
                assert problem.feasible(point)
