import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from convdecomp import (
    BinaryPoint,
    ConvexCombination,
    ExplicitProblem,
    ExtendedVerifier,
    GapVerifier,
    RVector,
    VerifierGapViolation,
    decompose_epsilon,
    iteration_budget,
    squared_l2,
)
from helpers import (
    OriginVerifier,
    cube_problem,
    feasible_points,
    random_combination,
    random_explicit_problem,
    random_knapsack_problem,
    random_nonneg_mu,
    reference_decompose_epsilon,
)

F = Fraction


def test_iteration_budget_examples():
    assert iteration_budget(4, 1) == 3
    assert iteration_budget(2, F(1, 10)) == 199
    with pytest.raises(ValueError):
        iteration_budget(3, 0)


class TestDecomposeEpsilon:
    def test_zero_target_terminates_immediately(self):
        problem = cube_problem(3)
        run = decompose_epsilon(RVector([0, 0, 0]), problem.extended_verifier(), F(1, 10))
        assert run.iterations == 0
        assert run.result == ConvexCombination.point_mass(BinaryPoint.origin(3))
        assert run.final_squared_residual == 0

    def test_cube_center_is_hit_exactly_in_one_pass(self):
        problem = cube_problem(2)
        run = decompose_epsilon(
            RVector(["1/2", "1/2"]), problem.extended_verifier(), F(1, 10)
        )
        assert run.iterations == 1
        record = run.trace[0]
        assert record.squared_residual == F(1, 2)
        assert record.sampled == BinaryPoint([1, 1])
        assert record.step == F(1, 2)
        assert run.final_squared_residual == 0
        assert run.result.barycenter() == RVector(["1/2", "1/2"])

    def test_cube_half_edge_first_pass(self):
        problem = cube_problem(2)
        run = decompose_epsilon(
            RVector(["1/2", 0]), problem.extended_verifier(), F(1, 10)
        )
        assert run.trace[0].sampled == BinaryPoint([1, 0])
        assert run.trace[0].step == F(1, 2)
        assert run.final_squared_residual == 0

    def test_target_outside_unit_box_rejected(self):
        problem = cube_problem(2)
        with pytest.raises(ValueError):
            decompose_epsilon(RVector([2, 0]), problem.extended_verifier(), F(1, 2))

    def test_epsilon_must_be_positive(self):
        problem = cube_problem(2)
        with pytest.raises(ValueError):
            decompose_epsilon(RVector([0, 0]), problem.extended_verifier(), 0)

    def test_broken_verifier_is_caught_in_first_pass(self):
        problem = cube_problem(2)
        broken = ExtendedVerifier(OriginVerifier(2), problem.feasible)
        with pytest.raises(VerifierGapViolation) as caught:
            decompose_epsilon(RVector(["1/2", "1/2"]), broken, F(1, 10))
        assert caught.value.iteration == 0
        assert caught.value.mu == RVector(["1/2", "1/2"])

    def test_wrong_dimension_verifier_rejected(self):
        problem = cube_problem(3)
        with pytest.raises(ValueError):
            decompose_epsilon(RVector([0, 0]), problem.extended_verifier(), F(1, 2))


class TestRunInvariants:
    def _check_run(self, problem, target, epsilon):
        run = decompose_epsilon(target, problem.extended_verifier(), epsilon)
        n = target.dim
        # termination and final precision
        assert run.final_squared_residual <= epsilon * epsilon
        assert run.iterations <= iteration_budget(n, epsilon)
        # residuals decrease strictly and respect the n/(i+1) envelope
        residuals = [rec.squared_residual for rec in run.trace]
        residuals.append(run.final_squared_residual)
        for i in range(len(residuals) - 1):
            assert residuals[i + 1] < residuals[i]
        for i, rec in enumerate(run.trace):
            assert rec.squared_residual <= F(n, i + 1)
        # support growth: one new point per pass at most
        assert run.result.support_size <= run.iterations + 1
        # everything in the support is feasible, and the trace is honest
        for point in run.result.support():
            assert problem.feasible(point)
        for rec in run.trace:
            assert problem.feasible(rec.sampled)
        assert squared_l2(target - run.result.barycenter()) == run.final_squared_residual
        assert run == reference_decompose_epsilon(target, problem.extended_verifier(), epsilon)
        return run

    def test_scaled_relaxed_optima(self):
        rng = random.Random(31)
        for _ in range(25):
            if rng.random() < 0.5:
                problem = random_knapsack_problem(rng, rng.randint(3, 12))
            else:
                problem = random_explicit_problem(rng, rng.randint(2, 9))
            mu = random_nonneg_mu(rng, problem.n)
            xstar = problem.relaxed_optimum(mu)
            target = xstar.scale(F(1) / problem.alpha)
            for epsilon in (F(1), F(1, 2), F(1, 10)):
                self._check_run(problem, target, epsilon)

    def test_fractional_targets_inside_scaled_hull(self):
        # Any point of the feasible hull scaled by 1/alpha is a valid target.
        # Denominators grow quickly for such generic targets, so keep the
        # dimension small at the tightest precision.
        rng = random.Random(32)
        for _ in range(15):
            problem = random_explicit_problem(rng, rng.randint(2, 5))
            lam = random_combination(rng, feasible_points(problem), max_support=3)
            target = lam.barycenter()
            for epsilon in (F(1, 2), F(1, 10)):
                self._check_run(problem, target, epsilon)


class RandomFeasibleVerifier(GapVerifier):
    """Dishonest: answers a seeded random feasible point, whatever the objective."""

    def __init__(self, points, seed):
        super().__init__(points[0].dim, 1)
        self._points = points
        self._rng = random.Random(seed)

    def query(self, mu):
        return self._rng.choice(self._points)


@st.composite
def epsilon_cases(draw):
    """A problem, a target, a way to build a fresh verifier, and a precision.

    Targets are scaled relaxed optima, scaled hull points, or arbitrary
    points of the unit box (often outside the scaled hull).  Verifiers are
    honest, answer random feasible points, or answer only the origin.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        problem = random_knapsack_problem(rng, n)
    else:
        problem = random_explicit_problem(rng, n)
    shrink = F(1) / problem.alpha
    kind = draw(st.sampled_from(["relaxed", "hull", "box"]))
    if kind == "relaxed":
        target = problem.relaxed_optimum(random_nonneg_mu(rng, n)).scale(shrink)
    elif kind == "hull":
        lam = random_combination(rng, feasible_points(problem), max_support=3)
        target = lam.barycenter().scale(shrink)
    else:
        target = RVector([F(rng.randint(0, 4), 4) for _ in range(n)])
    answers = draw(st.sampled_from(["honest", "random", "origin"]))
    if answers == "honest":
        make_verifier = problem.extended_verifier
    elif answers == "random":
        points = list(feasible_points(problem))
        seed = rng.getrandbits(32)
        make_verifier = lambda: ExtendedVerifier(
            RandomFeasibleVerifier(points, seed), problem.feasible
        )
    else:
        make_verifier = lambda: ExtendedVerifier(OriginVerifier(n), problem.feasible)
    epsilon = draw(st.sampled_from([F(1), F(1, 2), F(1, 10)]))
    return target, make_verifier, epsilon


# Denominator bits roughly double on every pass, so a run that needs many
# answers costs about 4x more per pass; both implementations are compared
# on their first ANSWER_CAP passes only.
ANSWER_CAP = 14


class _Capped(Exception):
    """A run asked its verifier for more than ANSWER_CAP answers."""


class RecordingVerifier:
    """Logs every (mu, answer) pair and refuses an answer past ANSWER_CAP."""

    def __init__(self, inner):
        self._inner = inner
        self.n = inner.n
        self.log = []

    def query(self, mu):
        if len(self.log) == ANSWER_CAP:
            raise _Capped
        answer = self._inner.query(mu)
        self.log.append((mu, answer))
        return answer


def _outcome(decompose, target, verifier, epsilon):
    recorder = RecordingVerifier(verifier)
    try:
        run = decompose(target, recorder, epsilon)
    except _Capped:
        return ("capped", recorder.log)
    except VerifierGapViolation as bad:
        return ("raised", type(bad), str(bad), bad.mu, bad.sampled, bad.iteration)
    return ("returned", run.trace, run.result, run.final_squared_residual)


class TestMatchesReference:
    @settings(deadline=None, max_examples=200)
    @given(epsilon_cases())
    def test_same_run_or_same_certificate(self, case):
        target, make_verifier, epsilon = case
        expected = _outcome(reference_decompose_epsilon, target, make_verifier(), epsilon)
        assert _outcome(decompose_epsilon, target, make_verifier(), epsilon) == expected


@pytest.mark.xfail(
    raises=_Capped,
    strict=True,
    reason="the segment step doubles denominator bits per pass; this hull "
    "target needs more than ANSWER_CAP passes",
)
def test_hull_target_finishes_within_the_answer_cap():
    rows = [
        [0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 1, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 1, 0, 0],
        [0, 1, 0, 1, 0, 0, 1],
        [1, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 1, 0, 0, 1],
    ]
    problem = ExplicitProblem(7, [BinaryPoint(r) for r in rows])
    target = RVector(["0", "17/24", "7/24", "17/24", "0", "0", "3/8"])
    recorder = RecordingVerifier(problem.extended_verifier())
    run = decompose_epsilon(target, recorder, F(1, 10))
    assert run.final_squared_residual <= F(1, 100)
