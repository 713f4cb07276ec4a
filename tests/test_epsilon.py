import random
import re
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
    squared_l2,
)
from convdecomp.epsilon import _atom, _nearest
from helpers import (
    OriginVerifier,
    cube_problem,
    feasible_points,
    iteration_budget,
    random_combination,
    random_explicit_problem,
    random_knapsack_problem,
    random_nonneg_mu,
    reference_decompose_epsilon,
    reference_optimal_step,
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


def _segment_sq(current, sampled, target):
    """Squared residual after the paper's step from ``current`` toward ``sampled``."""
    step = reference_optimal_step(current, sampled, target)
    return squared_l2(target - current.scale(step) - sampled.as_vector().scale(1 - step))


def _check_passes(target, log, run):
    """What the proof needs of a finished run, given its (mu, answer) log.

    Every pass queries the residual and records the paper's step from it;
    pass 0 ends where that step would, and no later pass ends farther from
    the target; and the weights end at the point of their support's affine
    hull nearest the target, on at most n + 1 points.
    """
    assert [(rec.squared_residual, rec.sampled) for rec in run.trace] == [
        (squared_l2(mu), answer) for mu, answer in log
    ]
    barycenter = run.result.barycenter()
    residuals = [mu for mu, _ in log] + [target - barycenter]
    assert residuals[0] == target
    for i, (mu, answer) in enumerate(log):
        current = target - mu
        assert run.trace[i].step == reference_optimal_step(current, answer, target)
        segment_sq = _segment_sq(current, answer, target)
        if i == 0:
            assert squared_l2(residuals[1]) == segment_sq
        else:
            assert squared_l2(residuals[i + 1]) <= segment_sq
    for point in run.result.support():
        assert residuals[-1].dot(point.as_vector() - barycenter) == 0
    assert run.result.support_size <= target.dim + 1


class TestRunInvariants:
    def _check_run(self, problem, target, epsilon):
        recorder = RecordingVerifier(problem.extended_verifier())
        run = decompose_epsilon(target, recorder, epsilon)
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
        _check_passes(target, recorder.log, run)
        if run.iterations <= 1:
            expected = reference_decompose_epsilon(target, problem.extended_verifier(), epsilon)
            assert run == expected
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


# Answers the hull target at the end of this file may use; the paper's
# segment step needed more than 14 there.
ANSWER_CAP = 14


class _Capped(Exception):
    """A run asked its verifier for more answers than its cap."""


class RecordingVerifier:
    """Logs every (mu, answer) pair and refuses an answer past ``cap``."""

    def __init__(self, inner, cap=None):
        self._inner = inner
        self._cap = cap
        self.n = inner.n
        self.log = []

    def query(self, mu):
        if len(self.log) == self._cap:
            raise _Capped
        answer = self._inner.query(mu)
        self.log.append((mu, answer))
        return answer


ENVELOPE = re.compile(
    r"squared residual (\S+) exceeds \d+/\d+ at pass \d+; "
    "the verifier does not verify its claimed gap"
)
UNDERSHOOT = re.compile(
    r"sampled point undershoots the target by (\S+) along the residual "
    r"direction at pass \d+"
)
NO_PROGRESS = re.compile(r"no progress at pass \d+: squared residual went from \S+ to \S+")


def _check_certificate(bad, target):
    """The violation has one of the three message forms, and its certificate
    proves what the message says."""
    assert type(bad) is VerifierGapViolation
    text = str(bad)
    envelope, undershoot = ENVELOPE.fullmatch(text), UNDERSHOOT.fullmatch(text)
    if envelope:
        assert F(envelope.group(1)) == squared_l2(bad.mu) > F(target.dim, bad.iteration + 1)
    elif undershoot:
        shortfall = bad.mu.dot(target - bad.sampled.as_vector())
        assert F(undershoot.group(1)) == shortfall > 0
    else:
        assert NO_PROGRESS.fullmatch(text) and bad.sampled is not None
    assert text.count(f"at pass {bad.iteration}") == 1


def _raised(bad):
    return (type(bad), str(bad), bad.mu, bad.sampled, bad.iteration)


class TestAgainstReference:
    """The paper's loop (the reference) is kept as the yardstick: this loop
    starts as it does, never ends a pass farther from the target, and blames
    a verifier only with a certificate that re-checks."""

    @settings(deadline=None, max_examples=200)
    @given(epsilon_cases())
    def test_each_pass_beats_the_paper_step(self, case):
        target, make_verifier, epsilon = case
        reference_first = None
        try:
            reference_decompose_epsilon(
                target, RecordingVerifier(make_verifier(), cap=1), epsilon
            )
        except _Capped:
            pass
        except VerifierGapViolation as bad:
            reference_first = _raised(bad)
        recorder = RecordingVerifier(make_verifier())
        try:
            run = decompose_epsilon(target, recorder, epsilon)
        except VerifierGapViolation as bad:
            _check_certificate(bad, target)
            if reference_first is not None or bad.iteration == 0:
                assert _raised(bad) == reference_first
            return
        assert reference_first is None
        _check_passes(target, recorder.log, run)
        if run.iterations <= 1:
            assert run == reference_decompose_epsilon(target, make_verifier(), epsilon)


class ScriptedVerifier:
    """Answers the given points in order, whatever the objective."""

    def __init__(self, points):
        self.n = points[0].dim
        self._answers = iter(points)

    def query(self, mu):
        return next(self._answers)


def test_minor_cycle_drops_two_points_at_once():
    # Target the vertex (1, 0).  Pass 0 samples (1, 1) and stops at (1/2, 1/2),
    # the middle of the segment from the origin.  Pass 1 samples the target
    # itself: the hull of all three points is nearest the target at (1, 0)
    # alone, so the origin and (1, 1) lose their weight in the same cycle.
    target = RVector([1, 0])
    answers = [BinaryPoint([1, 1]), BinaryPoint([1, 0])]
    one_pass = decompose_epsilon(target, ScriptedVerifier(answers), F(3, 4))
    assert one_pass.iterations == 1
    assert one_pass.result == ConvexCombination(
        {BinaryPoint([0, 0]): F(1, 2), BinaryPoint([1, 1]): F(1, 2)}
    )
    recorder = RecordingVerifier(ScriptedVerifier(answers))
    run = decompose_epsilon(target, recorder, F(1, 10))
    assert run.iterations == 2
    assert run.result == ConvexCombination.point_mass(BinaryPoint([1, 0]))
    assert run.final_squared_residual == 0
    _check_passes(target, recorder.log, run)


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
    recorder = RecordingVerifier(problem.extended_verifier(), cap=ANSWER_CAP)
    run = decompose_epsilon(target, recorder, F(1, 10))
    assert run.final_squared_residual <= F(1, 100)
    _check_passes(target, recorder.log, run)


def test_points_dropped_in_a_pass_rejoin_while_the_residual_favours_them():
    # A pass of a random n = 6 run: six active points with their weights, and
    # the sampled point (last) at weight 0.  The minor cycles alone end on
    # four points, but the residual there still favours (1, 1, 0, 0, 1, 1),
    # dropped on the way; it rejoins, and the pass ends at the point of the
    # whole hull nearest the target.
    rows = [
        [0, 0, 0, 0, 0, 0],
        [1, 1, 0, 0, 1, 1],
        [0, 1, 0, 0, 1, 1],
        [1, 0, 1, 0, 0, 1],
        [1, 0, 1, 0, 1, 0],
        [0, 1, 0, 1, 0, 1],
        [0, 1, 0, 1, 0, 0],
    ]
    target = RVector(["6/17", "13/17", "7/17", "0", "12/17", "11/17"])
    pool = [_atom(BinaryPoint(r), target) for r in rows]
    weights = [F(3, 68), F(1, 68), F(9, 17), F(7, 68), F(4, 17), F(5, 68), F(0)]
    corral, weights, residual = _nearest(pool, weights, target)
    combination = ConvexCombination((a.point, w) for a, w in zip(corral, weights))
    barycenter = combination.barycenter()
    assert residual == target - barycenter
    assert squared_l2(residual) == F(7, 221)
    for atom in pool:
        lean = residual.dot(atom.point.as_vector() - barycenter)
        assert lean == 0 if atom in corral else lean <= 0
    assert BinaryPoint([1, 1, 0, 0, 1, 1]) in combination.support()
