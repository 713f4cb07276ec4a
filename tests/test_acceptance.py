"""Acceptance suite: every pipeline guarantee at its stated tolerance.

Each test prints one PASS line (run pytest with -s to see them); a failed
assertion inside a test is the corresponding FAIL.  The sweep fixture runs
the full pipeline over 200 random instances once and is shared by the
criteria that quantify over runs.
"""

import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from convdecomp import (
    BinaryPoint,
    ConvexCombination,
    ExtendedVerifier,
    PackingProblem,
    RVector,
    VerifierGapViolation,
    decompose_epsilon,
    decompose_exact,
)
from convdecomp import cli
from convdecomp.cli import main, sample
from convdecomp.exact import ExactRun
from helpers import (
    OriginVerifier,
    brute_force_lp_bound,
    cube_problem,
    random_explicit_problem,
    random_knapsack_problem,
    random_nonneg_mu,
    random_signed_mu,
)

F = Fraction

EPSILONS = (F(1), F(1, 2), F(1, 10))


@dataclass
class SweepRecord:
    problem: PackingProblem
    mu: RVector
    xstar: RVector
    epsilon: Fraction
    run: ExactRun


@pytest.fixture(scope="module")
def sweep():
    rng = random.Random(2208)
    records = []
    started = time.perf_counter()
    for i in range(200):
        if i % 2 == 0:
            problem = random_explicit_problem(rng, rng.randint(2, 10))
        else:
            problem = random_knapsack_problem(rng, rng.randint(3, 14))
        mu = random_nonneg_mu(rng, problem.n)
        xstar = problem.relaxed_optimum(mu)
        epsilon = EPSILONS[i % 3]
        run = decompose_exact(problem, xstar, epsilon)
        records.append(SweepRecord(problem, mu, xstar, epsilon, run))
    elapsed = time.perf_counter() - started
    return records, elapsed


def test_criterion_1_exactness(sweep):
    records, elapsed = sweep
    assert len(records) == 200
    for rec in records:
        expected = rec.xstar.scale(
            F(1) / (rec.problem.alpha * (1 + rec.run.slack))
        )
        assert rec.run.scaled_target == expected
        assert rec.run.result.barycenter() == expected
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 1 (exactness): PASS - 200/200 runs decompose the scaled "
        f"optimum bit for bit in {elapsed:.1f}s"
    )


def test_criterion_2_precision_phase_iteration_bound(sweep):
    records, _ = sweep
    for rec in records:
        n = rec.problem.n
        budget = math.ceil(F(n) / (rec.epsilon * rec.epsilon)) - 1
        assert rec.run.phase1.iterations <= budget
        for i, entry in enumerate(rec.run.phase1.trace):
            assert entry.squared_residual <= F(n, i + 1)
    worst = max(rec.run.phase1.iterations for rec in records)
    print(
        f"ACCEPTANCE 2 (precision-phase bound): PASS - iteration counts within "
        f"budget on all runs (worst observed {worst})"
    )


def test_criterion_3_reduction_iteration_bound(sweep):
    records, _ = sweep
    for rec in records:
        n = rec.problem.n
        psi = rec.run.dominating.support_size
        assert rec.run.exact_steps <= psi * n + (n * n + n) // 2
    worst = max(rec.run.exact_steps for rec in records)
    print(
        f"ACCEPTANCE 3 (reduction bound): PASS - reduction steps within budget "
        f"on all runs (worst observed {worst})"
    )


def test_criterion_4_signed_objective_extension():
    rng = random.Random(3307)
    started = time.perf_counter()
    problems = [random_knapsack_problem(rng, rng.randint(6, 12)) for _ in range(5)]
    problems += [
        random_explicit_problem(rng, rng.randint(2, 8)) for _ in range(5)
    ]
    checked = 0
    for problem in problems:
        ev = problem.extended_verifier()
        for _ in range(1000):
            mu = random_signed_mu(rng, problem.n)
            answer = ev.query(mu)
            for k in range(problem.n):
                if mu[k] < 0:
                    assert answer[k] == 0
            value = mu.dot(answer.as_vector())
            assert ev.alpha * value >= brute_force_lp_bound(problem, mu)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 4 (signed extension): PASS - {checked} mixed-sign queries, "
        f"zero gap or zeroing violations in {elapsed:.1f}s"
    )


def test_criterion_5_support_size_linear_in_iterations(sweep):
    records, _ = sweep
    for rec in records:
        assert rec.run.phase1.result.support_size <= rec.run.phase1.iterations + 1
    print(
        "ACCEPTANCE 5 (support growth): PASS - precision phase support never "
        "exceeds iterations + 1"
    )


def test_weight_denominators_within_the_gram_bound(sweep):
    """A cap on weight denominators, derived rather than observed.

    Phase 1 ends at the point of its support's affine hull nearest the
    target t.  With m support points c_0 .. c_{m-1}, its weights past the
    first solve the Gram system G w = b, G_ij = (c_i - c_0).(c_j - c_0),
    b_i = (t - c_0).(c_i - c_0), and the first weight is 1 minus their sum.
    G has integer entries and D b is integral, D the lcm of t's
    denominators, so by Cramer's rule every weight is an integer over
    D det(G).  G is positive definite, so Hadamard's bound gives det(G) <=
    the product of its diagonal, and each |c_i - c_0|^2 <= n: the common
    denominator of the phase-1 weights is at most D n^(m-1).

    Exactification scales those weights and the gaps to t by
    1/(1 + s) = q/(q + p) for s = p/q, pads with s minus the gaps, and then
    only moves weight equal to another weight or to a barycenter component
    minus a component of t/(1 + s).  Every number stays an integer over
    D det(G) (q + p), and q + p is the numerator of 1 + s.
    """
    records, _ = sweep
    worst_bits = 0
    for rec in records:
        target = rec.run.phase1.target
        phase1 = rec.run.phase1.result
        cap = math.lcm(*(c.denominator for c in target)) * rec.problem.n ** (
            phase1.support_size - 1
        )
        assert math.lcm(*(w.denominator for _, w in phase1.items())) <= cap
        final = math.lcm(*(w.denominator for _, w in rec.run.result.items()))
        assert final <= cap * (1 + rec.run.slack).numerator
        worst_bits = max(worst_bits, final.bit_length())
    print(
        f"ACCEPTANCE (weight bits): PASS - every weight denominator within the "
        f"Gram-system bound (widest final common denominator {worst_bits} bits)"
    )


def test_criterion_6_dominance(sweep):
    records, _ = sweep
    for rec in records:
        sigma = rec.run.dominating.barycenter()
        assert all(s >= t for s, t in zip(sigma, rec.run.scaled_target))
        total = sum((w for _, w in rec.run.dominating.items()), F(0))
        assert total == 1
    print(
        "ACCEPTANCE 6 (dominance): PASS - intermediate combination dominates "
        "the scaled target componentwise on all runs"
    )


def test_criterion_7_every_created_point_is_feasible(sweep):
    records, _ = sweep
    checked = 0
    for rec in records:
        feasible = rec.problem.feasible
        for entry in rec.run.phase1.trace:
            assert feasible(entry.sampled)
            checked += 1
        for combination in (
            rec.run.phase1.result,
            rec.run.dominating,
            rec.run.result,
        ):
            for point in combination.support():
                assert feasible(point)
                checked += 1
    print(
        f"ACCEPTANCE 7 (feasibility closure): PASS - {checked} created points "
        f"all feasible (reduction steps also validate each lowered point inline)"
    )


def test_criterion_8_gap_violation_detection(tmp_path, capsys, monkeypatch):
    # library level: the very first pass must abort with a certificate
    problem = cube_problem(2)
    broken = ExtendedVerifier(OriginVerifier(2), problem.feasible)
    with pytest.raises(VerifierGapViolation) as caught:
        decompose_epsilon(RVector(["1/2", "1/2"]), broken, F(1, 10))
    assert caught.value.iteration == 0

    # CLI level: the same failure maps to exit code 3
    import convdecomp.problems as problems_module

    instance = tmp_path / "cube.json"
    instance.write_text(
        json.dumps({"problem": "explicit", "n": 2, "points": [[1, 1]]})
    )
    real_load = problems_module.load_instance

    def load_with_broken_verifier(source):
        problem = real_load(source)
        monkeypatch.setattr(
            type(problem), "verifier", property(lambda self: OriginVerifier(self.n))
        )
        return problem

    monkeypatch.setattr(cli, "load_instance", load_with_broken_verifier)
    rc = main(["--instance", str(instance), "--mu", "1,1", "--epsilon", "1/10"])
    assert rc == 3
    capsys.readouterr()
    print(
        "ACCEPTANCE 8 (gap-violation detection): PASS - broken verifier caught "
        "in the first pass, CLI exit code 3"
    )


def test_criterion_9_first_pass_matches_hand_derivation():
    problem = cube_problem(2)

    # target (1/2, 1/2): the verifier samples (1, 1); stepping halfway onto
    # it lands exactly on the target, so one pass ends the run with zero
    # residual.
    run = decompose_epsilon(
        RVector(["1/2", "1/2"]), problem.extended_verifier(), F(1, 10)
    )
    assert run.iterations == 1
    assert run.trace[0].squared_residual == F(1, 2)
    assert run.trace[0].sampled == BinaryPoint([1, 1])
    assert run.trace[0].step == F(1, 2)
    assert run.final_squared_residual == 0
    assert run.result == ConvexCombination(
        {BinaryPoint([0, 0]): F(1, 2), BinaryPoint([1, 1]): F(1, 2)}
    )

    # target (1/2, 0): the verifier samples (1, 0) and the projection picks
    # the midpoint of the segment, step 1/2
    run = decompose_epsilon(
        RVector(["1/2", "0"]), problem.extended_verifier(), F(1, 10)
    )
    assert run.trace[0].sampled == BinaryPoint([1, 0])
    assert run.trace[0].step == F(1, 2)
    assert run.final_squared_residual == 0
    print(
        "ACCEPTANCE 9 (first-pass trace): PASS - both hand-derived first "
        "passes match exactly"
    )


def test_criterion_10_sampler_statistics():
    lam = ConvexCombination(
        {BinaryPoint([1, 0]): F(1, 2), BinaryPoint([0, 1]): F(1, 2)}
    )
    draws = sample(lam, 10_000, seed=424242)
    freq = sum(1 for p in draws if p == BinaryPoint([1, 0])) / 10_000
    assert abs(freq - 0.5) <= 0.02
    assert sample(lam, 10_000, seed=424242) == draws
    print(
        f"ACCEPTANCE 10 (sampler): PASS - empirical frequency {freq:.4f} within "
        f"0.02 of 1/2, identical seed reproduces the sequence"
    )
