"""Workloads, request execution and tracing for the convdecomp benchmark.

A request is one CLI-equivalent decomposition: it walks the public functions
in the order ``cli.run`` and ``cli._emit`` use them (load the instance, solve
the relaxation or take the given optimum, decompose exactly, validate, draw
samples, serialise the report).  Everything here wraps the library from the
outside; nothing in the package is patched.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional

from convdecomp import (
    DecompositionError,
    ExactRun,
    GapVerifier,
    IneligibleInstanceError,
    PackingProblem,
    RVector,
    VerifierViolation,
    build_dominating,
    ceil_sqrt,
    decompose_epsilon,
    decompose_exact,
    load_instance,
    minimum_slack,
    reduce_to_exact,
    unit_points_feasible,
    validate_decomposition,
)
from convdecomp.cli import DecompositionReport, RunStats, sample

# Verifier queries one request may make.  Phase 1 on knapsack-deep doubles
# denominator bits each pass, so requests near the budget cost 5-20 times the
# median; at 12 those few requests set the workload's tail and throughput,
# which then differ by up to a third between seeds.  At 11 every failure kind
# still occurs and no request can run unbounded.
QUERY_BUDGET = 11
SAMPLE_COUNT = 1000

# Failure kinds, counted against attempted requests.
BUDGET_CUT = "budget_cut"
VERIFIER_VIOLATION = "verifier_violation"
DECOMPOSITION_ERROR = "decomposition_error"
REPORT_SERIALIZATION = "report_serialization"
FAILURE_KINDS = (BUDGET_CUT, VERIFIER_VIOLATION, DECOMPOSITION_ERROR, REPORT_SERIALIZATION)


class QueryBudgetExceeded(Exception):
    """A request asked for more verifier queries than the benchmark allows."""


class WrongOutput(Exception):
    """The library returned a result that breaks one of its guarantees."""


# ---------------------------------------------------------------------------
# Tracing


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    """Keeps spans (name, start, end, parent index, request id) in memory."""

    enabled = True

    def __init__(self):
        self.spans: List[tuple] = []
        self.request: Optional[int] = None
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.request)

    def self_seconds(self) -> dict:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[index]
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "request": request}
                    )
                    + "\n"
                )


NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# Metering wrappers, passed in through the library's own interfaces


class MeteredVerifier(GapVerifier):
    """Delegates to a verifier, traces each query, refuses past the budget."""

    def __init__(self, inner: GapVerifier, budget: int, tracer):
        super().__init__(inner.n, inner.alpha)
        self._inner = inner
        self._budget = budget
        self._tracer = tracer
        self.answered = 0

    def query(self, mu: RVector):
        if self.answered >= self._budget:
            raise QueryBudgetExceeded(f"verifier query budget of {self._budget} spent")
        with self._tracer.span("verifier.query"):
            answer = self._inner.query(mu)
        self.answered += 1
        return answer


class MeteredProblem(PackingProblem):
    """A problem whose verifier is metered; everything else is delegated."""

    def __init__(self, inner: PackingProblem, budget: int, tracer):
        self.kind = inner.kind
        self._inner = inner
        self._verifier = MeteredVerifier(inner.verifier, budget, tracer)

    @property
    def n(self) -> int:
        return self._inner.n

    @property
    def alpha(self) -> Fraction:
        return self._inner.alpha

    def feasible(self, point) -> bool:
        return self._inner.feasible(point)

    @property
    def verifier(self) -> MeteredVerifier:
        return self._verifier

    def relaxed_optimum(self, mu: RVector) -> RVector:
        return self._inner.relaxed_optimum(mu)


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Request:
    rid: int
    instance: str
    mode: str
    epsilon: Fraction
    mu: Optional[RVector]
    xstar: Optional[RVector]
    sample_seed: int


@dataclass(frozen=True)
class Workload:
    """A seeded request set: ``instances`` files, ``per_instance`` requests each."""

    name: str
    kind: str
    n: int
    epsilon: Fraction
    mode: str
    instances: int
    per_instance: int = 1

    def generate(self, seed: int, directory: Path) -> List[Request]:
        """Write the instance files under ``directory`` and return the requests."""
        rng = random.Random(f"{self.name}/{seed}")
        directory.mkdir(parents=True, exist_ok=True)
        requests = []
        for index in range(self.instances):
            if self.kind == "knapsack":
                data = _knapsack_instance(rng, self.n)
            else:
                data = _explicit_instance(rng, self.n, index)
            path = directory / f"{index:04d}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            for _ in range(self.per_instance):
                mu = xstar = None
                if self.kind == "knapsack":
                    mu = RVector(
                        Fraction(rng.randint(1, 24), rng.randint(1, 4)) for _ in range(self.n)
                    )
                else:
                    xstar = _convex_point(rng, data["points"], self.n)
                requests.append(
                    Request(
                        rid=len(requests),
                        instance=str(path),
                        mode=self.mode,
                        epsilon=self.epsilon,
                        mu=mu,
                        xstar=xstar,
                        sample_seed=rng.getrandbits(32),
                    )
                )
        return requests


def _knapsack_instance(rng: random.Random, n: int) -> dict:
    """Capacity 5n, weights uniform on [1, 5n]: every item fits alone."""
    return {
        "problem": "knapsack",
        "weights": [rng.randint(1, 5 * n) for _ in range(n)],
        "capacity": 5 * n,
    }


def _explicit_instance(rng: random.Random, n: int, index: int) -> dict:
    """Random seed points plus every unit vector.

    A seed with k ones adds up to 2^k points to the downward closure, and
    load and verifier cost grow with the closure.  Drawn freely, seed counts
    and bit counts moved throughput and set-up time by 25-45% between
    workload seeds, so both follow fixed cycles here (1..n+3 seeds of 4..10
    ones each) and only the positions of the ones are random.
    """
    rows = []
    for j in range(1 + index % (n + 3)):
        ones = set(rng.sample(range(n), min(n, 4 + (index + j) % 7)))
        rows.append([int(k in ones) for k in range(n)])
    rows += [[int(j == k) for j in range(n)] for k in range(n)]
    return {"problem": "explicit", "n": n, "points": rows}


def _convex_point(rng: random.Random, rows, n: int) -> RVector:
    """A convex combination of three feasible points, weights 1..4.

    Each point lowers some bits of a listed point, so it lies in the
    downward closure.
    """
    points = [[bit & rng.randint(0, 1) for bit in rng.choice(rows)] for _ in range(3)]
    weights = [rng.randint(1, 4) for _ in range(3)]
    total = sum(weights)
    return RVector(
        Fraction(sum(w * p[k] for w, p in zip(weights, points)), total) for k in range(n)
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("knapsack-deep", "knapsack", 96, Fraction(1, 50), "exact", 250),
        Workload("knapsack-wide", "knapsack", 512, Fraction(1, 4), "exact", 24),
        Workload("explicit-oracle", "explicit", 14, Fraction(1), "exact-overall", 25, 4),
    )
}


# ---------------------------------------------------------------------------
# One request


@dataclass
class Outcome:
    request: Request
    latency: float
    failure: Optional[str] = None
    report: Optional[DecompositionReport] = None
    text: Optional[str] = None
    queries: int = 0
    report_bytes: int = 0


def _decompose_expanded(problem, xstar, epsilon, overall, tracer) -> ExactRun:
    """``decompose_exact`` split into its public steps, one span each."""
    n = problem.n
    with tracer.span("exact.eligibility"):
        eligible = unit_points_feasible(problem)
    if not eligible:
        raise IneligibleInstanceError("instance is not decomposition-eligible")
    precision = epsilon / ceil_sqrt(n) if overall else epsilon
    slack = minimum_slack(n, precision)
    target = xstar.scale(Fraction(1) / problem.alpha)
    with tracer.span("epsilon.decompose"):
        phase1 = decompose_epsilon(target, problem.extended_verifier(), precision)
    with tracer.span("exact.dominate"):
        dominating = build_dominating(phase1.result, target, slack)
    scaled_target = target.scale(Fraction(1) / (1 + slack))
    with tracer.span("exact.reduce"):
        result, steps = reduce_to_exact(dominating, scaled_target, problem)
        # decompose_exact re-checks the barycenter here; do the same work.
        if result.barycenter() != scaled_target:
            raise WrongOutput("reduction finished off the scaled target")
    return ExactRun(scaled_target, slack, phase1, dominating, result, steps)


def serve(
    request: Request,
    tracer=NULL_TRACER,
    load: Callable[[str], PackingProblem] = load_instance,
) -> Outcome:
    """Run one request and time it until it returned or stopped."""
    if tracer.enabled:
        tracer.request = request.rid
    problem = None
    outcome = Outcome(request, 0.0)
    started = time.perf_counter()
    try:
        with tracer.span("request"):
            with tracer.span("problems.load"):
                problem = MeteredProblem(load(request.instance), QUERY_BUDGET, tracer)
            with tracer.span("problems.relax"):
                if request.mu is not None:
                    xstar = problem.relaxed_optimum(request.mu)
                else:
                    xstar = request.xstar
            overall = request.mode == "exact-overall"
            phase_start = time.perf_counter()
            if tracer.enabled:
                run = _decompose_expanded(problem, xstar, request.epsilon, overall, tracer)
            else:
                run = decompose_exact(problem, xstar, request.epsilon, overall=overall)
            elapsed = time.perf_counter() - phase_start
            with tracer.span("problems.validate"):
                verification = validate_decomposition(problem, run.result, run.scaled_target)
            with tracer.span("cli.sample"):
                samples = tuple(sample(run.result, SAMPLE_COUNT, request.sample_seed))
            with tracer.span("cli.report"):
                outcome.report = DecompositionReport(
                    problem_kind=problem.kind,
                    n=problem.n,
                    alpha=problem.alpha,
                    mode=request.mode,
                    epsilon=request.epsilon,
                    slack=run.slack,
                    mu=request.mu,
                    xstar=xstar,
                    target=run.scaled_target,
                    support=run.result,
                    stats=RunStats(
                        epsilon_iterations=run.phase1.iterations,
                        final_squared_residual=run.phase1.final_squared_residual,
                        support_size_epsilon=run.phase1.result.support_size,
                        exact_steps=run.exact_steps,
                        support_size_dominating=run.dominating.support_size,
                        support_size_final=run.result.support_size,
                        wall_time_seconds=elapsed,
                    ),
                    verification=verification,
                    samples=samples,
                )
                try:
                    outcome.text = outcome.report.to_json()
                except ValueError:
                    # str() of an integer past the interpreter's digit limit.
                    outcome.failure = REPORT_SERIALIZATION
    except QueryBudgetExceeded:
        outcome.failure = BUDGET_CUT
    except VerifierViolation:
        outcome.failure = VERIFIER_VIOLATION
    except DecompositionError:
        outcome.failure = DECOMPOSITION_ERROR
    outcome.latency = time.perf_counter() - started
    if problem is not None:
        outcome.queries = problem.verifier.answered
    return outcome


# ---------------------------------------------------------------------------
# Untimed checks


_WALL_TIME = re.compile(r'"wall_time_seconds": [^,\n}]*')


def stable_text(outcome: Outcome) -> str:
    """The report text without its wall time, the one field that may vary."""
    return _WALL_TIME.sub("", outcome.text)


def report_digest(outcome: Outcome) -> str:
    """Failure kind, or sha256 of the report with its wall time removed."""
    if outcome.text is None:
        return outcome.failure
    return hashlib.sha256(stable_text(outcome).encode()).hexdigest()


def check_outcome(outcome: Outcome) -> None:
    """Raise :class:`WrongOutput` if a finished request broke a guarantee."""
    report = outcome.report
    if report is None:
        return
    rid = outcome.request.rid
    if not report.verification.passed:
        raise WrongOutput(f"request {rid}: validation failed: {report.verification.failures[0]}")
    n = report.n
    precision = report.epsilon / ceil_sqrt(n) if report.mode == "exact-overall" else report.epsilon
    if report.slack != minimum_slack(n, precision):
        raise WrongOutput(f"request {rid}: slack differs from ceil(sqrt(n)) * precision")
    expected = report.xstar.scale(Fraction(1) / (report.alpha * (1 + report.slack)))
    if report.target != expected or report.support.barycenter() != expected:
        raise WrongOutput(f"request {rid}: barycenter differs from xstar / (alpha * (1 + s))")
    if report.mu is not None:
        expected_value = sum(
            (w * report.mu.dot(p.as_vector()) for p, w in report.support.items()), Fraction(0)
        )
        if expected_value != report.mu.dot(expected):
            raise WrongOutput(f"request {rid}: expected objective differs from mu . target")
    if outcome.text is not None and DecompositionReport.from_json(outcome.text) != report:
        raise WrongOutput(f"request {rid}: report does not round-trip through from_json")


def weight_bits(report: DecompositionReport) -> int:
    """Bit size of the largest final-weight denominator."""
    return max(w.denominator.bit_length() for _, w in report.support.items())
