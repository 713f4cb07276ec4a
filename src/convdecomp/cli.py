"""Batch front end: load an instance, decompose, emit a JSON report.

The report carries every number as an exact rational string, so parsing it
back yields the same values bit for bit.  Sampling from the resulting
distribution lives here rather than in the core: the decomposition's job
ends at the distribution, drawing outcomes from it is application plumbing.

Exit codes: 0 success, 2 validation failure or ineligible instance,
3 verifier-contract violation, 4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import itertools
import json
import math
import random
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import List, Optional, Tuple

from .epsilon import decompose_epsilon
from .errors import (
    DecompositionError,
    InstanceFormatError,
    VerifierGapViolation,
    VerifierViolation,
)
from .exact import decompose_exact
from .geometry import BinaryPoint, ConvexCombination, RVector, rational_text, to_rational
from .problems import (
    ValidationReport,
    load_instance,
    validate_decomposition,
)

_ONE = Fraction(1)
_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFIER = 3
EXIT_USAGE = 4

MODES = ("epsilon", "exact", "exact-overall")


class CLIUsageError(Exception):
    """Bad command line or unreadable input; maps to exit code 4."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline invocation needs."""

    instance: str
    epsilon: Fraction
    mu: Optional[RVector] = None
    xstar: Optional[RVector] = None
    mode: str = "exact"
    verify: bool = False
    sample_count: int = 0
    rng_seed: int = 0
    out: Optional[str] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.sample_count < 0:
            raise ValueError(f"sample count must be >= 0, got {self.sample_count}")
        if (self.mu is None) == (self.xstar is None):
            raise ValueError("exactly one of mu and xstar must be given")


@dataclass(frozen=True)
class RunStats:
    epsilon_iterations: int
    final_squared_residual: Fraction
    support_size_epsilon: int
    exact_steps: Optional[int]
    support_size_dominating: Optional[int]
    support_size_final: int
    wall_time_seconds: float

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["final_squared_residual"] = str(self.final_squared_residual)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunStats":
        values = {f.name: data[f.name] for f in fields(cls)}
        values["final_squared_residual"] = to_rational(values["final_squared_residual"])
        return cls(**values)


def _vector_to_strings(v: Optional[RVector]) -> Optional[List[str]]:
    """Each component as ``str(Fraction)`` writes it: "p/q" in lowest terms,
    or "p" when q is 1."""
    if v is None:
        return None
    den = v.denominator
    texts = []
    for c in v.numerators:
        common = math.gcd(c, den)
        if common == den:
            texts.append(str(c // den))
        else:
            texts.append(f"{c // common}/{den // common}")
    return texts


def _vector_from_strings(data) -> Optional[RVector]:
    return None if data is None else RVector(data)


def _write_json(value, pad: str, seen: dict, out: List[str]) -> None:
    """Append ``json.dumps(value, indent=2)`` to ``out`` as it reads nested
    ``len(pad)`` spaces deep.

    A JSON string holds no raw newline, so nesting only adds ``pad`` after
    every newline.  Dicts and lists of containers are walked; any other value
    is encoded once and laid out once per depth it appears at.  A value met
    again, by ``id``, reuses that text, so a point drawn a thousand times is
    encoded once and appended as that one string; the walked dict keeps
    every value alive, so no ``id`` is reused during the walk.
    """
    inner = pad + "  "
    if isinstance(value, dict) and value:
        opening, closing = "{", "}"
        fields = [(json.dumps(key) + ": ", item) for key, item in value.items()]
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        if set(map(type, value)) == {list}:
            # Rows, such as the samples: one fetch per distinct row, no join.
            texts: dict = {}
            separator, between = "[\n" + inner, ",\n" + inner
            for item in value:
                text = texts.get(id(item))
                if text is None:
                    text = texts[id(item)] = _leaf_json(item, inner, seen)
                out += (separator, text)
                separator = between
            out.append("\n" + pad + "]")
            return
        opening, closing = "[", "]"
        fields = [("", item) for item in value]
    else:
        out.append(_leaf_json(value, pad, seen))
        return
    separator = "\n" + inner
    out.append(opening)
    for label, item in fields:
        out.append(separator + label)
        _write_json(item, inner, seen, out)
        separator = ",\n" + inner
    out.append("\n" + pad + closing)


def _leaf_json(value, pad: str, seen: dict) -> str:
    key = (id(value), pad)
    text = seen.get(key)
    if text is None:
        if id(value) not in seen:
            seen[id(value)] = _flat_items(value)
        items, inner = seen[id(value)], pad + "  "
        if items is None:
            text = json.dumps(value, indent=2).replace("\n", "\n" + pad)
        elif isinstance(items, bytes):  # a bit row: each digit is written in place
            separator = (",\n" + inner).encode()
            row = bytearray((b"0" + separator) * len(items))
            row[:: len(separator) + 1] = items
            text = "[\n" + inner + row[: -len(separator)].decode() + "\n" + pad + "]"
        else:
            text = "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
        seen[key] = text
    return text


def _flat_items(value):
    """C-level item texts of a nonempty flat list of exact ints (digits as
    bytes if all are 0 or 1) or of strings, else None.  Bools are not exact
    ints: ``json.dumps`` writes them as ``true`` and ``false``."""
    kinds = set(map(type, value)) if isinstance(value, list) else None
    if kinds == {int} and {0, 1}.issuperset(value):
        return bytes(value).translate(_BIT_DIGITS)
    if kinds == {int} or kinds == {str}:
        return list(map(str if kinds == {int} else encode_basestring_ascii, value))
    return None


@dataclass(frozen=True)
class DecompositionReport:
    """Full machine-readable outcome of one run."""

    problem_kind: str
    n: int
    alpha: Fraction
    mode: str
    epsilon: Fraction
    slack: Optional[Fraction]
    mu: Optional[RVector]
    xstar: RVector
    target: RVector
    support: ConvexCombination
    stats: RunStats
    verification: Optional[ValidationReport]
    samples: Tuple[BinaryPoint, ...]

    def to_dict(self) -> dict:
        """The report's JSON schema.  Equal points share one bit list, so a
        point drawn many times is one list object referenced many times."""
        rows = {point: list(point.bits) for point in {*self.support, *self.samples}}
        return {
            "problem_kind": self.problem_kind,
            "n": self.n,
            "alpha": str(self.alpha),
            "mode": self.mode,
            "epsilon": str(self.epsilon),
            "slack": None if self.slack is None else str(self.slack),
            "mu": _vector_to_strings(self.mu),
            "xstar": _vector_to_strings(self.xstar),
            "target": _vector_to_strings(self.target),
            "support": [
                {"point": rows[point], "weight": str(weight)}
                for point, weight in self.support.items()
            ],
            "stats": self.stats.to_dict(),
            "verification": (
                None
                if self.verification is None
                else {
                    "passed": self.verification.passed,
                    "failures": list(self.verification.failures),
                }
            ),
            "samples": list(map(rows.__getitem__, self.samples)),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecompositionReport":
        verification = data["verification"]
        return cls(
            problem_kind=data["problem_kind"],
            n=data["n"],
            alpha=to_rational(data["alpha"]),
            mode=data["mode"],
            epsilon=to_rational(data["epsilon"]),
            slack=None if data["slack"] is None else to_rational(data["slack"]),
            mu=_vector_from_strings(data["mu"]),
            xstar=_vector_from_strings(data["xstar"]),
            target=_vector_from_strings(data["target"]),
            support=ConvexCombination(
                (BinaryPoint(entry["point"]), to_rational(entry["weight"]))
                for entry in data["support"]
            ),
            stats=RunStats.from_dict(data["stats"]),
            verification=(
                None
                if verification is None
                else ValidationReport(failures=tuple(verification["failures"]))
            ),
            samples=tuple(BinaryPoint(row) for row in data["samples"]),
        )

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2)``, encoding each shared list once."""
        out: List[str] = []
        _write_json(self.to_dict(), "", {}, out)
        return "".join(out)

    @classmethod
    def from_json(cls, text: str) -> "DecompositionReport":
        with _unlimited_int_digits():
            return cls.from_dict(json.loads(text))


def sample(
    combination: ConvexCombination, count: int, seed: int
) -> List[BinaryPoint]:
    """Draw ``count`` points i.i.d. from the distribution given by the weights.

    Deterministic for a fixed seed: each draw takes 64 generator bits ``k``
    and returns the first point whose cumulative weight exceeds k / 2^64.
    Over the weights' common denominator ``D`` the cumulative weights are
    integers ``C_i``, and ``C_i > k * D / 2^64`` exactly when
    ``C_i > floor(k * D / 2^64)``, so no fraction is needed.
    """
    if count < 0:
        raise ValueError(f"sample count must be >= 0, got {count}")
    points, weights = zip(*combination.items())
    denominator = math.lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (denominator // w.denominator) for w in weights]
    cumulative = list(itertools.accumulate(scaled))
    rng = random.Random(seed)
    return [
        points[bisect.bisect_right(cumulative, rng.getrandbits(64) * denominator >> 64)]
        for _ in range(count)
    ]


def run(config: RunConfig) -> DecompositionReport:
    """Execute one pipeline invocation and assemble its report."""
    problem = load_instance(config.instance)
    given, name = (config.mu, "objective") if config.mu is not None else (config.xstar, "xstar")
    if given.dim != problem.n:
        raise ValueError(
            f"{name} dimension {given.dim} does not match instance dimension {problem.n}"
        )
    xstar = config.xstar
    if config.mu is not None:
        xstar = problem.relaxed_optimum(config.mu)
    elif not problem.relaxation_contains(xstar):
        raise ValueError(
            f"xstar {','.join(str(c) for c in xstar)} is outside the "
            f"relaxation of the {problem.kind} instance"
        )

    started = time.perf_counter()
    if config.mode == "epsilon":
        target = xstar.scale(_ONE / problem.alpha)
        phase1 = decompose_epsilon(
            target, problem.extended_verifier(), config.epsilon
        )
        result = phase1.result
        slack = exact_steps = support_size_dominating = None
        checks = dict(
            epsilon=config.epsilon,
            squared_residual=phase1.final_squared_residual,
        )
    else:
        exact_run = decompose_exact(
            problem,
            xstar,
            config.epsilon,
            overall=(config.mode == "exact-overall"),
        )
        phase1 = exact_run.phase1
        target = exact_run.scaled_target
        result = exact_run.result
        slack = exact_run.slack
        exact_steps = exact_run.exact_steps
        support_size_dominating = exact_run.dominating.support_size
        checks = {}
    elapsed = time.perf_counter() - started
    stats = RunStats(
        epsilon_iterations=phase1.iterations,
        final_squared_residual=phase1.final_squared_residual,
        support_size_epsilon=phase1.result.support_size,
        exact_steps=exact_steps,
        support_size_dominating=support_size_dominating,
        support_size_final=result.support_size,
        wall_time_seconds=elapsed,
    )
    verification = (
        validate_decomposition(problem, result, target, **checks)
        if config.verify
        else None
    )

    samples = tuple(sample(result, config.sample_count, config.rng_seed))
    return DecompositionReport(
        problem_kind=problem.kind,
        n=problem.n,
        alpha=problem.alpha,
        mode=config.mode,
        epsilon=config.epsilon,
        slack=slack,
        mu=config.mu,
        xstar=xstar,
        target=target,
        support=result,
        stats=stats,
        verification=verification,
        samples=samples,
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise CLIUsageError(message)


def _parse_vector(text: str, flag: str) -> RVector:
    try:
        return RVector(part for part in text.split(","))
    except (ValueError, ZeroDivisionError, TypeError) as bad:
        raise CLIUsageError(f"cannot parse {flag} {text!r}: {bad}") from bad


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="decompose",
        description=(
            "Decompose a scaled optimum of a packing relaxation into an exact "
            "convex combination of feasible 0/1 points."
        ),
    )
    parser.add_argument("--instance", required=True, help="path to a JSON instance file")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--mu",
        help="nonnegative objective, comma-separated rationals, e.g. '3,3,4'; "
        "the relaxed optimum is computed from it",
    )
    group.add_argument(
        "--xstar",
        help="use this relaxed optimum directly, comma-separated rationals",
    )
    parser.add_argument(
        "--epsilon", required=True, help="precision of the first phase, e.g. '1/10'"
    )
    parser.add_argument(
        "--mode",
        choices=MODES,
        default="exact",
        help="epsilon: stop after the precision phase; exact: full pipeline; "
        "exact-overall: run the precision phase at epsilon/ceil(sqrt(n)) so "
        "the extra scaling is epsilon itself",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="re-derive all guarantees of the output and fail (exit 2) if any breaks",
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=0,
        metavar="COUNT",
        help="draw COUNT points from the resulting distribution",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for the sample generator"
    )
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    return parser


def parse_config(argv) -> RunConfig:
    args = build_parser().parse_args(argv)
    try:
        epsilon = to_rational(args.epsilon)
    except (ValueError, ZeroDivisionError, TypeError) as bad:
        raise CLIUsageError(f"cannot parse --epsilon {args.epsilon!r}: {bad}") from bad
    mu = _parse_vector(args.mu, "--mu") if args.mu is not None else None
    xstar = _parse_vector(args.xstar, "--xstar") if args.xstar is not None else None
    if mu is not None and min(mu.numerators) < 0:
        raise CLIUsageError("--mu must be nonnegative")
    try:
        return RunConfig(
            instance=args.instance,
            epsilon=epsilon,
            mu=mu,
            xstar=xstar,
            mode=args.mode,
            verify=args.verify,
            sample_count=args.sample,
            rng_seed=args.seed,
            out=args.out,
        )
    except ValueError as bad:
        raise CLIUsageError(str(bad)) from bad


def _emit(report: DecompositionReport, out: Optional[str]) -> None:
    with _unlimited_int_digits():
        text = report.to_json()
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote report to {out}", file=sys.stderr)


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the int-to-string limit of Python 3.10.7+ for the block.

    Exact weights can outgrow it, so reports are written and read without
    it.  Everything else, instance files and flags included, keeps the
    interpreter's guard against quadratic ``int(str)``.  The limit is
    process-wide, so it is restored when the block exits.
    """
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except CLIUsageError as bad:
        print(f"error: {bad}", file=sys.stderr)
        return EXIT_USAGE

    try:
        report = run(config)
    except (InstanceFormatError, OSError) as bad:
        print(f"error: {bad}", file=sys.stderr)
        return EXIT_USAGE
    except VerifierGapViolation as bad:
        print(f"verifier contract violated: {bad}", file=sys.stderr)
        if config.xstar is not None:
            print("at fault: the verifier or the supplied xstar", file=sys.stderr)
        if bad.mu is not None:
            print(
                "certificate objective: "
                + ",".join(map(rational_text, bad.mu)),
                file=sys.stderr,
            )
        return EXIT_VERIFIER
    except VerifierViolation as bad:
        print(f"verifier contract violated: {bad}", file=sys.stderr)
        return EXIT_VERIFIER
    except (DecompositionError, ValueError) as bad:
        print(f"error: {bad}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        _emit(report, config.out)
    except OSError as bad:
        print(f"error: {bad}", file=sys.stderr)
        return EXIT_USAGE
    if report.verification is not None and not report.verification.passed:
        for failure in report.verification.failures:
            print(f"verification failure: {failure}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
