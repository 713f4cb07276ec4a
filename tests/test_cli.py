import dataclasses
import hashlib
import json
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from convdecomp import BinaryPoint, ConvexCombination, RVector, load_instance
from convdecomp import cli
from convdecomp.cli import DecompositionReport, RunConfig, RunStats, main, run, sample
from convdecomp.problems import ExplicitVerifier, ValidationReport
from helpers import OriginVerifier, reference_sample, reference_to_json

F = Fraction
KNAPSACK_235 = {"problem": "knapsack", "weights": ["2", "3", "4"], "capacity": "5"}


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"problem": "explicit", "n": 2, "points": [[1, 1]]}))
    return str(path)


@pytest.fixture
def knapsack_file(tmp_path):
    path = tmp_path / "knapsack.json"
    path.write_text(
        json.dumps({"problem": "knapsack", "weights": ["2", "3", "4"], "capacity": "5"})
    )
    return str(path)


PRIMES = (3, 2**31 - 1, 2**61 - 1, 2**89 - 1, 2**127 - 1, 2**521 - 1, 2**607 - 1)
DENOMINATORS = st.one_of(
    st.integers(0, 70).map(lambda j: 2**j),
    st.sampled_from(PRIMES),
    st.lists(st.sampled_from(PRIMES), min_size=2, max_size=4).map(math.prod),
)
CUBE_3 = [BinaryPoint([a, b, c]) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


@st.composite
def combinations(draw):
    """Up to 7 weights: the gaps between random cuts of [0, 1], each cut a
    fraction over a drawn denominator."""
    cuts = set()
    for d in draw(st.lists(DENOMINATORS, max_size=6)):
        if d > 1:
            cuts.add(F(draw(st.integers(1, d - 1)), d))
    bounds = [F(0), *sorted(cuts), F(1)]
    points = draw(st.permutations(CUBE_3))
    return ConvexCombination(
        {p: hi - lo for p, lo, hi in zip(points, bounds, bounds[1:])}
    )


def make_report(
    support,
    samples=(),
    mode="exact",
    mu=True,
    verification=None,
    numbers=(F(3, 7), F(-1, 2), F(10**30, 3)),
    wall_time=0.125,
):
    """A report with hand-picked fields; ``mu=False`` stands for an
    ``--xstar`` run, and ``epsilon`` mode leaves the exact-only fields out."""
    n = support.dim
    exact = mode != "epsilon"
    vector = RVector(numbers[k % len(numbers)] for k in range(n))
    return DecompositionReport(
        problem_kind="knapsack",
        n=n,
        alpha=F(2),
        mode=mode,
        epsilon=F(1, 10),
        slack=numbers[0] if exact else None,
        mu=vector if mu else None,
        xstar=vector,
        target=vector.scale(F(1, 2)),
        support=support,
        stats=RunStats(
            epsilon_iterations=4,
            final_squared_residual=numbers[-1],
            support_size_epsilon=3,
            exact_steps=2 if exact else None,
            support_size_dominating=5 if exact else None,
            support_size_final=support.support_size,
            wall_time_seconds=wall_time,
        ),
        verification=verification,
        samples=tuple(samples),
    )


AWKWARD_FAILURES = ('said "no"', "back\\slash", "naïve ≤ ε — ✓ 🙂", "two\nlines", "")
POINT_PAIR = (BinaryPoint([1, 0, 1]), BinaryPoint([0, 1, 0]))


@st.composite
def reports(draw):
    """Reports of every mode, with or without ``mu`` and verification, whose
    draws repeat points, reuse support points and add equal copies of them."""
    n = draw(st.integers(1, 5))
    points = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(BinaryPoint)
    support = draw(st.lists(points, min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
    rationals = st.fractions(min_value=-(10**40), max_value=10**40, max_denominator=10**40)
    failures = st.lists(st.sampled_from(AWKWARD_FAILURES) | st.text(max_size=12), max_size=3)
    return make_report(
        ConvexCombination({p: F(w, sum(weights)) for p, w in zip(support, weights)}),
        samples=draw(st.lists(st.sampled_from(support) | points, max_size=12)),
        mode=draw(st.sampled_from(cli.MODES)),
        mu=draw(st.booleans()),
        verification=draw(st.none() | failures.map(lambda f: ValidationReport(tuple(f)))),
        numbers=tuple(draw(st.lists(rationals, min_size=1, max_size=4))),
        wall_time=draw(st.floats(0, 1e9, allow_nan=False)),
    )


class TestSample:
    @settings(deadline=None)
    @given(lam=combinations(), seed=st.integers(0, 2**64))
    @example(
        lam=ConvexCombination(
            {
                CUBE_3[0]: F(1, 2**70),
                CUBE_3[5]: F(1, (2**521 - 1) * (2**607 - 1)),
                CUBE_3[7]: 1 - F(1, 2**70) - F(1, (2**521 - 1) * (2**607 - 1)),
            }
        ),
        seed=501,
    )
    def test_matches_fraction_inversion(self, lam, seed):
        assert sample(lam, 100, seed) == reference_sample(lam, 100, seed)

    def test_draws_on_cumulative_boundaries(self, monkeypatch):
        class Words:
            def __init__(self, seed):
                self._words = iter([0, 2**63, 3 * 2**62, 2**64 - 1])

            def getrandbits(self, k):
                assert k == 64
                return next(self._words)

        monkeypatch.setattr(cli.random, "Random", Words)
        a, b, c = BinaryPoint([0, 0]), BinaryPoint([0, 1]), BinaryPoint([1, 0])
        lam = ConvexCombination({a: F(1, 2), b: F(1, 4), c: F(1, 4)})
        assert reference_sample(lam, 4, seed=0) == [a, b, c, c]
        assert sample(lam, 4, seed=0) == [a, b, c, c]

    def test_point_mass_always_draws_that_point(self):
        lam = ConvexCombination.point_mass(BinaryPoint.origin(2))
        draws = sample(lam, 50, seed=9)
        assert all(p == BinaryPoint.origin(2) for p in draws)

    def test_two_point_frequencies(self):
        lam = ConvexCombination(
            {BinaryPoint([1, 0]): F(1, 2), BinaryPoint([0, 0]): F(1, 2)}
        )
        draws = sample(lam, 10_000, seed=12345)
        freq = sum(1 for p in draws if p == BinaryPoint([1, 0])) / 10_000
        assert abs(freq - 0.5) <= 0.02

    def test_seed_determines_sequence(self):
        lam = ConvexCombination(
            {BinaryPoint([1, 0]): F(1, 3), BinaryPoint([0, 1]): F(2, 3)}
        )
        assert sample(lam, 200, seed=7) == sample(lam, 200, seed=7)
        assert sample(lam, 200, seed=7) != sample(lam, 200, seed=8)

    def test_count_validated(self):
        lam = ConvexCombination.point_mass(BinaryPoint.origin(1))
        assert sample(lam, 0, seed=1) == []
        with pytest.raises(ValueError):
            sample(lam, -1, seed=1)


class TestRun:
    def test_exact_mode_on_cube(self, cube_file):
        config = RunConfig(
            instance=cube_file,
            epsilon=F(1, 10),
            mu=RVector([1, 1]),
            verify=True,
            sample_count=25,
            rng_seed=3,
        )
        report = run(config)
        assert report.xstar == RVector([1, 1])
        assert report.target == RVector([1, 1]).scale(F(1) / (1 + F(1, 5)))
        assert report.support.barycenter() == report.target
        assert report.verification.passed
        assert len(report.samples) == 25
        assert all(p.dim == 2 for p in report.samples)

    def test_expected_objective_identity_over_report_numbers(self, knapsack_file):
        config = RunConfig(
            instance=knapsack_file,
            epsilon=F(1, 10),
            mu=RVector([3, 3, 4]),
            verify=True,
        )
        report = run(config)
        assert report.verification.passed
        expected = sum(
            (w * report.mu.dot(p.as_vector()) for p, w in report.support.items()),
            F(0),
        )
        assert expected == report.mu.dot(report.target)

    def test_zero_objective_gives_origin_point_mass(self, knapsack_file):
        config = RunConfig(
            instance=knapsack_file, epsilon=F(1, 2), mu=RVector([0, 0, 0])
        )
        report = run(config)
        assert report.support == ConvexCombination.point_mass(BinaryPoint.origin(3))

    def test_epsilon_mode(self, cube_file):
        config = RunConfig(
            instance=cube_file,
            epsilon=F(1, 10),
            xstar=RVector(["1/2", "1/2"]),
            mode="epsilon",
            verify=True,
        )
        report = run(config)
        assert report.slack is None
        assert report.stats.exact_steps is None
        assert report.target == RVector(["1/2", "1/2"])
        assert report.verification.passed

    def test_config_validation(self, cube_file):
        with pytest.raises(ValueError):
            RunConfig(instance=cube_file, epsilon=F(0), mu=RVector([1, 1]))
        with pytest.raises(ValueError):
            RunConfig(instance=cube_file, epsilon=F(1, 2))
        with pytest.raises(ValueError):
            RunConfig(
                instance=cube_file,
                epsilon=F(1, 2),
                mu=RVector([1, 1]),
                xstar=RVector([1, 1]),
            )
        with pytest.raises(ValueError):
            RunConfig(
                instance=cube_file, epsilon=F(1, 2), mu=RVector([1, 1]), mode="fast"
            )


class TestReportRoundTrip:
    def test_json_round_trip_is_identity(self, knapsack_file):
        config = RunConfig(
            instance=knapsack_file,
            epsilon=F(1, 10),
            mu=RVector(["3", "3", "4"]),
            verify=True,
            sample_count=10,
            rng_seed=11,
        )
        report = run(config)
        assert DecompositionReport.from_json(report.to_json()) == report

    @pytest.mark.parametrize(
        "mode, flags, verify, count",
        [
            ("epsilon", {"mu": RVector([3, 3, 4])}, True, 10),
            ("exact-overall", {"mu": RVector([3, 3, 4])}, True, 10),
            ("exact", {"xstar": RVector(["1/2", "1/2", "1/2"])}, True, 10),
            ("exact", {"mu": RVector([5, 2, 7])}, False, 10),
            ("exact", {"mu": RVector([5, 2, 7])}, True, 0),
        ],
        ids=["epsilon", "exact-overall", "xstar", "no-verify", "no-samples"],
    )
    def test_round_trip_across_runs(self, knapsack_file, mode, flags, verify, count):
        config = RunConfig(
            instance=knapsack_file,
            epsilon=F(1, 10),
            mode=mode,
            verify=verify,
            sample_count=count,
            rng_seed=11,
            **flags,
        )
        report = run(config)
        assert DecompositionReport.from_json(report.to_json()) == report

    def test_determinism_modulo_wall_time(self, knapsack_file):
        from dataclasses import replace

        config = RunConfig(
            instance=knapsack_file,
            epsilon=F(1, 10),
            mu=RVector([5, 2, 7]),
            verify=True,
            sample_count=40,
            rng_seed=21,
        )
        first = run(config)
        second = run(config)
        zero = replace(first.stats, wall_time_seconds=0.0)
        assert replace(first, stats=zero) == replace(
            second, stats=replace(second.stats, wall_time_seconds=0.0)
        )


class TestRunStats:
    STATS = RunStats(
        epsilon_iterations=4,
        final_squared_residual=F(1, 300),
        support_size_epsilon=3,
        exact_steps=None,
        support_size_dominating=None,
        support_size_final=3,
        wall_time_seconds=0.5,
    )

    def test_round_trip_without_exact_steps(self):
        assert RunStats.from_dict(self.STATS.to_dict()) == self.STATS

    def test_unknown_key_is_ignored(self):
        data = dict(self.STATS.to_dict(), peak_rss_mb=12)
        assert RunStats.from_dict(data) == self.STATS

    def test_missing_key_raises_key_error(self):
        data = self.STATS.to_dict()
        del data["support_size_epsilon"]
        with pytest.raises(KeyError, match="support_size_epsilon"):
            RunStats.from_dict(data)


JSON_TEXT = st.text() | st.sampled_from(AWKWARD_FAILURES)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**200).flatmap(lambda big: st.sampled_from([big, -big]))
    | JSON_TEXT
)
# Flat lists of bits, of other ints and of strings take the writer's fast
# paths, so they are drawn directly as well as by the recursion.
JSON_LEAVES = (
    JSON_SCALARS
    | st.lists(st.integers(0, 1), min_size=1)
    | st.lists(st.integers(-3, 300), min_size=1)
    | st.lists(st.booleans() | st.integers(0, 1), min_size=1)
    | st.lists(JSON_TEXT, min_size=1)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children) | st.dictionaries(JSON_TEXT, children),
    max_leaves=30,
)


@st.composite
def shared_json(draw):
    """A list of values drawn from a small pool, so equal lists are one
    object reached many times, as the report's sampled rows are."""
    pool = draw(st.lists(JSON_VALUES, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), max_size=20))


SHARED_ROW = [0, 1, 1]


class TestReportText:
    @settings(deadline=None)
    @given(value=JSON_VALUES | shared_json())
    @example(value=[True, False, True])
    @example(value=[0, 1, 2])
    @example(value=[])
    @example(value=[[]])
    @example(value={"row": SHARED_ROW, "rows": [SHARED_ROW, [SHARED_ROW]], "deep": [[[SHARED_ROW]]]})
    def test_writer_matches_the_standard_library(self, value):
        out = []
        cli._write_json(value, "", {}, out)
        assert "".join(out) == json.dumps(value, indent=2)

    def test_text_is_built_in_one_copy(self):
        """A writer that joined the samples before the final join would
        hold the text twice: 2x its length or more."""
        rng = random.Random(17)
        support = [BinaryPoint([rng.randint(0, 1) for _ in range(512)]) for _ in range(3)]
        report = make_report(
            ConvexCombination({p: F(1, 3) for p in support}),
            samples=[rng.choice(support) for _ in range(1000)],
        )
        tracemalloc.start()
        try:
            text = report.to_json()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text == reference_to_json(report)
        assert peak < 1.5 * len(text)

    @settings(deadline=None)
    @given(report=reports())
    @example(
        report=make_report(
            ConvexCombination.point_mass(BinaryPoint([1])),
            mode="epsilon",
            mu=False,
            verification=ValidationReport(AWKWARD_FAILURES),
        )
    )
    @example(
        report=make_report(
            ConvexCombination.point_mass(POINT_PAIR[0]),
            samples=[POINT_PAIR[0]] * 3,
            mode="exact-overall",
            verification=ValidationReport(),
        )
    )
    @example(
        report=make_report(
            ConvexCombination({POINT_PAIR[0]: F(1, 3), POINT_PAIR[1]: F(2, 3)}),
            samples=[POINT_PAIR[1], BinaryPoint([0, 1, 0]), POINT_PAIR[0], POINT_PAIR[1]],
            mu=False,
        )
    )
    def test_matches_reference_encoder(self, report):
        assert report.to_json() == reference_to_json(report)

    def test_out_file_is_reference_text(self, knapsack_file, tmp_path, monkeypatch):
        reports_seen = []

        def recording_run(config):
            reports_seen.append(run(config))
            return reports_seen[-1]

        monkeypatch.setattr(cli, "run", recording_run)
        out = tmp_path / "report.json"
        rc = main(
            [
                "--instance", knapsack_file,
                "--mu", "3,3,4",
                "--epsilon", "1/10",
                "--verify",
                "--sample", "50",
                "--out", str(out),
            ]
        )
        assert rc == 0
        (report,) = reports_seen
        assert out.read_text(encoding="utf-8") == reference_to_json(report) + "\n"


class TestMain:
    def test_end_to_end_exact(self, cube_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            [
                "--instance", cube_file,
                "--mu", "1,1",
                "--epsilon", "1/10",
                "--mode", "exact",
                "--verify",
                "--sample", "5",
                "--seed", "42",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = DecompositionReport.from_json(out.read_text())
        assert report.support.barycenter() == report.target

    def test_report_on_stdout_without_out(self, cube_file, capsys):
        rc = main(["--instance", cube_file, "--mu", "1,0", "--epsilon", "1/2"])
        assert rc == 0
        report = DecompositionReport.from_json(capsys.readouterr().out)
        assert report.mode == "exact"

    def test_exact_overall_mode(self, knapsack_file, capsys):
        rc = main(
            [
                "--instance", knapsack_file,
                "--mu", "3,3,4",
                "--epsilon", "1/2",
                "--mode", "exact-overall",
                "--verify",
            ]
        )
        assert rc == 0
        report = DecompositionReport.from_json(capsys.readouterr().out)
        assert report.slack == F(1, 2)

    def test_ineligible_instance_exits_2(self, tmp_path, capsys):
        path = tmp_path / "heavy.json"
        path.write_text(
            json.dumps({"problem": "knapsack", "weights": ["2", "7"], "capacity": "5"})
        )
        rc = main(["--instance", str(path), "--mu", "1,1", "--epsilon", "1/2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unit vector infeasible" in err

    def test_missing_file_exits_4(self, tmp_path, capsys):
        rc = main(
            ["--instance", str(tmp_path / "nope.json"), "--mu", "1", "--epsilon", "1"]
        )
        assert rc == 4

    def test_bad_json_exits_4(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["--instance", str(path), "--mu", "1", "--epsilon", "1"])
        assert rc == 4

    def test_bad_mu_exits_4(self, cube_file, capsys):
        rc = main(["--instance", cube_file, "--mu", "1,zebra", "--epsilon", "1/2"])
        assert rc == 4
        rc = main(["--instance", cube_file, "--mu", "1,-1", "--epsilon", "1/2"])
        assert rc == 4

    def test_missing_required_flag_exits_4(self, cube_file, capsys):
        rc = main(["--instance", cube_file, "--epsilon", "1/2"])
        assert rc == 4

    @pytest.mark.parametrize(
        "data, mu",
        [
            ({"problem": "explicit", "n": True, "points": [[1]]}, "1"),
            ({"problem": "knapsack", "weights": [True, "2"], "capacity": "5"}, "1,1"),
            ({"problem": "knapsack", "weights": ["2", "3"], "capacity": True}, "1,1"),
            ({"problem": "explicit", "n": 2, "points": [[True, False], [False, True]]}, "1,1"),
        ],
        ids=["n", "weight", "capacity", "bits"],
    )
    def test_json_boolean_in_instance_exits_4(self, tmp_path, capsys, data, mu):
        path = tmp_path / "booleans.json"
        path.write_text(json.dumps(data))
        rc = main(["--instance", str(path), "--mu", mu, "--epsilon", "1/2"])
        assert rc == 4

    @pytest.mark.parametrize("bits", ["0.99999999999999999, 1e0", "1.0, 1", "0, 0.0"])
    def test_json_float_bit_in_instance_exits_4(self, tmp_path, capsys, bits):
        # Raw text: json.dumps would print the parsed float, 1.0, not the literal.
        path = tmp_path / "floats.json"
        path.write_text('{"problem": "explicit", "n": 2, "points": [[%s]]}' % bits)
        rc = main(["--instance", str(path), "--xstar", "1/2,1/2", "--epsilon", "1"])
        assert rc == 4
        assert "point bits must be the integers 0 or 1" in capsys.readouterr().err

    def test_failed_exact_verification_exits_2_with_report(
        self, cube_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            cli,
            "validate_decomposition",
            lambda *args, **kwargs: ValidationReport(("forced",)),
        )
        out = tmp_path / "report.json"
        rc = main(
            [
                "--instance", cube_file,
                "--mu", "1,1",
                "--epsilon", "1/2",
                "--verify",
                "--out", str(out),
            ]
        )
        assert rc == 2
        assert "verification failure: forced" in capsys.readouterr().err
        assert json.loads(out.read_text())["verification"]["passed"] is False

    def test_failed_epsilon_verification_exits_2_with_report(
        self, cube_file, tmp_path, capsys, monkeypatch
    ):
        real = cli.decompose_epsilon

        def misreported(*args, **kwargs):
            phase1 = real(*args, **kwargs)
            return dataclasses.replace(
                phase1, final_squared_residual=phase1.final_squared_residual + 1
            )

        monkeypatch.setattr(cli, "decompose_epsilon", misreported)
        out = tmp_path / "report.json"
        rc = main(
            [
                "--instance", cube_file,
                "--mu", "1,1",
                "--epsilon", "1/2",
                "--mode", "epsilon",
                "--verify",
                "--out", str(out),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "verification failure: recomputed squared residual" in err
        assert json.loads(out.read_text())["verification"]["passed"] is False

    @pytest.mark.parametrize(
        "data, xstar, epsilon, rc, message",
        [
            (KNAPSACK_235, "2,2,2", "1/2", 2, "outside the relaxation"),
            (KNAPSACK_235, "1,1,1", "1/10", 2, "outside the relaxation"),
            (KNAPSACK_235, "1,1,1", "1/2", 2, "outside the relaxation"),
            (KNAPSACK_235, "2,0,0", "1/2", 2, "outside the relaxation"),
            (
                {"problem": "explicit", "n": 3, "points": [[1, 1, 0], [0, 0, 1]]},
                "1,1,1",
                "1/2",
                3,
                "the verifier or the supplied xstar",
            ),
        ],
        ids=["box", "capacity-deep", "capacity", "box-single", "hull"],
    )
    def test_xstar_outside_relaxation_is_blamed_on_xstar(
        self, tmp_path, capsys, data, xstar, epsilon, rc, message
    ):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(data))
        rc_seen = main(["--instance", str(path), "--xstar", xstar, "--epsilon", epsilon])
        assert rc_seen == rc
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target", ["missing-dir/report.json", "."], ids=["no-dir", "dir"]
    )
    def test_unwritable_out_exits_4(self, cube_file, tmp_path, capsys, target):
        out = str(tmp_path / target)
        rc = main(["--instance", cube_file, "--mu", "1,1", "--epsilon", "1/2", "--out", out])
        assert rc == 4
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_instance_exits_4(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"problem": "knapsack", "weights": ["2"], "capacity": "5\xff"}')
        rc = main(["--instance", str(path), "--mu", "1", "--epsilon", "1/2"])
        assert rc == 4
        assert capsys.readouterr().err.startswith("error: ")

    def test_nested_instance_exits_4(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 1001)
        rc = main(["--instance", str(path), "--mu", "1", "--epsilon", "1/2"])
        assert rc == 4
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["--mu", "1,1", "--epsilon", "1e-999999999"],
            ["--mu", "1e999999999,1", "--epsilon", "1/2"],
            ["--xstar", "1E-999999999,0", "--epsilon", "1/2"],
        ],
        ids=["epsilon", "mu", "xstar"],
    )
    def test_exponent_notation_flag_exits_4(self, cube_file, capsys, args):
        assert main(["--instance", cube_file, *args]) == 4
        assert "exponent notation" in capsys.readouterr().err

    def test_exponent_notation_weight_exits_4(self, tmp_path, capsys):
        path = tmp_path / "exponent.json"
        path.write_text(
            json.dumps({"problem": "knapsack", "weights": ["1e999999999"], "capacity": "5"})
        )
        assert main(["--instance", str(path), "--mu", "1", "--epsilon", "1/2"]) == 4
        assert "exponent notation" in capsys.readouterr().err

    def test_dimension_mismatch_exits_2(self, cube_file, capsys):
        rc = main(["--instance", cube_file, "--mu", "1,1,1", "--epsilon", "1/2"])
        assert rc == 2

    def test_broken_verifier_exits_3_with_certificate(
        self, cube_file, capsys, monkeypatch
    ):
        import convdecomp.problems as problems_module

        real_load = problems_module.load_instance

        def load_with_broken_verifier(source):
            problem = real_load(source)
            monkeypatch.setattr(
                type(problem), "verifier", property(lambda self: OriginVerifier(self.n))
            )
            return problem

        monkeypatch.setattr(cli, "load_instance", load_with_broken_verifier)
        rc = main(["--instance", cube_file, "--mu", "1,1", "--epsilon", "1/10"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "certificate objective" in err

    @pytest.mark.parametrize("mode", ["epsilon", "exact", "exact-overall"])
    def test_seven_dimensional_hull_target_finishes(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        # The paper's segment step doubles the denominator bits on every pass
        # on this target and did not finish in practice.  A cap on verifier
        # answers, not a clock, makes a relapse fail fast.
        rows = [
            [0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1, 0], [0, 0, 1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 1, 0, 0], [0, 1, 0, 1, 0, 0, 1],
            [1, 0, 0, 0, 0, 0, 0], [1, 0, 0, 1, 0, 0, 1],
        ]
        path = tmp_path / "n7.json"
        path.write_text(json.dumps({"problem": "explicit", "n": 7, "points": rows}))

        class TooManyAnswers(Exception):
            pass

        answers = []
        real_query = ExplicitVerifier.query

        def capped_query(self, mu):
            if len(answers) == 14:
                raise TooManyAnswers
            answers.append(mu)
            return real_query(self, mu)

        monkeypatch.setattr(ExplicitVerifier, "query", capped_query)
        out = tmp_path / "report.json"
        rc = main(
            ["--instance", str(path), "--xstar", "0,17/24,7/24,17/24,0,0,3/8",
             "--epsilon", "1/10", "--mode", mode, "--verify", "--out", str(out)]
        )
        assert rc == 0
        report = DecompositionReport.from_json(out.read_text())
        assert report.verification.passed
        assert report.stats.epsilon_iterations == len(answers)

    def test_all_ones_point_at_n_40_loads_and_decomposes(self, tmp_path, capsys):
        # Enumerating this point's downward closure would take 2^40 steps.
        path = tmp_path / "ones40.json"
        data = {"problem": "explicit", "n": 40, "points": [[1] * 40]}
        path.write_text(json.dumps(data, separators=(",", ":")))
        assert len(path.read_bytes()) < 140
        problem = load_instance(str(path))
        assert problem.feasible(BinaryPoint([1] * 40))
        out = tmp_path / "report.json"
        mu = ",".join(str(k % 3) for k in range(40))
        rc = main(
            [
                "--instance", str(path),
                "--mu", mu,
                "--epsilon", "1",
                "--verify",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = DecompositionReport.from_json(out.read_text())
        assert report.verification.passed

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="interpreter has no int-to-string limit",
    )
    def test_weight_beyond_int_str_limit_is_written(
        self, cube_file, tmp_path, capsys, monkeypatch
    ):
        q = 10**5001 + 1
        heavy = ConvexCombination(
            {BinaryPoint([1, 0]): F(1, q), BinaryPoint([0, 0]): 1 - F(1, q)}
        )
        config = RunConfig(instance=cube_file, epsilon=F(1, 2), mu=RVector([1, 0]))
        report = dataclasses.replace(run(config), support=heavy)
        monkeypatch.setattr(cli, "run", lambda config: report)
        limit = sys.get_int_max_str_digits()
        out = tmp_path / "report.json"
        rc = main(
            ["--instance", cube_file, "--mu", "1,0", "--epsilon", "1/2", "--out", str(out)]
        )
        assert rc == 0
        assert sys.get_int_max_str_digits() == limit
        weights = [entry["weight"] for entry in json.loads(out.read_text())["support"]]
        assert max(len(w) for w in weights) > 5000

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="interpreter has no int-to-string limit",
    )
    def test_weight_beyond_int_str_limit_reads_back(
        self, cube_file, tmp_path, capsys, monkeypatch
    ):
        q = 10**5001 + 1
        heavy = ConvexCombination(
            {BinaryPoint([1, 0]): F(1, q), BinaryPoint([0, 0]): 1 - F(1, q)}
        )
        config = RunConfig(instance=cube_file, epsilon=F(1, 2), mu=RVector([1, 0]))
        report = dataclasses.replace(run(config), support=heavy)
        monkeypatch.setattr(cli, "run", lambda config: report)
        out = tmp_path / "report.json"
        rc = main(
            ["--instance", cube_file, "--mu", "1,0", "--epsilon", "1/2", "--out", str(out)]
        )
        assert rc == 0
        limit = sys.get_int_max_str_digits()
        assert DecompositionReport.from_json(out.read_text()) == report
        assert sys.get_int_max_str_digits() == limit


WALL_TIME = re.compile(r'"wall_time_seconds": [^,\n}]*')
EXPLICIT_ROWS = [
    "00000001111001", "10101010010100", "10111110001000", "11001100001111",
    "11101111000011", "11110111010011", "10101000000001", "00100001111000",
    "01001001101010",
]


def _knapsack_96(tmp_path):
    """A seeded n = 96 knapsack file, shaped like the benchmark's, and an
    objective for it."""
    rng = random.Random(96)
    weights = [rng.randint(1, 480) for _ in range(96)]
    path = tmp_path / "knapsack96.json"
    path.write_text(json.dumps({"problem": "knapsack", "weights": weights, "capacity": 480}))
    mu = ",".join(f"{rng.randint(1, 24)}/{rng.randint(1, 4)}" for _ in range(96))
    return str(path), mu


def _explicit_14(tmp_path):
    rows = [[int(b) for b in row] for row in EXPLICIT_ROWS]
    rows += [[int(j == k) for j in range(14)] for k in range(14)]
    path = tmp_path / "explicit14.json"
    path.write_text(json.dumps({"problem": "explicit", "n": 14, "points": rows}))
    xstar = ",".join("4/9" if k == 4 else "1/9" if k == 10 else "0" for k in range(14))
    return str(path), xstar


class TestGoldenReports:
    """Report bytes, wall time aside, pinned by sha256 so that a change to
    the text fails here and not only in the benchmark's digests."""

    @pytest.mark.parametrize(
        "case, digest",
        [
            ("knapsack-exact", "c6650179dc898a4f72931bbbf63995775175ab6eec9ba61064126d153982a394"),
            ("explicit-overall", "d17339854a0bde2b1599dd5591f854dbae4f8a57c23e5a528935c1efdefda9a6"),
            ("knapsack-epsilon", "184f36f90ed83346686ee799c3df0a0da53f9cdaf493f063eab9824768424920"),
        ],
    )
    def test_report_digest(self, tmp_path, capsys, case, digest):
        if case == "explicit-overall":
            path, xstar = _explicit_14(tmp_path)
            args = ["--instance", path, "--xstar", xstar, "--epsilon", "1",
                    "--mode", "exact-overall", "--verify", "--sample", "1000", "--seed", "7"]
        else:
            path, mu = _knapsack_96(tmp_path)
            args = ["--instance", path, "--mu", mu]
            if case == "knapsack-exact":
                args += ["--epsilon", "1/50", "--mode", "exact"]
            else:
                args += ["--epsilon", "1/10", "--mode", "epsilon", "--verify", "--sample", "20"]
        assert main(args) == 0
        text = WALL_TIME.sub("", capsys.readouterr().out)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="interpreter has no int-to-string limit",
)
class TestIntStrLimit:
    """Instance files and flags keep the interpreter's guard against
    quadratic int(str); only reports are written and read without it."""

    @staticmethod
    def _huge():
        return "1" + "0" * sys.get_int_max_str_digits()

    @pytest.mark.parametrize("as_string", [True, False], ids=["string", "json-int"])
    def test_number_past_the_limit_in_an_instance_exits_4(
        self, tmp_path, capsys, as_string
    ):
        weight = self._huge() if as_string else "@"
        text = json.dumps({"problem": "knapsack", "weights": [weight, "1"], "capacity": "5"})
        if not as_string:
            text = text.replace('"@"', self._huge())
        path = tmp_path / "huge.json"
        path.write_text(text)
        limit = sys.get_int_max_str_digits()
        assert main(["--instance", str(path), "--mu", "1,1", "--epsilon", "1/2"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "0" * 100 not in err
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("flag", ["--mu", "--xstar", "--epsilon"])
    def test_number_past_the_limit_in_a_flag_exits_4(self, cube_file, capsys, flag):
        huge = f"1/{self._huge()}"
        args = {"--mu": ["--mu", f"{huge},1", "--epsilon", "1/2"],
                "--xstar": ["--xstar", f"{huge},0", "--epsilon", "1/2"],
                "--epsilon": ["--mu", "1,1", "--epsilon", huge]}[flag]
        assert main(["--instance", cube_file, *args]) == 4
        assert capsys.readouterr().err.startswith(f"error: cannot parse {flag}")

    def test_error_message_does_not_format_a_number_past_the_limit(self, tmp_path, capsys):
        # Outside the hull of {e1, e2}: the gap check fires on pass 0 with a
        # shortfall whose numerator and denominator pass the limit.
        path = tmp_path / "segment.json"
        path.write_text(json.dumps({"problem": "explicit", "n": 2, "points": [[1, 0], [0, 1]]}))
        q = 10 ** (sys.get_int_max_str_digits() // 2 + 10) + 1
        xstar = f"{q - 1}/{q},{q - 1}/{q}"
        rc = main(["--instance", str(path), "--xstar", xstar, "--epsilon", "1/2"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "undershoots the target by <rational of" in err
        assert "certificate objective: " in err
