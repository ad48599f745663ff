import contextlib
import hashlib
import io
import json
import math
import signal

import numpy as np
import pytest

from projqp import cli, solvers
from projqp.activeset_qp import IterationLimitError, NumericalError, PreconditionViolated
from projqp.art import art3_solve, extended_art_solve
from projqp.bench import (
    GENERATOR_KINDS,
    TWO_CIRCLES_X0,
    NonPositiveDistance,
    _random_direction,
    compute_measures,
    generate_problem,
    hyperslab_system_from_sets,
    measure_rows_to_csv,
    run_two_circles,
    two_circles_sets,
)
from projqp.convex_sets import (
    Ball,
    Hyperslab,
    problem_from_dict,
    problem_to_dict,
    project_set,
    save_problem,
)
from projqp.linalg import norm
from projqp.solvers import _METHODS, SolveReport

from test_solvers import OVERFLOWED_NORM, disjoint_on_axis


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail the test, rather than hang the suite, if the block runs longer
    than ``seconds``."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TestComputeMeasures:
    def test_first_step_value(self):
        rows = compute_measures([9.23, 2.95])
        assert rows[0].measure1 is None and rows[0].measure2 is None
        assert rows[1].measure1 == pytest.approx(math.log(2.95 / 9.23))
        assert rows[1].measure1 == pytest.approx(-1.14, abs=5e-3)

    def test_geometric_sequence_constant(self):
        rho = 0.37
        dists = [2.0 * rho ** i for i in range(8)]
        rows = compute_measures(dists)
        for r in rows[1:]:
            assert r.measure1 == pytest.approx(math.log(rho))
            assert r.measure2 == pytest.approx(math.log(rho))

    def test_flat_sequence_zero(self):
        rows = compute_measures([1.0, 1.0])
        assert rows[1].measure1 == 0.0
        assert rows[1].measure2 == 0.0

    def test_zero_terminates_table(self):
        rows = compute_measures([1.0, 0.5, 0.0, 0.25])
        assert len(rows) == 2

    def test_negative_rejected(self):
        with pytest.raises(NonPositiveDistance):
            compute_measures([1.0, -0.5])


class TestGenerate:
    def test_balls_contain_witness(self):
        doc = generate_problem("balls-with-common-point", 2, 2, 7)
        sets, x0, extras = problem_from_dict(doc)
        w = np.asarray(extras["witness"])
        for k in sets:
            assert float(np.linalg.norm(w - project_set(k, w))) <= 1e-12

    def test_infeasible_balls_gap(self):
        doc = generate_problem("infeasible-balls", 2, 2, 7)
        sets, _, extras = problem_from_dict(doc)
        b1, b2 = sets
        assert isinstance(b1, Ball) and isinstance(b2, Ball)
        gap = float(np.linalg.norm(b1.center - b2.center))
        assert gap > b1.radius + b2.radius

    def test_hyperslab_witness_margin(self):
        doc = generate_problem("hyperslabs-with-interior", 4, 6, 7)
        sets, _, extras = problem_from_dict(doc)
        system = hyperslab_system_from_sets(sets)
        w = np.asarray(extras["witness"])
        ax = system.a_mat @ w
        norms = np.linalg.norm(system.a_mat, axis=1)
        margins = np.minimum(ax - system.lower, system.upper - ax) / norms
        assert float(np.min(margins)) >= 0.1 - 1e-12

    # sha256 of json.dumps of generated documents.  The benchmark's inputs and
    # ``projqp gen``'s files are such documents, so a change to the generator's
    # arithmetic or to its random stream shows here
    DIGESTS = {
        ("balls-with-common-point", 0, 6, 8):
            "30fed0a39e64170fc4e194a7194d187e7718283104a9478c3eabf09a11239a1f",
        ("balls-with-common-point", 0, 50, 200):
            "2a972979706050cc96baa6eb60ecba7acca5e0509fc18fdd2b3721f706f488e4",
        ("balls-with-common-point", 100, 6, 8):
            "51e9a04b2fa637b45c45d95f6964045264e7501d778dca6a5dac3f23a0fc025c",
        ("balls-with-common-point", 100, 50, 200):
            "26a66080a9e44d1b186cb3bf65fd38993afdaa8e92b8730eb999d716660e098b",
        ("box-plus-ball", 0, 6, 8):
            "6053a9a57b8e0506ba0967afe636edad029b6c728a2640d81c539cff81d32c37",
        ("box-plus-ball", 0, 50, 200):
            "3f9520b20d21f0989d56c0dad4383ef94d2e76c4b44789c03c05c90308a194c5",
        ("box-plus-ball", 100, 6, 8):
            "0e8e3aec51f46f334cc26a6cf3cf3c90a0cc4f48e994af02d3276df73506895d",
        ("box-plus-ball", 100, 50, 200):
            "960567e63060c7074d3136ea773e5c830c857d6ef57a576772e1beb415dc95f3",
        ("hyperslabs-with-interior", 0, 6, 8):
            "11bf83e7f60e688d444fb796e539be6c138df6b979fa98de7506faf38c4f9c6e",
        ("hyperslabs-with-interior", 0, 50, 200):
            "6be60e760828c29fafdbf99c9f353b7922ca9fce8d34cb877e2f6e4a80ab39f0",
        ("hyperslabs-with-interior", 100, 6, 8):
            "3813715b841ff44e6af8a2cbb0281352ffbefe300368f0aef94deed3d0258358",
        ("hyperslabs-with-interior", 100, 50, 200):
            "7ebe110763cba8fc90e1b78776973be063214e4108a2d30aa280b40a881009a1",
        ("infeasible-balls", 0, 6, 8):
            "c9d8005512dfe4b2da85d412501412018f45c7f9b6457729fb19e735f58fe8e6",
        ("infeasible-balls", 0, 50, 200):
            "79cec27e06e1d64f3ea6941cb441b9d30bc6509d71f8ee57b4e54acbae29b3d2",
        ("infeasible-balls", 100, 6, 8):
            "8d42549a064b59ecfca3ae6ce45b57c3d9b0f2064801f4bc2e0e41e4eb14c6af",
        ("infeasible-balls", 100, 50, 200):
            "64b99f11920aafedad715be28e5c3f78c7a6ca361b1b82dcdc4dc6c602dc2fcb",
    }

    @pytest.mark.parametrize("kind, seed, n, count", sorted(DIGESTS))
    def test_documents_are_pinned(self, kind, seed, n, count):
        doc = generate_problem(kind, n, count, seed)
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert digest == self.DIGESTS[kind, seed, n, count]

    @staticmethod
    def reference_slabs(n, count, seed):
        """The hyperslab document drawn with four generator calls per slab,
        one ``Hyperslab`` at a time, as ``generate_problem`` first drew it."""
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1.0, 1.0, n)
        sets = []
        for _ in range(count):
            a = _random_direction(rng, n) * float(rng.uniform(0.5, 2.0))
            mid = float(a.dot(w))
            na = norm(a)
            lo = mid - 0.1 * na - float(rng.uniform(0.0, 1.0))
            up = mid + 0.1 * na + float(rng.uniform(0.0, 1.0))
            sets.append(Hyperslab(a, lo, up))
        x0 = w + _random_direction(rng, n) * float(rng.uniform(2.0, 6.0))
        return problem_to_dict(sets, x0, witness=w, kind="hyperslabs-with-interior", seed=seed)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
    @pytest.mark.parametrize("count", [1, 2, 8, 40, 200])
    def test_slabs_match_the_reference(self, n, count):
        for seed in range(12):
            doc = generate_problem("hyperslabs-with-interior", n, count, seed)
            # one flag, so a failure names the seed without diffing two long texts
            same = json.dumps(doc) == json.dumps(self.reference_slabs(n, count, seed))
            assert same, f"seed {seed}"

    def test_deterministic(self):
        a = generate_problem("balls-with-common-point", 3, 2, 99)
        b = generate_problem("balls-with-common-point", 3, 2, 99)
        assert a == b

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_problem("nonsense", 2, 2, 0)

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    @pytest.mark.parametrize("n", [0, -2, 2.0, True])
    def test_rejects_n_below_one(self, kind, n):
        # n = 0 once redrew a zero-length direction forever
        with time_limit(5), pytest.raises(ValueError, match=r"n must be an integer >= 1, got"):
            generate_problem(kind, n, 2, 0)


    LEAST_COUNT = {"balls-with-common-point": 1, "box-plus-ball": 2,
                   "hyperslabs-with-interior": 1, "infeasible-balls": 2}

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    @pytest.mark.parametrize("below", [1, 6])
    def test_rejects_count_below_least(self, kind, below):
        least = self.LEAST_COUNT[kind]
        count = least - below
        with pytest.raises(ValueError, match=rf"^count must be an integer >= {least} for {kind}, got {count}$"):
            generate_problem(kind, 2, count, 0)

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_least_count_accepted(self, kind):
        doc = generate_problem(kind, 2, self.LEAST_COUNT[kind], 0)
        assert len(doc["sets"]) == self.LEAST_COUNT[kind]


class TestRunTwoCircles:
    def test_rejects_art_methods(self):
        with pytest.raises(ValueError):
            run_two_circles("art3")

    def test_csv_deterministic(self, two_circles_runs):
        _, rows = two_circles_runs["bap-gi"]
        again = run_two_circles("bap-gi")[1]
        assert measure_rows_to_csv(rows) == measure_rows_to_csv(again)

    @pytest.mark.parametrize("method", ["bap-gi", "sip-gi", "map", "dykstra"])
    def test_table_is_the_measures_of_the_report(self, two_circles_runs, method):
        report, rows = two_circles_runs[method]
        table = compute_measures([r.dist for r in report.rows])
        assert len(rows) == len(table) > 10
        for r, t in zip(rows, table):
            assert (r.iteration, r.dist, r.measure1, r.measure2) == (t.iteration, t.dist, t.measure1, t.measure2)


def float_bits(doc):
    """``doc`` with every float replaced by its exact hex form, so that
    equal results mean bit-identical floats (0.0 and -0.0 differ)."""
    if isinstance(doc, float):
        return float.hex(doc)
    if isinstance(doc, dict):
        return {k: float_bits(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [float_bits(v) for v in doc]
    return doc


# every set method on a feasible file, the ART methods on slabs, and an
# infeasible verdict
SOLVE_CASES = [
    *[("balls-with-common-point", m) for m in _METHODS],
    ("hyperslabs-with-interior", "art3"),
    ("hyperslabs-with-interior", "ext-art"),
    ("infeasible-balls", "bap-gi"),
]


class TestCli:
    def test_two_circles_csv(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = cli.main(["two-circles", "--method", "map", "--max-iter", "50", "--out", str(out)])
        assert code == 3  # iteration-limited at 50, honest exit code
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "iter,dist,measure1,measure2,event"
        assert len(lines) >= 50
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "" and first[3] == ""

    def test_two_circles_solved_exit_zero(self, tmp_path):
        code = cli.main(["two-circles", "--method", "bap-gi"])
        assert code == 0

    def test_gen_and_solve_roundtrip(self, tmp_path):
        problem = tmp_path / "p.json"
        assert cli.main(["gen", "--kind", "balls-with-common-point", "--n", "2",
                         "--count", "2", "--seed", "3", "--out", str(problem)]) == 0
        report = tmp_path / "r.json"
        csv_out = tmp_path / "r.csv"
        code = cli.main(["solve", "--problem", str(problem), "--method", "sip-gi",
                         "--tol", "1e-9", "--out", str(csv_out), "--json", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["status"] == "solved"
        assert csv_out.read_text().startswith("iter,dist")

    @pytest.mark.parametrize("case", sorted(OVERFLOWED_NORM))
    def test_solve_with_overflowed_norm_is_not_solved(self, tmp_path, capsys, case):
        problem = tmp_path / "p.json"
        save_problem(problem, OVERFLOWED_NORM[case], np.zeros(2))
        report = tmp_path / "r.json"
        code = cli.main(["solve", "--problem", str(problem), "--method", "map", "--max-iter", "50",
                         "--json", str(report)])
        assert code == cli.EXIT_ITERATION_LIMIT == 3
        doc = json.loads(report.read_text())
        assert doc["status"] == "iteration_limit"
        captured = capsys.readouterr()
        assert captured.err == ""
        # x near 1.6e308 prints in numpy's exponential mode
        x_text = "x = " + np.array2string(np.array(doc["x"]), precision=9) + "\n"
        assert captured.out.split("\n", 1)[1] == x_text and "e+308" in x_text
        assert cli.main(["solve", "--problem", str(problem), "--method", "dykstra"]) == 1
        assert capsys.readouterr().err.splitlines() == ["projqp: error: x has non-finite entries"]

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_gen_writes_the_round_tripped_document(self, tmp_path, kind):
        out = tmp_path / "gen.json"
        assert cli.main(["gen", "--kind", kind, "--n", "7", "--count", "9", "--seed", "12",
                         "--out", str(out)]) == 0
        sets, x0, extras = problem_from_dict(generate_problem(kind, 7, 9, 12))
        save_problem(tmp_path / "saved.json", sets, x0, **extras)
        streamed = io.StringIO()
        json.dump(problem_to_dict(sets, x0, **extras), streamed, indent=2)
        assert out.read_bytes() == (tmp_path / "saved.json").read_bytes()
        assert out.read_text() == streamed.getvalue() + "\n"

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_gen_with_n_below_one_exit_one(self, tmp_path, capsys, kind, n):
        out = tmp_path / "gen.json"
        with time_limit(5):
            code = cli.main(["gen", "--kind", kind, "--n", n, "--count", "2", "--seed", "0",
                             "--out", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE == 1
        assert captured.err.splitlines() == [f"projqp: error: n must be an integer >= 1, got {n}"]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_gen_with_count_below_least_exit_one(self, tmp_path, capsys, kind):
        least = TestGenerate.LEAST_COUNT[kind]
        out = tmp_path / "gen.json"
        code = cli.main(["gen", "--kind", kind, "--n", "3", "--count", str(least - 1), "--seed", "0",
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [
            f"projqp: error: count must be an integer >= {least} for {kind}, got {least - 1}"]
        assert captured.out == "" and not out.exists()

    def test_gen_reports_the_sets_written(self, tmp_path, capsys):
        # infeasible-balls writes two balls whatever the count
        out = tmp_path / "gen.json"
        assert cli.main(["gen", "--kind", "infeasible-balls", "--n", "3", "--count", "7", "--seed", "0",
                         "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out} (infeasible-balls, n=3, count=2, seed=0)\n"
        assert len(json.loads(out.read_text())["sets"]) == 2

    def test_solve_infeasible_exit_code(self, tmp_path):
        problem = tmp_path / "gap.json"
        cli.main(["gen", "--kind", "infeasible-balls", "--n", "2", "--count", "2",
                  "--seed", "1", "--out", str(problem)])
        code = cli.main(["solve", "--problem", str(problem), "--method", "bap-gi",
                         "--max-iter", "500"])
        assert code == 2

    @pytest.mark.parametrize("n", [2, 10])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_haugazeau_on_disjoint_sets_exit_code(self, tmp_path, n, seed):
        problem = tmp_path / "gap.json"
        save_problem(problem, *disjoint_on_axis(n, seed))
        report = tmp_path / "report.json"
        code = cli.main(["solve", "--problem", str(problem), "--method", "haugazeau",
                         "--json", str(report)])
        assert code == cli.EXIT_INFEASIBLE == 2
        doc = json.loads(report.read_text())
        assert doc["status"] == "infeasible" and len(doc["certificate"]["j"]) == 2

    def test_solve_art_on_hyperslab_json(self, tmp_path):
        problem = tmp_path / "slabs.json"
        cli.main(["gen", "--kind", "hyperslabs-with-interior", "--n", "3", "--count", "5",
                  "--seed", "2", "--out", str(problem)])
        assert cli.main(["solve", "--problem", str(problem), "--method", "art3"]) == 0
        assert cli.main(["solve", "--problem", str(problem), "--method", "ext-art"]) == 0

    def test_solve_art_on_text_file(self, tmp_path):
        path = tmp_path / "system.txt"
        path.write_text("2 2\n1.0 0.0\n0.0 1.0\n0.0 0.0\n1.0 1.0\n")
        assert cli.main(["solve", "--problem", str(path), "--method", "art3"]) == 0

    @pytest.mark.parametrize("text", [
        "",
        "2 3\n1.0 0.0\n0.0 1.0\n0.0 0.0\n1.0 1.0\n",
        "2 2\n1.0 0.0\n0.0 1.0\n0.0 0.0\n",
    ])
    def test_solve_malformed_text_file_exit_one(self, tmp_path, capsys, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert cli.main(["solve", "--problem", str(path), "--method", "art3"]) == 1
        assert "projqp: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"sets": [{"type": "hyperslab", "lower": 0, "upper": 1}], "x0": [0.0]}, 'sets[0]: missing "a"'),
        ({"sets": [{"type": "ball", "center": [0.0], "radius": 1.0}]}, 'missing "x0"'),
        ({"sets": [{"type": "ball", "center": [0.0]}], "x0": [0.0]}, 'sets[0]: missing "radius"'),
        ({"sets": {"type": "ball", "center": [0.0], "radius": 1.0}, "x0": [0.0]}, '"sets" must be a list'),
        ([{"type": "ball", "center": [0.0], "radius": 1.0}], "a problem document must be a JSON object"),
        ({"sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
                   {"type": "polyhedron", "c_mat": [[1, 0], [0, 0]], "b": [0, 0]}], "x0": [3.0, 3.0]},
         "sets[1]: polyhedron normals (the columns of c_mat) must be nonzero"),
        ({"sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
                   {"type": "polyhedron", "c_mat": [[1, -1], [0, 0]], "b": [1, 0]}], "x0": [3.0, 3.0]},
         "sets[1]: polyhedron is empty"),
        ({"sets": [{"type": "hyperslab", "a": [1, 0], "lower": "inf", "upper": "inf"},
                   {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}], "x0": [3.0, 3.0]},
         "sets[0]: hyperslab requires lower < inf and upper > -inf"),
        ({"sets": [{"type": "halfspace", "c": [1, 0], "b": "inf"},
                   {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}], "x0": [3.0, 3.0]},
         "sets[0]: halfspace requires b < inf, got inf"),
        ({"sets": [{"type": "halfspace", "c": [1, 0], "b": math.nan}], "x0": [3.0, 3.0]},
         "sets[0]: halfspace requires b < inf, got nan"),
        ({"sets": [{"type": "box", "lower": ["inf", 0], "upper": ["inf", 1]},
                   {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}], "x0": [3.0, 3.0]},
         "sets[0]: box requires lower < inf and upper > -inf"),
        ({"sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 10**400}], "x0": [3.0, 3.0]},
         "sets[0]: int too large to convert to float"),
        ({"sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0}], "x0": [10**400, 3.0]},
         "x0: int too large to convert to float"),
    ], ids=["slab-without-a", "no-x0", "ball-without-radius", "sets-object", "top-level-list",
            "polyhedron-zero-column", "polyhedron-empty", "slab-empty-bounds", "halfspace-b-inf",
            "halfspace-b-nan", "box-empty-bounds", "huge-int-radius", "huge-int-x0"])
    def test_solve_malformed_json_file_exit_one(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", "--problem", str(path), "--method", "map"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"projqp: error: {message}"]

    def test_solve_set_method_on_text_system_exit_one(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text("2 2\n1.0 0.0\n0.0 1.0\n0.0 0.0\n1.0 1.0\n")
        assert cli.main(["solve", "--problem", str(path), "--method", "map"]) == 1
        assert capsys.readouterr().err.splitlines() == ["projqp: error: set-based methods need a JSON problem file"]

    @pytest.mark.parametrize("method", ["art3", "ext-art"])
    def test_solve_art_prints_iterations(self, tmp_path, capsys, method):
        problem = tmp_path / "slabs.json"
        cli.main(["gen", "--kind", "hyperslabs-with-interior", "--n", "3", "--count", "5",
                  "--seed", "2", "--out", str(problem)])
        capsys.readouterr()
        assert cli.main(["solve", "--problem", str(problem), "--method", method]) == 0
        printed = capsys.readouterr().out.splitlines()[0]
        sets, x0, extras = problem_from_dict(json.loads(problem.read_text()))
        system = hyperslab_system_from_sets(sets)
        if method == "art3":
            rep = art3_solve(x0, system)
        else:
            rep = extended_art_solve(x0, system, witness=extras["witness"])
        assert rep.counts["iterations"] > 0
        assert printed == f"method={method} status=solved iters={rep.counts['iterations']}"

    @pytest.mark.parametrize("method", ["art3", "ext-art"])
    @pytest.mark.parametrize("max_iter", ["-5", "0"])
    def test_solve_art_non_positive_max_iter_exit_one(self, tmp_path, capsys, method, max_iter):
        path = tmp_path / "system.txt"
        path.write_text("2 2\n1.0 0.0\n0.0 1.0\n0.0 0.0\n1.0 1.0\n")
        code = cli.main(["solve", "--problem", str(path), "--method", method, "--max-iter", max_iter])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE == 1
        assert "max_iters must be an integer >= 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("method", ["art3", "ext-art"])
    @pytest.mark.parametrize("tol", ["-3", "nan", "inf"])
    def test_solve_art_bad_tol_exit_one(self, tmp_path, capsys, method, tol):
        path = tmp_path / "system.txt"
        path.write_text("2 2\n1.0 0.0\n0.0 1.0\n0.0 0.0\n1.0 1.0\n")
        code = cli.main(["solve", "--problem", str(path), "--method", method, "--tol", tol])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE == 1
        assert "--tol must be a finite number >= 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("method", sorted(_METHODS))
    def test_solve_overflowing_projection_exit_one(self, tmp_path, capsys, method):
        path = tmp_path / "overflow.json"
        sets = [Hyperslab(np.array([1e-160, 0.0]), 1e160, 1e160), Hyperslab(np.array([1.0, 0.0]), -1.0, 1.0)]
        save_problem(path, sets, np.zeros(2))
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["solve", "--problem", str(path), "--method", method])
        assert code == cli.EXIT_USAGE
        assert "non-finite entries" in capsys.readouterr().err

    # x0's dot with the first row overflows (-1e310); the visit projects onto
    # the row divided by max|a|, so each method ends at the origin
    FAR_START = {"sets": [{"type": "hyperslab", "a": [1e200, 0], "lower": 0, "upper": 1e200},
                          {"type": "ball", "center": [0, 0], "radius": 5}], "x0": [-1e110, 0]}
    FAR_SLABS = {"sets": [FAR_START["sets"][0], {"type": "hyperslab", "a": [0, 1], "lower": 0, "upper": 1}],
                 "x0": [-1e110, 0]}

    @pytest.mark.parametrize("doc, method", [*(("far-start", m) for m in sorted(_METHODS)),
                                             ("far-slabs", "art3"), ("far-slabs", "ext-art")])
    def test_solve_far_start_whose_dot_overflows(self, tmp_path, capsys, doc, method):
        path, report = tmp_path / "p.json", tmp_path / "r.json"
        path.write_text(json.dumps(self.FAR_START if doc == "far-start" else self.FAR_SLABS))
        code = cli.main(["solve", "--problem", str(path), "--method", method, "--json", str(report)])
        assert (code, capsys.readouterr().err) == (0, "")
        rep = json.loads(report.read_text())
        assert rep["status"] == "solved" and rep["x"] == [0.0, 0.0]

    def test_usage_error_exit_one(self):
        assert cli.main(["two-circles", "--method", "bogus"]) == 1
        assert cli.main(["nonsense"]) == 1
        assert cli.main(["solve", "--problem", "/nonexistent.json", "--method", "map"]) == 1

    def test_oracle_suite_quick(self, capsys):
        code = cli.main(["oracle-suite", "--seed", "5", "--suite", "box-qp"])
        captured = capsys.readouterr()
        assert code == 0
        assert "suite box-qp: PASS" in captured.out

    @staticmethod
    def solve_generated(tmp_path, monkeypatch, capsys, kind, method, n):
        """``projqp solve --json`` on a generated file: the exit code, the
        report handed to ``to_json``, the text after the first stdout line,
        and the JSON written."""
        written = []
        to_json = SolveReport.to_json

        def spy(report):
            written.append(report)
            return to_json(report)

        monkeypatch.setattr(SolveReport, "to_json", spy)
        problem = tmp_path / "p.json"
        assert cli.main(["gen", "--kind", kind, "--n", str(n), "--count", "4", "--seed", "5",
                         "--out", str(problem)]) == 0
        out = tmp_path / "r.json"
        capsys.readouterr()
        code = cli.main(["solve", "--problem", str(problem), "--method", method, "--max-iter", "200",
                         "--json", str(out)])
        [report] = written
        _, x_text = capsys.readouterr().out.split("\n", 1)
        return code, report, x_text, out.read_text()

    @pytest.mark.parametrize("kind, method", SOLVE_CASES)
    def test_json_report_is_the_report(self, tmp_path, monkeypatch, capsys, kind, method):
        code, report, x_text, text = self.solve_generated(tmp_path, monkeypatch, capsys, kind, method, 3)
        assert code == cli.STATUS_EXIT[report.status]
        # the x line is numpy's default array text at 9 digits
        assert x_text == "x = " + np.array2string(report.x, precision=9) + "\n"
        assert text.count("\n") == 1 and text.endswith("\n")
        doc = json.loads(text)
        assert float_bits(doc) == float_bits(report.to_json_dict())
        if kind == "infeasible-balls":
            assert report.status == "infeasible" and doc["certificate"]["lambda"]

    @pytest.mark.parametrize("kind, method", SOLVE_CASES)
    def test_wrapped_x_line_is_array2string(self, tmp_path, monkeypatch, capsys, kind, method):
        code, report, x_text, _ = self.solve_generated(tmp_path, monkeypatch, capsys, kind, method, 30)
        assert code == cli.STATUS_EXIT[report.status]
        assert x_text == "x = " + np.array2string(report.x, precision=9) + "\n"
        assert "\n" in x_text.rstrip()

    def test_repeated_solves_are_identical(self, tmp_path, capsys):
        problem = tmp_path / "p.json"
        assert cli.main(["gen", "--kind", "box-plus-ball", "--n", "4", "--count", "3", "--seed", "8",
                         "--out", str(problem)]) == 0
        parser = cli._PARSER
        capsys.readouterr()

        def solve_once(name):
            report = tmp_path / name
            code = cli.main(["solve", "--problem", str(problem), "--method", "sip-gi", "--json", str(report)])
            return code, capsys.readouterr().out, report.read_bytes()

        first = solve_once("first.json")
        assert cli.main(["solve", "--problem", str(problem), "--method", "bogus"]) == cli.EXIT_USAGE
        assert cli.main(["oracle-suite", "--seed", "5", "--suite", "box-qp"]) == 0
        capsys.readouterr()
        assert solve_once("second.json") == first
        assert first[0] == 0 and first[1].startswith("method=sip-gi status=solved")
        assert parser is not None and cli._PARSER is parser

    @pytest.mark.parametrize("exc", [
        PreconditionViolated("constraint 0 already active"),
        NumericalError("direction refinement failed to settle"),
        IterationLimitError("inner step budget 8 exhausted"),
    ], ids=lambda exc: type(exc).__name__)
    @pytest.mark.parametrize("command", ["solve", "two-circles"])
    def test_engine_breakdown_exit_four(self, tmp_path, capsys, monkeypatch, exc, command):
        def broken(x0, sets, options=None):
            raise exc

        monkeypatch.setitem(solvers._METHODS, "bap-gi", broken)
        argv = ["two-circles", "--method", "bap-gi"]
        if command == "solve":
            problem = tmp_path / "p.json"
            save_problem(problem, two_circles_sets(), TWO_CIRCLES_X0)
            argv = ["solve", "--problem", str(problem), "--method", "bap-gi"]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == cli.EXIT_BREAKDOWN == 4
        assert captured.out == ""
        assert captured.err == f"projqp: error: numerical breakdown: {exc}\n"


def _scaled(rng, n):
    return rng.normal(size=n) * 10.0 ** rng.uniform(-12, 12)


def _mixed(rng, n):
    return rng.normal(size=n) * 10.0 ** rng.uniform(-12, 12, size=n)


def _mode_edges(rng, n):
    # the exponential mode's three tests: |x| >= 1e8, |x| < 1e-4, max/min > 1000
    edge = rng.choice([1e-4, 1e8, 1.0])
    near = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
    if edge == 1.0:
        near = [1.0, 1000.0, np.nextafter(1000.0, 0.0), np.nextafter(1000.0, np.inf)]
    return rng.choice(near, size=n) * rng.choice([1.0, -1.0], size=n)


def _specials(rng, n):
    pool = [0.0, -0.0, 1.0, -3.0, 7.0, 2.0**-10, -(2.0**-10), 5e-324, 2.2250738585072014e-308,
            1.6e308, -1.6e308, 0.1, 0.5, 1e-3, 99999999.99999999, 123456789.0, 1.0000000005]
    return rng.choice(pool, size=n)


def _integers(rng, n):
    return rng.integers(-(10 ** int(rng.integers(1, 11))), 10 ** int(rng.integers(1, 11)), size=n) * 1.0


def _ties(rng, n):
    # multiples of 2**-10 and 2**-20 end in a 5 that 9 digits cut: a tie
    return rng.integers(-(2**24), 2**24, size=n) * rng.choice([2.0**-10, 2.0**-20, 2.0**-30])


def _rounded(rng, n):
    return np.round(rng.normal(size=n) * 10.0 ** int(rng.integers(-3, 9)), int(rng.integers(0, 12)))


def _with_zeros(rng, n):
    x = _scaled(rng, n)
    x[rng.uniform(size=n) < 0.4] = rng.choice([0.0, -0.0])
    return x


FORMAT_FAMILIES = [_scaled, _mixed, _mode_edges, _specials, _integers, _ties, _rounded, _with_zeros]


class TestFormatX:
    """``cli.format_x`` prints what ``np.array2string(x, precision=9)`` prints,
    without calling it on a 1-D float64 x of finite entries under numpy's
    default print options, and through it on anything else."""

    @pytest.mark.parametrize("family", FORMAT_FAMILIES, ids=lambda f: f.__name__[1:])
    def test_matches_array2string(self, family, monkeypatch):
        reference = np.array2string
        fast = []

        def forbidden(*args, **kwargs):
            raise AssertionError("format_x fell back to array2string")

        monkeypatch.setattr(np, "array2string", forbidden)
        rng = np.random.default_rng(9000 + FORMAT_FAMILIES.index(family))
        # 6,250 arrays a family, 50,000 in all: mostly 1 to 16 entries, which
        # wrap at 75 columns from 5 exponential or 6 wide positional words
        # on, and every twentieth up to 119
        for k in range(6250):
            n = int(rng.integers(1, 120 if k % 20 == 0 else 17))
            x = np.asarray(family(rng, n), dtype=float)
            fast.append(cli.format_x(x))
            assert fast[-1] == reference(x, precision=9), x.tolist()
        assert any("\n" in text for text in fast) and any("e" in text for text in fast)

    @pytest.mark.parametrize("x", [
        np.array([1.0, np.nan, -2.5]),
        np.array([np.inf]),
        np.array([-np.inf, 1e-7, 3.0]),
        np.arange(1001.0) / 7.0,
        np.linspace(-1e9, 1e9, 2500),
        np.zeros(0),
        np.arange(6.0).reshape(2, 3),
        np.array([1.5, 2.25], dtype=np.float32),
    ], ids=["nan", "inf", "minus-inf", "n-1001", "n-2500", "empty", "2-d", "float32"])
    def test_other_arrays_go_to_array2string(self, x, monkeypatch):
        calls = []
        reference = np.array2string

        def counted(*args, **kwargs):
            calls.append(args)
            return reference(*args, **kwargs)

        monkeypatch.setattr(np, "array2string", counted)
        assert cli.format_x(x) == reference(x, precision=9)
        assert len(calls) == 1

    @pytest.mark.parametrize("options", [
        {"linewidth": 40}, {"sign": " "}, {"sign": "+"}, {"floatmode": "fixed"},
        {"floatmode": "unique"}, {"suppress": True}, {"threshold": 5}, {"legacy": "1.13"},
        {"formatter": {"float": "{:.2f}".format}},
    ], ids=lambda o: next(iter(o)) + "-" + str(next(iter(o.values())))[:8])
    def test_other_print_options_go_to_array2string(self, options):
        rng = np.random.default_rng(9100)
        with np.printoptions(**options):
            for n in (1, 3, 12, 40):
                for x in (rng.normal(size=n), rng.normal(size=n) * 1e-6):
                    assert cli.format_x(x) == np.array2string(x, precision=9)


class TestLoaderMutants:
    """Every mutant of a generated document, and of the ART text format,
    either solves or exits 1 with exactly one stderr line.

    A JSON mutant drops, retypes or resizes one key of the seed-0 document
    of a generator kind; a text mutant drops or repeats one line, or drops
    or replaces one token.  Mutants that solve run to at most 200 visits.
    """

    OVERFLOW = "<1e400>"  # written as the JSON number 1e400, which loads as inf
    RETYPES = ["abc", None, [], {}, True, math.nan, OVERFLOW, 10**400]
    TOKENS = ["abc", "nan", "1e400", "-1e400", "0", "-1", "1 1", "#"]

    @staticmethod
    def faults(capsys, path, methods) -> list:
        found = []
        for method in methods:
            code = cli.main(["solve", "--problem", str(path), "--method", method, "--max-iter", "200"])
            err = capsys.readouterr().err
            one_line = code == 1 and len(err.splitlines()) == 1 and err.startswith("projqp: error: ")
            if not (one_line or (code in (0, 2, 3) and err == "")):
                found.append((method, code, err))
        return found

    @classmethod
    def json_mutants(cls, doc):
        def keys(node, path):
            items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
            for k, v in items:
                if isinstance(node, dict):
                    yield path + (k,), v
                if isinstance(v, (dict, list)):
                    yield from keys(v, path + (k,))

        def edited(path, change):
            mutant = json.loads(json.dumps(doc))
            node = mutant
            for k in path[:-1]:
                node = node[k]
            change(node, path[-1])
            return mutant

        for path, value in list(keys(doc, ())):
            yield path, "drop", edited(path, lambda node, k: node.pop(k))
            for new in cls.RETYPES:
                yield path, repr(new), edited(path, lambda node, k, new=new: node.__setitem__(k, new))
            if isinstance(value, list) and value:
                yield path, "grow", edited(path, lambda node, k: node[k].append(node[k][-1]))
                yield path, "shrink", edited(path, lambda node, k: node[k].pop())

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_json_mutants(self, tmp_path, capsys, kind):
        methods = ["map", "ext-art"] if kind == "hyperslabs-with-interior" else ["map"]
        path = tmp_path / "mutant.json"
        found, count = [], 0
        for where, how, mutant in self.json_mutants(generate_problem(kind, 3, 3, 0)):
            path.write_text(json.dumps(mutant).replace(f'"{self.OVERFLOW}"', "1e400"))
            found += [(where, how, *fault) for fault in self.faults(capsys, path, methods)]
            count += 1
        assert count >= 80 and not found, found[:5]

    def test_text_mutants(self, tmp_path, capsys):
        sets, _, _ = problem_from_dict(generate_problem("hyperslabs-with-interior", 2, 3, 0))
        lines = hyperslab_system_from_sets(sets).to_text().splitlines()
        mutants = []
        for i, line in enumerate(lines):
            mutants += [lines[:i] + lines[i + 1:], lines[:i + 1] + lines[i:]]
            tokens = line.split()
            for t in range(len(tokens)):
                for new in [[]] + [[tok] for tok in self.TOKENS]:
                    mutants.append(lines[:i] + [" ".join(tokens[:t] + new + tokens[t + 1:])] + lines[i + 1:])
        path = tmp_path / "mutant.txt"
        found = []
        for mutant in mutants:
            path.write_text("\n".join(mutant) + "\n")
            found += [(mutant, *fault) for fault in self.faults(capsys, path, ["art3", "ext-art"])]
        assert len(mutants) >= 100 and not found, found[:5]
