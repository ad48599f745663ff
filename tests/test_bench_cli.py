import json
import math

import numpy as np
import pytest

from projqp import cli
from projqp.art import art3_solve, extended_art_solve
from projqp.bench import (
    NonPositiveDistance,
    compute_measures,
    generate_problem,
    hyperslab_system_from_sets,
    measure_rows_to_csv,
    run_two_circles,
)
from projqp.convex_sets import Ball, problem_from_dict, project_set


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

    def test_deterministic(self):
        a = generate_problem("balls-with-common-point", 3, 2, 99)
        b = generate_problem("balls-with-common-point", 3, 2, 99)
        assert a == b

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_problem("nonsense", 2, 2, 0)


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

    def test_solve_infeasible_exit_code(self, tmp_path):
        problem = tmp_path / "gap.json"
        cli.main(["gen", "--kind", "infeasible-balls", "--n", "2", "--count", "2",
                  "--seed", "1", "--out", str(problem)])
        code = cli.main(["solve", "--problem", str(problem), "--method", "bap-gi",
                         "--max-iter", "500"])
        assert code == 2

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

    def test_usage_error_exit_one(self):
        assert cli.main(["two-circles", "--method", "bogus"]) == 1
        assert cli.main(["nonsense"]) == 1
        assert cli.main(["solve", "--problem", "/nonexistent.json", "--method", "map"]) == 1

    def test_oracle_suite_quick(self, capsys):
        code = cli.main(["oracle-suite", "--seed", "5", "--suite", "box-qp"])
        captured = capsys.readouterr()
        assert code == 0
        assert "suite box-qp: PASS" in captured.out
