"""Each of the benchmark's correctness checks accepts a right answer and
rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

XBAR = np.array(checks.TWO_CIRCLES_XBAR)
X0 = np.array(checks.TWO_CIRCLES_X0)


@pytest.mark.parametrize("method", ["bap-gi", "sip-gi"])
def test_table1_rejects_a_row_off_by_ten_percent(method):
    dists = list(checks.TABLE1[method])
    checks.check_table1(method, dists)
    for row in (1, 5, 9):
        wrong = list(dists)
        wrong[row] *= 1.1
        with pytest.raises(CheckFailed, match=f"row {row}"):
            checks.check_table1(method, wrong)


def test_close_rejects_a_perturbed_x():
    checks.check_close(XBAR + 1e-13, XBAR, 1e-12, "x")
    with pytest.raises(CheckFailed):
        checks.check_close(XBAR + np.array([0.0, 1e-9]), XBAR, 1e-12, "x")


def test_exit_code_must_match_the_status():
    checks.check_exit_code(2, "infeasible", "run")
    with pytest.raises(CheckFailed):
        checks.check_exit_code(0, "infeasible", "run")
    with pytest.raises(CheckFailed):
        checks.check_exit_code(0, "unknown", "run")


BALL = {"type": "ball", "center": [2.9, 0.0], "radius": 3.0}
OTHER_BALL = {"type": "ball", "center": [-2.9, 0.0], "radius": 3.0}
BOX = {"type": "box", "lower": ["-inf", -1.0], "upper": [1.0, "inf"]}


def test_feasible_rejects_a_point_outside_a_ball():
    checks.check_feasible(XBAR, [BALL, OTHER_BALL], 1e-9, "x")
    with pytest.raises(CheckFailed, match="set 0"):
        checks.check_feasible(XBAR + np.array([0.0, 1e-6]), [BALL, OTHER_BALL], 1e-9, "x")


def test_feasible_rejects_a_point_outside_a_box():
    checks.check_feasible(np.array([1.0, 5.0]), [BOX], 1e-9, "x")
    with pytest.raises(CheckFailed, match="box"):
        checks.check_feasible(np.array([1.0 + 1e-6, 5.0]), [BOX], 1e-9, "x")


def test_nearest_rejects_a_closer_rival():
    checks.check_nearest(XBAR, X0, {"map": XBAR + np.array([0.0, -1e-3])}, 1e-6, "bap")
    with pytest.raises(CheckFailed, match="map"):
        checks.check_nearest(XBAR, X0, {"map": XBAR + np.array([0.0, 1e-3])}, 1e-6, "bap")


def test_haugazeau_rejects_a_point_past_the_solution():
    # the projection of x0 onto either ball alone is a valid Haugazeau iterate
    d = X0 - np.array(BALL["center"])
    x_k = np.array(BALL["center"]) + BALL["radius"] * d / np.linalg.norm(d)
    checks.check_haugazeau(x_k, X0, XBAR)
    checks.check_haugazeau(XBAR, X0, XBAR)
    with pytest.raises(CheckFailed, match="exceeds"):
        checks.check_haugazeau(XBAR - np.array([0.0, 0.1]), X0, XBAR)
    # closer to x0 than x-bar, but outside the sphere with diameter [x-bar, x0]
    with pytest.raises(CheckFailed, match="obtuse"):
        checks.check_haugazeau(X0 + np.array([9.0, 0.0]), X0, XBAR)


def _disjoint_certificate():
    # {y : y_1 >= 1} holds the ball at (2, 0); {y : -y_1 >= 1} the ball at (-2, 0)
    balls = [{"type": "ball", "center": [2.0, 0.0], "radius": 1.0},
             {"type": "ball", "center": [-2.0, 0.0], "radius": 1.0}]
    normals = [[1.0, -1.0], [0.0, 0.0]]
    return [1.0, 1.0], [0, 1], normals, [1.0, 1.0], balls


def test_certificate_accepts_a_valid_farkas_pair():
    checks.check_certificate(*_disjoint_certificate())


def test_certificate_rejects_a_sign_flipped_lambda():
    lam, j, normals, rhs, balls = _disjoint_certificate()
    with pytest.raises(CheckFailed, match="negative weight"):
        checks.check_certificate([-v for v in lam], j, normals, rhs, balls)


def test_certificate_rejects_a_nonzero_combination():
    lam, j, normals, rhs, balls = _disjoint_certificate()
    with pytest.raises(CheckFailed, match="C_J lam"):
        checks.check_certificate([1.0, 0.5], j, normals, rhs, balls)


def test_certificate_rejects_a_halfspace_that_holds_neither_ball():
    lam, j, normals, rhs, balls = _disjoint_certificate()
    with pytest.raises(CheckFailed, match="neither ball"):
        checks.check_certificate(lam, j, normals, [1.5, 1.0], balls)


def test_certificate_rejects_a_nonpositive_gap():
    lam, j, normals, rhs, balls = _disjoint_certificate()
    with pytest.raises(CheckFailed, match="not positive"):
        checks.check_certificate(lam, j, normals, [0.0, 0.0], balls)


# 0 <= x_1 <= 1 and -1 <= x_1 + x_2 <= 4
A = np.array([[1.0, 0.0], [1.0, 1.0]])
LOWER = np.array([0.0, -1.0])
UPPER = np.array([1.0, 4.0])


def test_slabs_exact_rejects_a_point_just_outside_one_slab():
    checks.check_in_slabs_exact(np.array([1.0, 2.0]), A, LOWER, UPPER, "x")
    with pytest.raises(CheckFailed, match="row 0"):
        checks.check_in_slabs_exact(np.array([math.nextafter(1.0, 2.0), 2.0]), A, LOWER, UPPER, "x")


def test_slab_distance_rejects_a_point_outside_by_more_than_tol():
    docs = [{"type": "hyperslab", "a": list(row), "lower": lo, "upper": up}
            for row, lo, up in zip(A.tolist(), LOWER, UPPER)]
    checks.check_feasible(np.array([1.0 + 1e-12, 2.0]), docs, 1e-9, "x")
    with pytest.raises(CheckFailed, match="set 0"):
        checks.check_feasible(np.array([1.0 + 1e-6, 2.0]), docs, 1e-9, "x")


def test_cone_accepts_the_projection_and_rejects_a_perturbed_x():
    x0 = np.array([3.0, 2.0])  # projects onto the face x_1 = 1 at (1, 2)
    rel = checks.check_cone(np.array([1.0, 2.0]), x0, A, LOWER, UPPER, 1e-9, "bap")
    assert rel <= 1e-15
    with pytest.raises(CheckFailed, match="normal cone"):
        checks.check_cone(np.array([1.0, 2.1]), x0, A, LOWER, UPPER, 1e-9, "bap")
    with pytest.raises(CheckFailed, match="no face is tight"):
        checks.check_cone(np.array([0.5, 2.0]), x0, A, LOWER, UPPER, 1e-9, "bap")


def test_dykstra_replay_rejects_an_iterate_without_corrections():
    x0 = np.array([3.0, 5.0])
    # (1, 5), (0, 4), then with the corrections (2, 0) and (1, 1): (1, 4), (0.5, 3.5)
    replay = checks.dykstra_slabs(x0, A, LOWER, UPPER, 4)
    np.testing.assert_allclose(replay, [0.5, 3.5])
    checks.check_dykstra(replay, replay, x0, "dykstra")
    # alternating projections, which drop the corrections, stop at (0, 4)
    with pytest.raises(CheckFailed, match="replay"):
        checks.check_dykstra(np.array([0.0, 4.0]), replay, x0, "dykstra")
    with pytest.raises(CheckFailed, match="replay"):
        checks.check_dykstra(replay + 1e-6, replay, x0, "dykstra")
    # the projection of x0 onto both slabs is (1, 3)
    np.testing.assert_allclose(checks.dykstra_slabs(x0, A, LOWER, UPPER, 200), [1.0, 3.0])


def test_benchmark_json_lists_the_metrics_the_runs_print():
    import metrics
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
