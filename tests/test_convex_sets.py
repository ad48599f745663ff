import json
import math

import numpy as np
import pytest

from projqp.convex_sets import (
    Ball,
    Box,
    Halfspace,
    Hyperslab,
    Polyhedron,
    contains,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    project_set,
    save_problem,
)
from projqp.solvers import SolverOptions, solve_bap

ALL_SETS = [
    Ball(np.array([0.5, -0.25]), 1.25),
    Halfspace(np.array([1.0, 2.0]), 0.5),
    Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0])),
    Box(np.array([-np.inf, 0.0]), np.array([1.0, np.inf])),
    Hyperslab(np.array([1.0, -1.0]), -0.5, 1.5),
    Polyhedron(np.eye(2), np.array([0.0, -1.0])),
]


class TestProjections:
    def test_ball_radial(self):
        p = project_set(Ball(np.zeros(2), 1.0), np.array([2.0, 0.0]))
        np.testing.assert_allclose(p, [1.0, 0.0])

    def test_box_clamp(self):
        p = project_set(Box(np.zeros(2), np.ones(2)), np.array([2.0, -1.0]))
        np.testing.assert_allclose(p, [1.0, 0.0])

    def test_two_circles_first_projection(self):
        ball = Ball(np.array([2.9, 0.0]), 3.0)
        x = np.array([0.0, 10.0])
        p = project_set(ball, x)
        d = x - ball.center
        expected = ball.center + 3.0 * d / np.linalg.norm(d)
        np.testing.assert_allclose(p, expected, atol=1e-14)
        # cross-check against dense boundary sampling
        theta = np.linspace(0.0, 2.0 * math.pi, 20001)
        pts = ball.center[None, :] + 3.0 * np.column_stack([np.cos(theta), np.sin(theta)])
        best = pts[np.argmin(np.linalg.norm(pts - x, axis=1))]
        assert np.linalg.norm(best - p) < 1e-3

    def test_halfspace_inside_unchanged(self):
        h = Halfspace(np.array([0.0, 1.0]), -1.0)
        x = np.array([3.0, 5.0])
        np.testing.assert_allclose(project_set(h, x), x)

    def test_hyperslab_clamps_both_sides(self):
        k = Hyperslab(np.array([1.0, 0.0]), 0.0, 1.0)
        np.testing.assert_allclose(project_set(k, np.array([2.0, 3.0])), [1.0, 3.0])
        np.testing.assert_allclose(project_set(k, np.array([-1.0, 3.0])), [0.0, 3.0])

    def test_polyhedron_uses_engine(self):
        k = Polyhedron(np.eye(2), np.zeros(2))
        np.testing.assert_allclose(project_set(k, np.array([-1.0, -2.0])), [0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("k", ALL_SETS)
    def test_idempotent(self, k):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(-3, 3, 2)
            p = project_set(k, x)
            np.testing.assert_allclose(project_set(k, p), p, atol=1e-12)

    @pytest.mark.parametrize("k", ALL_SETS)
    def test_firmly_nonexpansive_spot(self, k):
        rng = np.random.default_rng(1)
        for _ in range(8):
            x, y = rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)
            px, py = project_set(k, x), project_set(k, y)
            lhs = float(np.linalg.norm(px - py)) ** 2
            rhs = float((px - py) @ (x - y))
            assert lhs <= rhs + 1e-10


class TestContains:
    def test_center(self):
        assert contains(Ball(np.zeros(2), 1.0), np.zeros(2))

    def test_boundary_within_tol(self):
        assert contains(Ball(np.zeros(2), 1.0), np.array([1.0, 0.0]), tol=1e-9)

    def test_outside(self):
        assert not contains(Ball(np.zeros(2), 1.0), np.array([1.001, 0.0]), tol=1e-9)


def first_cut(k, x):
    """The supporting halfspace (c, b) that BAP stores on its first visit
    to k from x, or None when x lies in k."""
    rep = solve_bap(x, [k], SolverOptions(max_outer_iters=1))
    c_mat, b_vec = rep.extras["store_normals"], rep.extras["store_rhs"]
    if b_vec.shape[0] == 0:
        return None
    return c_mat[:, 0], float(b_vec[0])


class TestSupportingCut:
    """The halfspace {y : c^T y >= b} the solvers generate at P_k(x)."""

    def test_ball_support(self):
        c, b = first_cut(Ball(np.zeros(2), 1.0), np.array([2.0, 0.0]))
        np.testing.assert_allclose(c, [-1.0, 0.0], atol=1e-14)
        assert b == pytest.approx(-1.0)
        # contains the ball: min over boundary of c^T y - b >= 0
        theta = np.linspace(0, 2 * math.pi, 512)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        assert float(np.min(pts @ c - b)) >= -1e-10

    def test_halfspace_returns_itself(self):
        k = Halfspace(np.array([2.0, 0.0]), 2.0)  # x1 >= 1 scaled
        c, b = first_cut(k, np.array([-1.0, 0.5]))
        np.testing.assert_allclose(c, [1.0, 0.0], atol=1e-14)
        assert b == pytest.approx(1.0)

    def test_box_corner_support(self):
        c, b = first_cut(Box(np.zeros(2), np.ones(2)), np.array([2.0, 2.0]))
        np.testing.assert_allclose(c, -np.ones(2) / math.sqrt(2.0), atol=1e-14)
        assert b == pytest.approx(-math.sqrt(2.0))
        corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        assert float(np.min(corners @ c - b)) >= -1e-10

    def test_point_inside_gives_no_cut(self):
        assert first_cut(Ball(np.zeros(2), 1.0), np.array([0.2, 0.1])) is None

    def test_unit_normal_and_negative_gap(self):
        rng = np.random.default_rng(2)
        for k in ALL_SETS:
            for _ in range(6):
                x = rng.uniform(-4, 4, 2)
                cut = first_cut(k, x)
                if cut is None:
                    continue
                c, b = cut
                assert abs(np.linalg.norm(c) - 1.0) <= 1e-12
                assert float(c @ x) - b < 0.0
                # sampled points of the set satisfy the halfspace
                for _ in range(20):
                    y = project_set(k, rng.uniform(-4, 4, 2))
                    assert float(c @ y) - b >= -1e-9


class TestJsonSchema:
    def test_roundtrip_with_infinities(self, tmp_path):
        sets = [
            Ball(np.array([0.0, 1.0]), 2.0),
            Box(np.array([-np.inf, 0.0]), np.array([1.0, np.inf])),
            Hyperslab(np.array([1.0, 1.0]), -np.inf, 3.0),
            Halfspace(np.array([0.0, 1.0]), 0.25),
            Polyhedron(np.eye(2), np.array([0.0, 0.0])),
        ]
        x0 = np.array([0.5, -0.5])
        path = tmp_path / "problem.json"
        save_problem(path, sets, x0, witness=[0.0, 1.0])
        sets2, x02, extras = load_problem(path)
        np.testing.assert_allclose(x02, x0)
        assert extras["witness"] == [0.0, 1.0]
        assert isinstance(sets2[1], Box)
        assert np.isneginf(sets2[1].lower[0]) and np.isposinf(sets2[1].upper[1])
        assert np.isneginf(sets2[2].lower)
        doc = json.loads(path.read_text())
        assert doc["sets"][1]["lower"][0] == "-inf"
        assert doc["sets"][2]["lower"] == "-inf"

    def test_dict_roundtrip(self):
        doc = problem_to_dict([Ball(np.zeros(2), 1.0)], np.array([3.0, 4.0]), kind="demo")
        sets, x0, extras = problem_from_dict(doc)
        assert isinstance(sets[0], Ball)
        assert extras["kind"] == "demo"

    def test_validation(self):
        with pytest.raises(ValueError):
            Ball(np.zeros(2), -1.0)
        with pytest.raises(ValueError):
            Box(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            Hyperslab(np.zeros(2), 0.0, 1.0)
