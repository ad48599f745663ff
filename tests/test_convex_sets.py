import dataclasses
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
    _linear_project,
    _project,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    project_set,
    save_problem,
    set_to_dict,
    sets_to_dicts,
)
from projqp.bench import GENERATOR_KINDS, generate_problem
from projqp.linalg import step_along
from projqp.solvers import SolverOptions, _LinearScreen, solve_bap

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


def first_cut(k, x):
    """The supporting halfspace (c, b) that BAP stores on its first visit
    to k from x, or None when x lies in k."""
    rep = solve_bap(x, [k], SolverOptions(max_outer_iters=1))
    c_mat, b_vec = rep.extras["store_normals"], rep.extras["store_rhs"]
    if b_vec.shape[0] == 0:
        return None
    return c_mat[:, 0], float(b_vec[0])


class TestTrustedProjection:
    """``project_set`` is ``as_vector`` followed by ``_project``, which the
    solvers call on iterates they built; the two give the same bytes."""

    SETS = ALL_SETS + [
        Hyperslab(np.array([1.0, -1.0]), -np.inf, 1.5),
        Hyperslab(np.array([1.0, -1.0]), -0.5, np.inf),
        Hyperslab(np.array([0.5, 2.0]), -np.inf, np.inf),
        Halfspace(np.array([-3.0, 0.25]), -1.0),
    ]

    @pytest.mark.parametrize("k", SETS)
    def test_same_bytes_as_project_set(self, k):
        rng = np.random.default_rng(800)
        for x in [*rng.uniform(-4, 4, (40, 2)), np.zeros(2), np.array([1e150, -1e150])]:
            with np.errstate(over="ignore", invalid="ignore"):
                assert _project(k, x).tobytes() == project_set(k, x).tobytes()

    def test_project_set_validates(self):
        with pytest.raises(ValueError, match="x has non-finite entries"):
            project_set(ALL_SETS[0], np.array([0.0, np.nan]))

    def test_squared_norm_cached(self):
        h = Hyperslab(np.array([3.0, 4.0]), 0.0, 1.0)
        assert "_a_sq" not in vars(h)  # computed at the first projection, not at construction
        project_set(h, np.array([2.0, 2.0]))
        assert vars(h)["_a_sq"] == 25.0


class TestFarPoint:
    """A point whose squared distance from a ball's centre overflows still
    projects onto its sphere, with no overflow warning."""

    @pytest.mark.parametrize("x, p", [
        ([1e200, 0.0], [1.0, 0.0]),
        ([0.0, -1e300], [0.0, -1.0]),
    ])
    def test_lands_on_the_sphere(self, x, p):
        assert project_set(Ball(np.zeros(2), 1.0), x).tolist() == p


class TestOverflowedNormal:
    """A normal whose square overflows (accepted at construction) still
    projects onto the set's face: the step runs along the normal divided by
    its largest entry, with no overflow warning."""

    # each set's projection of x, exact at this scale
    CASES = [
        (Hyperslab([1e200, 0.0], 0.0, 1e200), [3.0, -2.0], [1.0, -2.0]),  # upper face
        (Hyperslab([1e200, 0.0], 0.0, 1e200), [-3.0, -2.0], [0.0, -2.0]),  # lower face
        (Halfspace([1e200, 0.0], 1e200), [0.0, 0.0], [1.0, 0.0]),
        (Halfspace([0.0, -1e200], -2e200), [5.0, 7.0], [5.0, 2.0]),
    ]

    @pytest.mark.parametrize("k, x, p", CASES)
    def test_lands_on_the_face(self, k, x, p):
        assert project_set(k, x).tolist() == p
        assert _linear_project(k, np.array(x)).tolist() == p
        assert _linear_project(k, np.array(p)) is None

    # 2**700 scales exactly, and its square overflows
    SCALE = 2.0 ** 700

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", ["halfspace", "hyperslab"])
    def test_matches_the_unit_scale_projection(self, kind, seed):
        """With max|u| = 1, the scaled set's step is the unit set's step
        bit for bit, on both faces of a slab."""
        rng = np.random.default_rng(seed)
        u = rng.normal(size=6)
        u /= np.abs(u).max()
        make = {
            "halfspace": lambda v, f: Halfspace(v, 0.5 * f),
            "hyperslab": lambda v, f: Hyperslab(v, -0.5 * f, 0.75 * f),
        }[kind]
        unit, scaled = make(u, 1.0), make(u * self.SCALE, self.SCALE)
        assert scaled._a_sq == math.inf
        faces = set()
        for x in rng.normal(scale=3.0, size=(40, 6)):
            p = _linear_project(unit, x)
            q = _linear_project(scaled, x)
            assert (p is None) == (q is None)
            if p is not None:
                assert q.tobytes() == p.tobytes()
                assert project_set(scaled, x).tobytes() == p.tobytes()
                faces.add("upper" if float(u @ x) > 0.75 else "lower")
        assert faces == ({"upper", "lower"} if kind == "hyperslab" else {"lower"})


class TestOverflowedDot:
    """Where a.x is not finite, the projection is that of the slab divided
    by max|a|: the same set, whose dot with x is finite."""

    @pytest.mark.parametrize("k, x, p", [
        (Hyperslab([1e200, 0.0], 0.0, 1e200), [-1e110, 0.0], [0.0, 0.0]),
        (Halfspace([1e200, 0.0], 0.0), [-1e110, 0.0], [0.0, 0.0]),
        (Halfspace([1e200, 0.0], -math.inf), [-1e110, 0.0], None),  # the whole space
        (Hyperslab([1e200, 0.0], -math.inf, math.inf), [-1e110, 0.0], None),
        (Hyperslab([1e200, 1e200], 0.0, 1.0), [1e154, -1e154], None),  # a.x is 0, its float is not
    ])
    def test_projects_the_rescaled_row(self, k, x, p):
        with np.errstate(over="ignore"):
            q = _linear_project(k, np.array(x))
            assert project_set(k, x).tolist() == (x if p is None else p)
        assert (q is None) if p is None else (q.tolist() == p)

    def test_dot_still_not_finite_is_not_finite(self):
        with np.errstate(over="ignore", invalid="ignore"):
            p = _linear_project(Hyperslab([1e200, 1e200], -1e200, 1e200), np.array([1.5e308, 1.5e308]))
        assert not np.isfinite(p).all()


class TestOneRowRule:
    """A halfspace is the slab b <= c.x <= inf: its projection and the
    solvers' screen radii are the slab's, bit for bit."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(31)
        for _ in range(400):
            n = int(rng.integers(1, 5))
            c = rng.normal(size=n) * 10.0 ** rng.choice([0, 0, 200])
            x = rng.normal(size=n) * 10.0 ** rng.choice([0, 0, 110, 150, 307])
            x[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
            with np.errstate(over="ignore"):
                s = float(c @ x)
            b = float(rng.choice([-math.inf, 0.0, -0.0, s, float(rng.normal()) * 10.0 ** rng.choice([0, 200])]))
            yield c, (b if b < math.inf else 0.0), x  # an overflowed or NaN dot is no b

    @staticmethod
    def halfspace_rule(c, b, x):
        """The halfspace's own rule, the reference where c.x is finite:
        x is inside when t = b - c.x <= 0, and else steps by t along c."""
        t = b - float(c @ x)
        return None if t <= 0.0 else step_along(x, c, t, float(np.vdot(c, c)))

    def test_projection_is_the_slab_s(self):
        finite = 0
        for c, b, x in self.cases():
            with np.errstate(over="ignore", invalid="ignore"):
                p = _linear_project(Halfspace(c, b), x)
                q = _linear_project(Hyperslab(c, b, math.inf), x)
                dot_finite = math.isfinite(float(c @ x))
                ref = self.halfspace_rule(c, b, x) if dot_finite else p
            finite += dot_finite
            for r in (q, ref):
                assert (p is None) == (r is None), (c, b, x)
                if p is not None:
                    assert p.tobytes() == r.tobytes(), (c, b, x)
        assert finite > 300

    def test_slab_projection_is_the_clamp_rule(self):
        """Where a.x is finite, a slab's projection is the clamp rule's:
        inside when clamping s = a.x to the bounds leaves it, else the step
        to the clamp."""
        rng = np.random.default_rng(32)
        for c, b, x in self.cases():
            with np.errstate(over="ignore"):
                s = float(c @ x)
            if not math.isfinite(s):
                continue
            up = float(rng.choice([s, 0.0, -0.0, math.inf, max(b, s) + 1.0]))
            lo = b if b <= up else up
            target = min(max(s, lo), up)
            ref = None if target == s else step_along(x, c, target - s, float(np.vdot(c, c)))
            p = _linear_project(Hyperslab(c, lo, up), x)
            assert (p is None) == (ref is None), (c, lo, up, x)
            if p is not None:
                assert p.tobytes() == ref.tobytes(), (c, lo, up, x)

    def test_screen_radii_are_the_slab_s(self):
        for c, b, x in self.cases():
            radii = []
            for k in (Halfspace(c, b), Hyperslab(c, b, math.inf)):
                screen = _LinearScreen([k])
                with np.errstate(over="ignore", invalid="ignore"):
                    screen.refresh(x)
                radii.append(np.array(screen.rho).tobytes())
            assert radii[0] == radii[1], (c, b, x)


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

    @staticmethod
    def strict_loads(text: str):
        def reject(name):
            raise ValueError(f"not strict JSON: {name}")
        return json.loads(text, parse_constant=reject)

    def test_every_bound_roundtrips_as_strict_json(self, tmp_path):
        sets = [
            Ball(np.array([0.0, 1.0]), np.inf),
            Halfspace(np.array([0.0, 1.0]), -np.inf),
            Box(np.array([-np.inf, 0.0]), np.array([1.0, np.inf])),
            Hyperslab(np.array([1.0, 1.0]), -np.inf, np.inf),
            Polyhedron(np.eye(2), np.array([0.0, 0.0])),
        ]
        path = tmp_path / "problem.json"
        save_problem(path, sets, np.array([0.5, -0.5]))
        doc = self.strict_loads(path.read_text())
        assert [d.get("radius", d.get("b")) for d in doc["sets"][:2]] == ["inf", "-inf"]
        loaded, _, _ = problem_from_dict(doc)
        for k, k2 in zip(sets, loaded):
            assert type(k2) is type(k)
            for name, value in vars(k).items():
                assert np.array_equal(getattr(k2, name), value), name

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_generated_documents_are_strict_json(self, kind):
        doc = generate_problem(kind, 3, 4, 0)
        assert self.strict_loads(json.dumps(doc)) == doc

    # three sets of each type, with infinite bounds where the type allows them
    COLUMN_SETS = {
        "ball": [Ball(np.array([0.0, 1.0]), 2.0), Ball(np.array([-1.0, 3.0]), 0.5), Ball(np.zeros(2), np.inf)],
        "halfspace": [Halfspace(np.array([0.0, 1.0]), 0.25), Halfspace(np.array([2.0, -1.0]), -np.inf),
                      Halfspace(np.array([1e200, 0.0]), 1e200)],
        "box": [Box(np.array([-np.inf, 0.0]), np.array([1.0, np.inf])), Box(np.zeros(2), np.ones(2)),
                Box(np.array([-2.0, -np.inf]), np.array([-1.0, np.inf]))],
        "hyperslab": [Hyperslab(np.array([1.0, 1.0]), -np.inf, 3.0), Hyperslab(np.array([0.5, -2.0]), -1.0, 1.0),
                      Hyperslab(np.array([3.0, 0.0]), 0.0, np.inf)],
        "polyhedron": [Polyhedron(np.eye(2), np.array([0.0, 0.0])), Polyhedron(-np.eye(2), np.array([-1.0, -2.0])),
                       Polyhedron(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.0]))],
    }

    @pytest.mark.parametrize("name", sorted(COLUMN_SETS))
    def test_column_writer_writes_each_set_as_set_to_dict(self, name):
        sets = self.COLUMN_SETS[name]
        columns = {f.name: np.array([getattr(k, f.name) for k in sets]) for f in dataclasses.fields(sets[0])}
        docs = sets_to_dicts(name, columns)
        expected = [set_to_dict(k) for k in sets]
        assert json.dumps(docs) == json.dumps(expected)

    def test_dict_roundtrip(self):
        doc = problem_to_dict([Ball(np.zeros(2), 1.0)], np.array([3.0, 4.0]), kind="demo")
        sets, x0, extras = problem_from_dict(doc)
        assert isinstance(sets[0], Ball)
        assert extras["kind"] == "demo"

    @pytest.mark.parametrize("sets, x0, message", [
        ([{"type": "ball", "center": [0.0], "radius": 1.0}, {"type": "ball", "center": [0.0], "radius": -1.0}],
         [0.0], "sets[1]: radius must be positive"),
        ([{"type": "halfspace", "c": [1.0], "b": None}], [0.0], "sets[0]: float() argument"),
        (["ball"], [0.0], "sets[0]: a set must be a JSON object"),
        ([{"type": "ball", "center": [0.0], "radius": 1.0}], {"x": 0.0}, "x0: float() argument"),
        ([{"type": "ball", "center": [0.0], "radius": 1.0}], ["zero"], "x0: could not convert"),
    ])
    def test_malformed_document_names_where(self, sets, x0, message):
        with pytest.raises(ValueError) as info:
            problem_from_dict({"sets": sets, "x0": x0})
        assert str(info.value).startswith(message)

    def test_validation(self):
        with pytest.raises(ValueError):
            Ball(np.zeros(2), -1.0)
        with pytest.raises(ValueError):
            Box(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            Hyperslab(np.zeros(2), 0.0, 1.0)

    @pytest.mark.parametrize("c_mat, b, message", [
        ([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0], "columns of c_mat"),
        ([[1.0, 1e-200], [0.0, 0.0]], [0.0, 0.0], "columns of c_mat"),  # its norm underflows, as in gi_solve
        ([[1.0, -1.0], [0.0, 0.0]], [1.0, 0.0], "polyhedron is empty"),
        ([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]], [1.0, 1.0, -1.5], "polyhedron is empty"),
    ])
    def test_polyhedron_rejects_zero_normals_and_emptiness(self, c_mat, b, message):
        with pytest.raises(ValueError, match=message):
            Polyhedron(np.array(c_mat), np.array(b))

    def test_polyhedron_accepts_a_point(self):
        # x >= 1 and -x >= -1 leave one point, which the projection returns
        k = Polyhedron(np.array([[1.0, -1.0]]), np.array([1.0, -1.0]))
        np.testing.assert_allclose(project_set(k, np.array([5.0])), [1.0])


class TestWrongLengthPoint:
    @pytest.mark.parametrize("k", ALL_SETS, ids=lambda k: type(k).__name__)
    def test_project_set_names_both_dimensions(self, k):
        with pytest.raises(ValueError, match="^x has dimension 3, but the set has dimension 2$"):
            project_set(k, np.zeros(3))


class TestConstruction:
    """A halfspace or hyperslab checks its normal with one dot.  It accepts
    and rejects what ``as_vector`` followed by ``np.linalg.norm`` did, with
    the same messages."""

    LINEAR = {
        "halfspace": ("c", lambda v: Halfspace(v, 0.5)),
        "hyperslab": ("a", lambda v: Hyperslab(v, -0.5, 1.5)),
    }

    @pytest.mark.parametrize("kind", sorted(LINEAR))
    @pytest.mark.parametrize("entries", [[np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf],
                                         [np.inf, -np.inf], [1e200, np.nan]])
    def test_non_finite_entries(self, kind, entries):
        name, make = self.LINEAR[kind]
        with pytest.raises(ValueError, match=f"^{name} has non-finite entries$"):
            make(np.array(entries))

    @pytest.mark.parametrize("kind", sorted(LINEAR))
    @pytest.mark.parametrize("entries", [[0.0, 0.0], [1e-200, 0.0], [-1e-170, 1e-170], []])
    def test_zero_normal(self, kind, entries):
        # (1e-200)^2 underflows to 0, so np.linalg.norm said 0 as well
        with pytest.raises(ValueError, match=f"^{kind} normal must be nonzero$"):
            self.LINEAR[kind][1](np.array(entries, dtype=float))

    @pytest.mark.parametrize("kind", sorted(LINEAR))
    @pytest.mark.parametrize("entries", [[1e200, 1e200], [1e-160, 0.0], [-3.0, 4.0]])
    def test_accepted(self, kind, entries):
        # the square of [1e200, 1e200] overflows; it passes with no overflow warning
        name, make = self.LINEAR[kind]
        k = make(entries)
        normal = getattr(k, name)
        assert isinstance(normal, np.ndarray) and normal.dtype == float
        assert normal.tolist() == entries

    @pytest.mark.parametrize("kind", sorted(LINEAR))
    def test_two_dimensional_normal(self, kind):
        name, make = self.LINEAR[kind]
        with pytest.raises(ValueError, match=rf"^{name} must be one-dimensional, got shape \(2, 2\)$"):
            make(np.eye(2))

    # a bound that leaves the set empty, and a NaN halfspace bound
    @pytest.mark.parametrize("make, message", [
        (lambda: Hyperslab([1.0, 0.0], np.inf, np.inf), "hyperslab requires lower < inf and upper > -inf"),
        (lambda: Hyperslab([1.0, 0.0], -np.inf, -np.inf), "hyperslab requires lower < inf and upper > -inf"),
        (lambda: Halfspace([1.0, 0.0], np.inf), "halfspace requires b < inf, got inf"),
        (lambda: Halfspace([1.0, 0.0], np.nan), "halfspace requires b < inf, got nan"),
        (lambda: Box([np.inf, 0.0], [np.inf, 1.0]), "box requires lower < inf and upper > -inf"),
        (lambda: Box([0.0, -np.inf], [1.0, -np.inf]), "box requires lower < inf and upper > -inf"),
    ], ids=["slab-lower-inf", "slab-upper-minus-inf", "halfspace-b-inf", "halfspace-b-nan",
            "box-lower-inf", "box-upper-minus-inf"])
    def test_empty_bounds_rejected(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_scalar_bounds_stored_as_floats(self):
        # the solvers' linear screen compares with the bounds as floats
        slab, half = Hyperslab([1.0, 0.0], np.float64(-1), 2), Halfspace([0.0, 1.0], 3)
        assert [type(v) for v in (slab.lower, slab.upper, half.b)] == [float] * 3
        assert (slab.lower, slab.upper, half.b) == (-1.0, 2.0, 3.0)
        assert Halfspace([1.0, 0.0], -np.inf).b == -np.inf

    @pytest.mark.parametrize("radius, expected", [
        (1, 1.0),
        (np.float64(2.5), 2.5),
        ("1", 1.0),  # float() reads it, as it reads a halfspace's b
        (np.array(3.0), 3.0),
        (np.array([1.0]), "only 0-dimensional arrays can be converted"),
        ([1.0], "float\\(\\) argument must be"),
        (np.array([1.0, 2.0]), "only 0-dimensional arrays can be converted"),
        (0, "radius must be positive"),
        ("nan", "radius must be positive"),
    ], ids=["int", "float64", "str", "0-d-array", "1-element-array", "list", "2-element-array",
            "zero", "nan"])
    def test_ball_radius_stored_as_float(self, radius, expected):
        if isinstance(expected, float):
            ball = Ball([0, 0], radius)
            assert type(ball.radius) is float and ball.radius == expected
        else:
            error = ValueError if "positive" in expected else TypeError
            with pytest.raises(error, match=expected):
                Ball([0, 0], radius)

    def test_huge_integer_entry_names_where(self):
        with pytest.raises(ValueError, match="^center: int too large to convert to float$"):
            Ball([10**400, 0], 1.0)

    def test_box_infinities_serialize_as_strings(self):
        box = Box(np.array([-np.inf, 0.0, -1.0]), np.array([1.0, np.inf, np.inf]))
        doc = problem_to_dict([box], np.zeros(3))
        assert doc["sets"][0] == {"type": "box", "lower": ["-inf", 0.0, -1.0],
                                  "upper": [1.0, "inf", "inf"]}
        assert json.dumps(doc["sets"][0]) == (
            '{"type": "box", "lower": ["-inf", 0.0, -1.0], "upper": [1.0, "inf", "inf"]}')
        assert np.array_equal(problem_from_dict(doc)[0][0].lower, box.lower)

    def test_hyperslab_infinite_bounds_serialize_as_strings(self):
        doc = problem_to_dict([Hyperslab([1.0, 2.0], -np.inf, np.inf)], [0, 1], witness=(2, 3))
        assert doc == {"sets": [{"type": "hyperslab", "a": [1.0, 2.0], "lower": "-inf", "upper": "inf"}],
                       "x0": [0.0, 1.0], "witness": [2.0, 3.0]}
        assert all(type(v) is float for v in doc["x0"] + doc["witness"] + doc["sets"][0]["a"])
