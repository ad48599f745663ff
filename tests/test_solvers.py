import math

import numpy as np
import pytest
from scipy.linalg import qr_delete

from projqp.activeset_qp import (
    FEAS_TOL,
    MONITOR,
    Infeasible,
    InvariantMonitor,
    NumericalError,
    QpProblem,
    STuple,
    _pick_violated,
    check_s_tuple,
    empty_s_tuple,
    gi_solve,
    inner_gi_step,
    verify_certificate,
)
from projqp.bench import TWO_CIRCLES_XBAR, generate_problem, two_circles_sets
from projqp.convex_sets import (
    Ball,
    Box,
    Halfspace,
    Hyperslab,
    Polyhedron,
    _linear_project,
    problem_from_dict,
    project_set,
    save_problem,
)
from projqp import activeset_qp, cli, convex_sets, linalg, solvers
from projqp.linalg import _RowScreen, qr_append_column, qr_factorize
from projqp.solvers import (
    HalfspaceStore,
    SolverOptions,
    solve,
    solve_bap,
    solve_dykstra,
    solve_haugazeau,
    solve_map,
    solve_sip,
)

# Table 1 of the benchmark writeup, column (a): distances to (0, sqrt(0.59))
TABLE1_BAP = [9.23e0, 2.95e0, 1.48e0, 2.16e-1, 1.54e-1, 1.60e-2,
              5.22e-3, 7.91e-5, 6.91e-6, 1.67e-9, 1.21e-11, 9.44e-16]
TABLE1_SIP = [9.23e0, 2.95e0, 7.98e-1, 1.70e-1, 7.57e-2, 8.04e-3,
              1.38e-3, 1.79e-5, 4.84e-7, 8.28e-11, 5.93e-14, 7.86e-16]


def agrees_2sf(value: float, table: float) -> bool:
    import math
    unit = 10.0 ** (math.floor(math.log10(abs(table))) - 1)
    return abs(value - table) <= 0.5 * unit * (1.0 + 1e-9)


class TestBap:
    def test_single_ball_one_projection(self):
        ball = Ball(np.array([3.0, 0.0]), 1.0)
        x0 = np.array([0.0, 0.0])
        rep = solve_bap(x0, [ball])
        assert rep.status == "solved"
        np.testing.assert_allclose(rep.x, project_set(ball, x0), atol=1e-12)
        assert len(rep.rows) == 2  # start plus the single working iteration

    def test_two_circles_matches_table(self, two_circles_runs):
        rep, rows = two_circles_runs["bap-gi"]
        assert rep.status == "solved"
        for i in range(1, 10):
            assert agrees_2sf(rows[i].dist, TABLE1_BAP[i]), f"row {i}"
        assert rows[11].dist <= 1e-14

    def test_distance_from_start_nondecreasing(self, two_circles_runs):
        rep, _ = two_circles_runs["bap-gi"]
        x0 = np.array([0.0, 10.0])
        opts = SolverOptions(feas_tol=1e-15, max_outer_iters=60, record_iterates=True)
        rep = solve_bap(x0, two_circles_sets(), opts)
        dists = [float(np.linalg.norm(r.x - x0)) for r in rep.rows if r.x is not None]
        for a, b in zip(dists, dists[1:]):
            assert b >= a - 1e-12

    def test_disjoint_balls_infeasible_with_certificate(self):
        sets = [Ball(np.array([3.0, 0.0]), 1.0), Ball(np.array([-3.0, 0.0]), 1.0)]
        rep = solve_bap(np.array([0.0, 10.0]), sets, SolverOptions(max_outer_iters=200))
        assert rep.status == "infeasible"
        c_mat, b_vec = rep.cert_system
        assert verify_certificate(rep.certificate, c_mat, b_vec)

    def test_stored_halfspaces_contain_witness(self):
        doc = generate_problem("balls-with-common-point", 3, 3, 11)
        sets, x0, extras = problem_from_dict(doc)
        w = np.asarray(extras["witness"])
        rep = solve_bap(x0, sets, SolverOptions(feas_tol=1e-10, max_outer_iters=500))
        assert rep.status == "solved"
        c_mat = rep.extras["store_normals"]
        b_vec = rep.extras["store_rhs"]
        if c_mat.size:
            assert float(np.min(c_mat.T @ w - b_vec)) >= -1e-9

    # `projqp gen --count 6` files whose BAP broke the s-tuple invariants.  On
    # the first three, a cut nearly dependent on the active normals took a
    # dual-only step, which left the final KKT residual above FEAS_TOL
    # (1 + ||x0||).  On the others, a cut just above COND_TOL got
    # z^T c_p <= 0 from round-off and a negative full step.
    @pytest.mark.parametrize("kind,n,seed", [
        ("balls-with-common-point", 10, 1477800422),
        ("balls-with-common-point", 10, 310589303),
        ("balls-with-common-point", 10, 1351353841),
        ("balls-with-common-point", 10, 1510822925),
        ("box-plus-ball", 10, 1126693252),
        ("box-plus-ball", 50, 523940182),
    ])
    def test_near_dependent_cuts_keep_the_kkt_identity(self, kind, n, seed):
        sets, x0, _ = problem_from_dict(generate_problem(kind, n, 6, seed))
        rep = solve_bap(x0, sets, SolverOptions(feas_tol=1e-9, max_outer_iters=100_000))
        assert rep.status == "solved"
        assert "partial" in [e for row in rep.rows for e in row.events]
        e = rep.extras
        kkt = x0 - rep.x + e["store_normals"][:, e["active_set"]] @ e["multipliers"]
        assert float(np.linalg.norm(kkt)) <= FEAS_TOL * (1.0 + float(np.linalg.norm(x0)))


class TestSip:
    def test_two_circles_matches_table(self, two_circles_runs):
        rep, rows = two_circles_runs["sip-gi"]
        assert rep.status == "solved"
        for i in range(1, 10):
            assert agrees_2sf(rows[i].dist, TABLE1_SIP[i]), f"row {i}"
        assert rows[10].dist <= 1e-12

    def test_max_store_zero_reduces_to_map(self, two_circles_runs):
        opts = SolverOptions(feas_tol=1e-15, max_outer_iters=80, max_store=0, record_iterates=True)
        sip = solve_sip(np.array([0.0, 10.0]), two_circles_sets(), opts)
        opts_map = SolverOptions(feas_tol=1e-15, max_outer_iters=80, record_iterates=True)
        map_rep = solve_map(np.array([0.0, 10.0]), two_circles_sets(), opts_map)
        n = min(len(sip.rows), len(map_rep.rows))
        assert n > 60
        for i in range(n):
            if sip.rows[i].x is None or map_rep.rows[i].x is None:
                continue
            assert float(np.linalg.norm(sip.rows[i].x - map_rep.rows[i].x)) <= 1e-12, f"row {i}"

    def test_feasible_start_returned_unchanged(self):
        sets = [Halfspace(np.array([0.0, 1.0]), -1.0), Ball(np.zeros(2), 2.0)]
        x0 = np.array([0.5, 0.5])
        rep = solve_sip(x0, sets)
        assert rep.status == "solved"
        np.testing.assert_allclose(rep.x, x0)
        assert len(rep.rows) == 1

    def test_fejer_toward_feasible_point(self):
        doc = generate_problem("balls-with-common-point", 3, 3, 21)
        sets, x0, extras = problem_from_dict(doc)
        w = np.asarray(extras["witness"])
        rep = solve_sip(x0, sets, SolverOptions(feas_tol=1e-10, max_outer_iters=400,
                                                record_iterates=True))
        assert rep.status == "solved"
        dists = [float(np.linalg.norm(r.x - w)) for r in rep.rows if r.x is not None]
        for a, b in zip(dists, dists[1:]):
            assert b <= a + 1e-9

    def test_box_fast_path(self):
        doc = generate_problem("box-plus-ball", 3, 2, 10)
        sets, x0, extras = problem_from_dict(doc)
        rep = solve_sip(x0, sets, SolverOptions(feas_tol=1e-10, max_outer_iters=200))
        assert rep.status == "solved"
        assert "box_solves" in rep.counts and rep.counts["box_solves"] >= 1
        for k in sets:
            assert float(np.linalg.norm(rep.x - project_set(k, rep.x))) <= 1e-9
        # the same box as the polyhedron of its 2n faces takes SIP's general path
        box, n = sets[0], 3
        faces = Polyhedron(np.hstack([np.eye(n), -np.eye(n)]), np.concatenate([box.lower, -box.upper]))
        generic = solve_sip(x0, [faces, *sets[1:]], SolverOptions(feas_tol=1e-10, max_outer_iters=400))
        assert generic.status == "solved"
        assert "box_solves" not in generic.counts

    def test_box_fast_path_infeasible(self):
        sets = [Box(np.zeros(2), np.ones(2)), Ball(np.array([5.0, 0.0]), 1.0)]
        rep = solve_sip(np.array([0.5, 0.5]), sets, SolverOptions(max_outer_iters=100))
        assert rep.status == "infeasible"
        c_mat, b_vec = rep.cert_system
        assert verify_certificate(rep.certificate, c_mat, b_vec)

    def test_far_start_drops_an_uncertified_block(self, monkeypatch):
        # from 1e24 (-1, 2) the second cut is nearly opposite the first, and
        # round-off blocks its step with a certificate that fails the check;
        # the zero multipliers drop the first cut and SIP reaches the lens.
        # The active residual of 3e8 on the way is the tolerance model's
        # scale question, so a private monitor takes it
        monkeypatch.setattr(activeset_qp, "MONITOR", InvariantMonitor())
        sets = two_circles_sets()
        opts = SolverOptions(max_outer_iters=300)
        rep = solve_sip(np.array([-1.0, 2.0]) * 1e24, sets, opts)
        assert rep.status == "solved"
        assert "uncertified" in rep.rows[2].events
        tol = opts.feas_tol * (1.0 + float(np.linalg.norm(rep.x)))
        for k in sets:
            assert float(np.linalg.norm(rep.x - project_set(k, rep.x))) <= tol


class TestMap:
    def test_two_circles_long_run(self, two_circles_runs):
        rep, rows = two_circles_runs["map"]
        assert rows[200].dist <= 1e-12
        tail = [rows[i].measure2 for i in range(180, 201)]
        assert abs(float(np.mean(tail)) - (-0.1405)) <= 0.005

    def test_single_set_one_projection(self):
        ball = Ball(np.array([3.0, 0.0]), 1.0)
        rep = solve_map(np.zeros(2), [ball])
        assert rep.status == "solved"
        np.testing.assert_allclose(rep.x, project_set(ball, np.zeros(2)), atol=1e-12)
        assert len(rep.rows) == 2


class TestDykstra:
    def test_two_circles_window(self, two_circles_runs):
        rep, rows = two_circles_runs["dykstra"]
        assert 4e-11 <= rows[2000].dist <= 4e-9

    def test_repeated_halfspace_is_single_projection(self):
        h = Halfspace(np.array([0.0, 1.0]), 1.0)
        x0 = np.array([0.3, -2.0])
        rep = solve_dykstra(x0, [h, h, h], SolverOptions(max_outer_iters=30))
        np.testing.assert_allclose(rep.x, project_set(h, x0), atol=1e-12)
        assert rep.status == "solved"

    def test_orthogonal_halfspaces_corner(self):
        sets = [Halfspace(np.array([1.0, 0.0]), 0.0), Halfspace(np.array([0.0, 1.0]), 0.0)]
        rep = solve_dykstra(np.array([-1.0, -1.0]), sets, SolverOptions(max_outer_iters=2000))
        np.testing.assert_allclose(rep.x, [0.0, 0.0], atol=1e-8)


def textbook_dykstra(x0, sets, opts):
    """Cyclic Dykstra as printed: every correction an array, every visit a
    projection of x plus its correction, the stop test after each cycle.
    Returns (status, x, counts, the iterate of each row)."""
    x = np.asarray(x0, dtype=float).copy()
    corrections = [np.zeros_like(x) for _ in sets]
    rows = [x.copy()]
    counts = {"projections": 0, "cycles": 0}
    moved = 0.0
    for visit in range(opts.max_outer_iters):
        i = visit % len(sets)
        if i == 0:
            moved = 0.0
        z = x + corrections[i]
        p = project_set(sets[i], z)
        counts["projections"] += 1
        corrections[i] = z - p
        moved = max(moved, float(np.linalg.norm(x - p)))
        x = p
        rows.append(x.copy())
        if i == len(sets) - 1:
            counts["cycles"] += 1
            tol = opts.feas_tol * (1.0 + float(np.linalg.norm(x)))
            if moved <= tol and all(float(np.linalg.norm(x - project_set(k, x))) <= tol for k in sets):
                return "solved", x, counts, rows
    return "iteration_limit", x, counts, rows


def slab_system(seed):
    """An n = 50 system of 200 slabs with an interior, and Dykstra's cap for it."""
    sets, x0, _ = problem_from_dict(generate_problem("hyperslabs-with-interior", 50, 200, seed))
    return sets, x0, 1000


class TestDykstraIdleVisits:
    """A visit that finds x inside a hyperslab or halfspace whose correction
    is zero skips the projection; the solve must still be the textbook
    loop's, byte for byte."""

    CASES = {
        "slabs-1000": lambda: slab_system(1000),
        "slabs-1001": lambda: slab_system(1001),
        "repeated-halfspaces": lambda: (
            [Halfspace(np.array([0.0, 1.0]), 1.0)] * 3 + [Halfspace(np.array([1.0, 1.0]), 0.5)] * 2,
            np.array([0.3, -2.0]), 200),
        "infinite-bounds": lambda: (
            [Hyperslab(np.array([1.0, 2.0]), -np.inf, 1.0), Ball(np.array([0.5, 0.5]), 1.0),
             Hyperslab(np.array([1.0, -1.0]), 0.25, np.inf)],
            np.array([3.0, 1.0]), 3000),
        "ball-box-slab": lambda: (
            [Ball(np.array([1.0, 0.0, 0.0]), 1.5), Box(np.full(3, -0.5), np.full(3, 2.0)),
             Hyperslab(np.array([1.0, 1.0, 1.0]), 0.0, 0.75), Halfspace(np.array([0.0, 1.0, -1.0]), 0.1),
             Hyperslab(np.array([0.0, 0.0, 1.0]), -10.0, 10.0)],
            np.array([4.0, -3.0, 2.0]), 3000),
        "start-inside": lambda: (
            [Hyperslab(np.array([1.0, 0.0]), -1.0, 1.0), Halfspace(np.array([1.0, 1.0]), -1.0),
             Ball(np.zeros(2), 2.0), Box(np.full(2, -1.5), np.full(2, 1.5))],
            np.array([0.25, 0.5]), 100),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_textbook_loop(self, case):
        sets, x0, cap = self.CASES[case]()
        opts = SolverOptions(feas_tol=1e-9, max_outer_iters=cap, record_iterates=True)
        status, x, counts, iterates = textbook_dykstra(x0, sets, opts)
        rep = solve_dykstra(x0, sets, opts)
        assert rep.x.tobytes() == x.tobytes()
        assert (rep.status, rep.counts) == (status, counts)
        assert [r.x.tobytes() for r in rep.rows] == [it.tobytes() for it in iterates]

    @staticmethod
    def _spoil(monkeypatch, at):
        """``TestNonFiniteIterates._spoil`` for Dykstra, whose visits to a set
        with no correction call ``_linear_project`` instead of ``_project``:
        such a visit that moves x counts as a projection too, and the
        ``at``-th projection returns inf entries either way."""
        calls = TestNonFiniteIterates._spoil(monkeypatch, at)

        def spoiled(k, x):
            p = _linear_project(k, x)
            if p is None:
                return None
            calls.append(k)
            return np.full_like(p, np.inf) if len(calls) == at else p

        monkeypatch.setattr(solvers, "_linear_project", spoiled)
        return calls

    def test_slab_solves_are_mostly_idle(self, monkeypatch):
        projected = self._spoil(monkeypatch, 0)  # counts the visits that move x
        sets, x0, cap = slab_system(1000)
        rep = solve_dykstra(x0, sets, SolverOptions(feas_tol=1e-9, max_outer_iters=cap))
        assert rep.counts["projections"] == cap
        assert len(projected) < cap // 2

    # the first visit is spoiled; the second set then has no correction (the
    # unbounded slab would hold even an inf x) or, after a cycle, a nonzero one
    SPOILED = {
        "idle": ([Hyperslab(np.array([1.0, 0.0]), 0.0, 1.0),
                  Hyperslab(np.array([1.0, 1.0]), -np.inf, np.inf)], 1, 1),
        "not-idle": ([Hyperslab(np.array([1.0, 0.0]), 0.0, 1.0),
                      Hyperslab(np.array([0.0, 1.0]), 0.0, 1.0)], 3, 3),
    }

    @pytest.mark.parametrize("case", sorted(SPOILED))
    def test_spoiled_projection_raises_at_the_next_visit(self, case, monkeypatch):
        sets, at, visit = self.SPOILED[case]
        x0 = np.array([5.0, 5.0])
        calls = self._spoil(monkeypatch, at)
        with np.errstate(invalid="ignore"):
            # a cap at the spoiled visit ends the solve before the next one
            rep = solve_dykstra(x0, sets, SolverOptions(max_outer_iters=visit))
            assert rep.status == "iteration_limit" and not np.isfinite(rep.x).all()
            if case == "idle":  # the next visit would find the spoiled x inside its set
                assert _linear_project(sets[visit], rep.x) is None
            calls.clear()
            with pytest.raises(ValueError, match="x has non-finite entries"):
                solve_dykstra(x0, sets, SolverOptions(max_outer_iters=visit + 1))
        assert len(calls) == at


class TestHaugazeau:
    def test_feasible_start(self):
        sets = two_circles_sets()
        x0 = np.array([0.0, 0.1])
        rep = solve_haugazeau(x0, sets)
        assert rep.status == "solved"
        np.testing.assert_allclose(rep.x, x0)

    def test_single_halfspace_one_iteration(self):
        h = Halfspace(np.array([0.0, 1.0]), 1.0)
        x0 = np.array([2.0, -1.0])
        rep = solve_haugazeau(x0, [h], SolverOptions(max_outer_iters=50))
        assert rep.status == "solved"
        np.testing.assert_allclose(rep.x, project_set(h, x0), atol=1e-12)
        assert len(rep.rows) == 2

    def test_short_run_descends(self):
        rep = solve_haugazeau(np.array([0.0, 10.0]), two_circles_sets(),
                              SolverOptions(feas_tol=1e-15, max_outer_iters=500, record_iterates=True))
        dist = [float(np.linalg.norm(rep.rows[i].x - TWO_CIRCLES_XBAR)) for i in (1, 500)]
        assert dist[1] < dist[0]

    @pytest.mark.parametrize("n", [2, 10])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_disjoint_sets_end_infeasible(self, n, seed):
        sets, x0 = disjoint_on_axis(n, seed)
        rep = solve_haugazeau(x0, sets)
        assert rep.status == "infeasible"
        assert rep.rows[-1].events[-1] == "infeasible"
        # the certificate is for the [aggregate, cut] store
        c_mat, b_vec = rep.cert_system
        assert c_mat.shape == (n, 2) and b_vec.shape == (2,)
        assert verify_certificate(rep.certificate, c_mat, b_vec)
        # the generated halfspace holds a ball whole: c.center - r >= b
        assert any(float(c_mat[:, 1] @ k.center) - k.radius >= b_vec[1] - 1e-12 for k in sets)


def haugazeau_subproblem(rng, n: int, case: str):
    """A random subproblem of Haugazeau's step: ``(x0, x, c1, b1)``, with x
    where the previous projection left it and the cut c1^T y >= b1 violated
    at x.

    "w-tiny" puts x 1e-7 from x0, and "infeasible" takes c1 opposite to the
    aggregate's normal (x - x0) / ||x - x0||, with a gap between the two
    halfspaces.
    """
    x0 = rng.standard_normal(n)
    d = rng.standard_normal(n)
    x = x0 + d * ((1e-7 if case == "w-tiny" else rng.uniform(0.5, 3.0)) / np.linalg.norm(d))
    c2 = (x - x0) / np.linalg.norm(x - x0)
    if case == "infeasible":
        return x0, x, -c2, -float(c2.dot(x)) + rng.uniform(0.1, 1.0)
    c1 = rng.standard_normal(n)
    c1 /= np.linalg.norm(c1)
    return x0, x, c1, float(c1.dot(x)) + rng.uniform(0.1, 2.0)


def collapsed(x0, x, cold=0.0):
    """BAP's store of two cuts collapsed at x (``solvers._aggregate``): the
    store, its s-tuple and the compaction's events."""
    store = HalfspaceStore()
    store.x_star = x0
    store.add(np.eye(x.shape[0])[0], 0.0)
    store.add(np.eye(x.shape[0])[1], 0.0)
    events = []
    s = solvers._aggregate(store, empty_s_tuple(x), x0, cold, events)
    return store, s, events


def warm_solve(qp, s):
    """``gi_solve``'s loop from the s-tuple ``s`` of ``qp``: inner steps,
    each entering the most violated constraint, until none is.  Returns the
    last s-tuple (or the ``Infeasible`` outcome) and the steps taken."""
    col_norms = np.linalg.norm(qp.c_mat, axis=0)
    steps = 0
    while True:
        p = _pick_violated(qp.c_mat.T.dot(s.x), qp.b, col_norms, s.x)
        if p < 0:
            return s, steps
        outcome = inner_gi_step(s, p, qp)
        steps += 1
        if isinstance(outcome, Infeasible):
            return outcome, steps
        s = outcome.s_tuple


class TestHaugazeauWarmStart:
    """BAP's compaction collapses the store to one aggregate halfspace with a
    valid s-tuple at x; Haugazeau's subproblem warm-started from it must
    have the cold engine's answer."""

    CASES = ("feasible", "w-tiny", "infeasible")

    @pytest.mark.parametrize("n", [2, 10, 50])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_cold_solve(self, n, case):
        rng = np.random.default_rng([n, self.CASES.index(case)])
        steps = {"cold": 0, "warm": 0}
        for _ in range(40):
            x0, x, c1, b1 = haugazeau_subproblem(rng, n, case)
            store, start, _ = collapsed(x0, x)
            store.add(c1, b1)
            qp = QpProblem(x0, store.matrix(), store.rhs_vector())
            cold = gi_solve(qp)
            warm, taken = warm_solve(qp, start)
            if case == "infeasible":
                assert isinstance(cold, Infeasible) and isinstance(warm, Infeasible)
                assert verify_certificate(warm.certificate, qp.c_mat, qp.b)
                continue
            assert np.linalg.norm(warm.x - cold.x) <= 1e-12 * (1.0 + np.linalg.norm(x0))
            assert taken <= cold.inner_steps
            steps["cold"] += cold.inner_steps
            steps["warm"] += taken
        assert steps["warm"] < steps["cold"] or case == "infeasible"

    @pytest.mark.parametrize("n", [2, 10, 50])
    @pytest.mark.parametrize("case", CASES)
    def test_start_is_a_valid_s_tuple(self, n, case):
        rng = np.random.default_rng([n, self.CASES.index(case), 1])
        for _ in range(10):
            x0, x, c1, b1 = haugazeau_subproblem(rng, n, case)
            store, start, events = collapsed(x0, x)
            assert events == ["agg"] and store.m == 1 and start.j_set == (0,)
            assert start.x.tobytes() == x.tobytes()
            mon = InvariantMonitor()
            assert check_s_tuple(start, store, "start", mon)
            assert (mon.checks, mon.violations) == (5, 0)

    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_cold_restart_near_x0(self, n):
        rng = np.random.default_rng([n, 2])
        x0 = rng.standard_normal(n)
        cold = 1e-9 * (1.0 + np.linalg.norm(x0))
        for offset in (0.0, 0.5 * cold, cold):
            d = rng.standard_normal(n)
            store, start, events = collapsed(x0, x0 + d * (offset / np.linalg.norm(d)), cold)
            assert events == ["cold"] and store.m == 0
            assert start.j_set == () and start.x.tobytes() == x0.tobytes()
            mon = InvariantMonitor()
            assert check_s_tuple(start, store, "cold", mon)
            assert (mon.checks, mon.violations) == (5, 0)

    @pytest.mark.parametrize("x0, x", [
        ([1e200, 1e200], [-1e200, 0.0]),  # ||x0 - x||^2 overflows, ||x0 - x|| does not
        ([1.5e308, 0.0], [-1.5e308, 0.0]),  # x0 - x overflows
    ])
    def test_overflowed_distance_raises(self, x0, x):
        x0, x = np.array(x0), np.array(x)
        with np.errstate(over="ignore"):
            if np.isfinite(x0 - x).all():
                # ||x0 - x|| is measured scaled: the aggregate has a unit normal
                store, start, events = collapsed(x0, x)
                assert events == ["agg"] and store.m == 1 and start.j_set == (0,)
                assert abs(np.hypot(*store.column(0)) - 1.0) <= 1e-15
                mon = InvariantMonitor()
                assert check_s_tuple(start, store, "far", mon)
                assert (mon.checks, mon.violations) == (5, 0)
                return
            store = HalfspaceStore()
            store.add(np.array([1.0, 0.0]), 0.0)
            events = []
            with pytest.raises(NumericalError, match="overflows"):
                solvers._aggregate(store, empty_s_tuple(x), x0, 0.0, events)
        assert store.m == 1 and events == []

    # each step moves 1e154, and the second lands at (1e154, 1e154), whose
    # squared distance from x0 overflows
    OVERFLOW_SETS = [Halfspace(np.array([1.0, 0.0]), 1e154), Halfspace(np.array([0.0, 1.0]), 1e154)]

    @pytest.mark.parametrize("method", ["haugazeau", "bap-gi"])
    def test_overflowed_distance_ends_the_solve(self, method):
        rep = solve(method, np.array([-1e154, 0.0]), self.OVERFLOW_SETS, SolverOptions(max_store=1))
        assert rep.status == "solved" and rep.x.tolist() == [1e154, 1e154]

    def test_overflowed_distance_exits_four(self, tmp_path, capsys):
        # ||x0 - x|| ~ 2.26e308 is no float, so no aggregate has a length
        problem = tmp_path / "p.json"
        save_problem(problem, OVERFLOW_DOC, np.zeros(2))
        assert cli.main(["solve", "--problem", str(problem), "--method", "haugazeau"]) == cli.EXIT_BREAKDOWN
        assert capsys.readouterr().err.splitlines() == [
            "projqp: error: numerical breakdown: ||x0 - x|| overflows: no aggregate halfspace"]

    def test_one_inner_step_per_iteration_on_two_circles(self):
        checks = MONITOR.checks
        rep = solve_haugazeau(np.array([0.0, 10.0]), two_circles_sets(),
                              SolverOptions(feas_tol=1e-15, max_outer_iters=500))
        assert rep.counts["inner_steps"] == len(rep.rows) - 1 == 500
        # each engine step checks the five s-tuple invariants and the
        # v-increase, and the compaction after it the five again
        assert MONITOR.checks - checks == 11 * 500

    def test_large_offset_runs_clean(self):
        # cold, each subproblem's scan re-entered the active halfspace and raised
        checks, violations = MONITOR.checks, MONITOR.violations
        rep = solve("haugazeau", np.array([1e8, 1e8]), two_circles_sets(),
                    SolverOptions(max_outer_iters=2000))
        assert rep.status == "iteration_limit" and np.isfinite(rep.x).all()
        assert MONITOR.checks > checks and MONITOR.violations == violations


# Haugazeau's method as a loop of its own, kept as the oracle: at every step
# it stacks the cut and the aggregate halfspace into a validated problem and
# solves it from the aggregate's s-tuple with gi_solve's loop.

def haugazeau_start(x, c2, wn):
    """The s-tuple of the subproblem at x with the aggregate c2 (its second
    column) active: x0 - x = -c2 wn."""
    return STuple(x, (1,), np.array([wn]), qr_append_column(qr_factorize(np.zeros((x.shape[0], 0))), c2))


def haugazeau_loop(x0, sets, opts):
    x0 = solvers._start(x0, sets)
    x0_norm = math.sqrt(float(x0.dot(x0)))
    counts = {"projections": 0, "inner_steps": 0}

    def step(x, p, dist, index):
        c1, b1 = solvers._cut(x, p, dist)
        w = x0 - x
        wn = math.sqrt(float(w.dot(w)))
        if wn > opts.feas_tol * (1.0 + x0_norm):
            c2 = -w / wn
            c_mat, b_vec = np.column_stack([c1, c2]), np.array([b1, float(c2.dot(x))])
            start = haugazeau_start(x, c2, wn)
        else:
            c_mat, b_vec = np.column_stack([c1]), np.array([b1])
            start = empty_s_tuple(x0)
        res, steps = warm_solve(QpProblem(x0, c_mat, b_vec), start)
        counts["inner_steps"] += steps
        if isinstance(res, Infeasible):
            return x, ("infeasible",), (res.certificate, (c_mat, b_vec))
        return res.x, (), None

    return solvers._cyclic(x0, x0.copy(), sets, opts, counts, step)


class TestHaugazeauOracle:
    """``solve_haugazeau`` reports what the oracle loop above reports: the
    same status, counts and rows, with iterates that agree to round-off
    (byte for byte on two-circles), and a certificate that checks out."""

    @staticmethod
    def agrees(rep, ref, exact=False):
        assert rep.status == ref.status
        assert list(rep.counts.items()) == list(ref.counts.items())
        assert len(rep.rows) == len(ref.rows)
        for got, want in zip([rep.x] + [r.x for r in rep.rows], [ref.x] + [r.x for r in ref.rows]):
            if exact:
                assert got.tobytes() == want.tobytes()
            assert np.linalg.norm(got - want) <= 1e-12 * (1.0 + np.linalg.norm(want))
        assert (rep.certificate is None) == (ref.certificate is None)
        if rep.certificate is not None:
            assert verify_certificate(rep.certificate, *rep.cert_system)

    def test_two_circles(self):
        opts = SolverOptions(feas_tol=1e-15, max_outer_iters=2000, record_iterates=True)
        x0 = np.array([0.0, 10.0])
        rep = solve_haugazeau(x0, two_circles_sets(), opts)
        assert len(rep.rows) == 2001
        self.agrees(rep, haugazeau_loop(x0, two_circles_sets(), opts), exact=True)

    @pytest.mark.parametrize("n", [2, 10])
    def test_disjoint_balls(self, n):
        sets, x0 = disjoint_on_axis(n, 1)
        opts = SolverOptions(record_iterates=True)
        rep = solve_haugazeau(x0, sets, opts)
        assert rep.status == "infeasible"
        self.agrees(rep, haugazeau_loop(x0, sets, opts))

    # the feasible kinds: off the axis, disjoint balls run the iterates off
    # with monitor violations (disjoint_on_axis keeps to the axis)
    @pytest.mark.parametrize("n", [2, 10, 50])
    @pytest.mark.parametrize("kind", ["balls-with-common-point", "box-plus-ball", "hyperslabs-with-interior"])
    def test_generated(self, kind, n):
        sets, x0, _ = problem_from_dict(generate_problem(kind, n, 4, 7))
        opts = SolverOptions(max_outer_iters=300, record_iterates=True)
        self.agrees(solve_haugazeau(x0, sets, opts), haugazeau_loop(x0, sets, opts))


class TestRoundOffCut:
    """With feas_tol = 0 a visit at a round-off distance from a set gives a
    cut the steps see as satisfied at x; the visit is clean."""

    @pytest.mark.parametrize("method", ["bap-gi", "sip-gi"])
    def test_tol0_hyperslabs_solve(self, method):
        sets, x0, _ = problem_from_dict(generate_problem("hyperslabs-with-interior", 10, 6, 3))
        rep = solve(method, x0, sets, SolverOptions(feas_tol=0.0))
        assert rep.status == "solved"
        scale = 1e-12 * (1.0 + np.linalg.norm(rep.x))
        assert all(np.linalg.norm(rep.x - project_set(k, rep.x)) <= scale for k in sets)
        np.testing.assert_allclose(rep.x, solve(method, x0, sets).x, atol=1e-9)

    @pytest.mark.parametrize("method", ["bap-gi", "sip-gi"])
    def test_clean_cut_adds_no_row(self, method, monkeypatch):
        # a cut whose boundary passes through x is satisfied there by the
        # steps' own test, so every visit is clean: no step, no row
        monkeypatch.setattr(solvers, "_cut", lambda x, p, dist: ((p - x) / dist, float(((p - x) / dist).dot(x))))
        sets = [Ball(np.zeros(2), 1.0)]
        rep = solve(method, np.array([3.0, 4.0]), sets, SolverOptions(max_outer_iters=5))
        assert rep.status == "solved" and len(rep.rows) == 1
        assert rep.counts["outer_iterations"] == rep.counts["inner_steps"] == 0


def disjoint_on_axis(n: int, seed: int):
    """Two disjoint balls on the first axis, as the ``infeasible-balls``
    generator draws them, with x0 on the same axis.  Off the axis,
    Haugazeau's iterates run off to |x| ~ 1e11 before the subproblem is
    empty, and the invariant monitor flags the engine's KKT residuals there
    (the engine at large offsets)."""
    rng = np.random.default_rng(seed)
    r1, r2, gap = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0)
    e = np.eye(n)[0]
    return [Ball(e * (r1 + gap / 2.0), r1), Ball(-e * (r2 + gap / 2.0), r2)], 3.0 * e


class TestAggregation:
    """BAP's capped store collapses to one aggregate halfspace."""

    def test_bap_with_store_cap_still_solves(self):
        doc = generate_problem("balls-with-common-point", 2, 3, 33)
        sets, x0, extras = problem_from_dict(doc)
        rep = solve_bap(x0, sets, SolverOptions(feas_tol=1e-9, max_outer_iters=500, max_store=2))
        assert rep.status == "solved"
        assert rep.extras["store_normals"].shape[1] <= 2

    # the pairwise merge these replaced ran the iterates off to 6e8-3e14 on
    # these files, with 4-7 monitor violations, and 3 of its 6 certificates
    # failed the Farkas check
    @pytest.mark.parametrize("n", [2, 10])
    @pytest.mark.parametrize("seed", [0, 1, 100])
    def test_capped_store_on_disjoint_balls(self, n, seed):
        sets, x0, _ = problem_from_dict(generate_problem("infeasible-balls", n, 2, seed))
        violations = MONITOR.violations
        rep = solve_bap(x0, sets, SolverOptions(max_store=2, record_iterates=True))
        assert rep.status == "infeasible" and MONITOR.violations == violations
        assert verify_certificate(rep.certificate, *rep.cert_system)
        assert rep.cert_system[0].shape[1] <= 3  # the cap and the new cut
        assert max(float(np.linalg.norm(r.x)) for r in rep.rows) <= 100.0


class TestHalfspaceStore:
    """The row buffer against a plain list of the same halfspaces."""

    @staticmethod
    def filled(count: int, n: int = 3):
        rng = np.random.default_rng(count)
        store, ref = HalfspaceStore(), []
        for k in range(count):
            c, b = rng.normal(size=n), float(rng.normal())
            assert store.add(c, b, source=k % 4) == k
            ref.append((c, b, k % 4))
        return store, ref

    @staticmethod
    def agrees(store, ref) -> None:
        assert store.m == len(ref)
        for j, (c, b, source) in enumerate(ref):
            assert store.column(j).tobytes() == c.tobytes()
            assert store.rhs(j) == b and type(store.rhs(j)) is float
            assert store.source[j] == source
        normals, rhs = store.matrix(), store.rhs_vector()
        if ref:
            assert normals.tobytes() == np.column_stack([c for c, *_ in ref]).tobytes()
            assert normals.flags.c_contiguous
        else:
            assert normals.shape == (0, 0)
        assert rhs.tobytes() == np.array([b for _, b, *_ in ref], dtype=float).tobytes()

    @pytest.mark.parametrize("count", [1, 8, 9, 40])
    def test_growth_past_capacity(self, count):
        store, ref = self.filled(count)
        self.agrees(store, ref)
        js = [count - 1, 0, count // 2]
        assert store.rows(js).tobytes() == np.array([ref[j][0] for j in js]).tobytes()
        assert store.rhs_at(js).tolist() == [ref[j][1] for j in js]

    def test_remove_shifts_later_columns(self):
        store, ref = self.filled(20)
        for j in (7, 0, 17, 5):
            store.remove(j)
            del ref[j]
            self.agrees(store, ref)
        assert store.column(6).tobytes() == ref[6][0].tobytes()

    def test_indices_past_the_last_column_raise(self):
        store, ref = self.filled(3)  # capacity 8
        assert store.column(-1).tobytes() == ref[-1][0].tobytes() and store.rhs(-1) == ref[-1][1]
        for bad in (3, 7):
            with pytest.raises(IndexError):
                store.column(bad)
            with pytest.raises(IndexError):
                store.rhs(bad)
            with pytest.raises(IndexError):
                store.rows([0, bad])

    def test_clear_then_refill(self):
        store, _ = self.filled(12)
        store.clear()
        self.agrees(store, [])
        c = np.array([1.0, -2.0, 0.5])
        assert store.add(c, 3.0, source=1) == 0
        self.agrees(store, [(c, 3.0, 1)])

    def test_snapshots_do_not_follow_the_store(self):
        store, ref = self.filled(9)
        normals, rhs, rows = store.matrix(), store.rhs_vector(), store.rows([1, 2])
        store.remove(0)
        store.add(np.zeros(3), 0.0)
        assert normals.tobytes() == np.column_stack([c for c, *_ in ref]).tobytes()
        assert rhs.tolist() == [b for _, b, *_ in ref]
        assert rows.tobytes() == np.array([ref[1][0], ref[2][0]]).tobytes()


class TestBapDykstraAgreement:
    @pytest.mark.parametrize("seed", [3, 8, 15])
    def test_limits_agree(self, seed):
        doc = generate_problem("balls-with-common-point", 3, 3, seed)
        sets, x0, extras = problem_from_dict(doc)
        bap = solve_bap(x0, sets, SolverOptions(feas_tol=1e-12, max_outer_iters=2000))
        dyk = solve_dykstra(x0, sets, SolverOptions(feas_tol=1e-11, max_outer_iters=300_000))
        assert bap.status == "solved"
        assert float(np.linalg.norm(bap.x - dyk.x)) <= 1e-6


class TestLargeActiveSets:
    """BAP on n = 50 hyperslab systems holds active sets of 10 and more
    normals, where a blocking multiplier deletes an interior QR column
    through scipy's compiled sweep; the warm answer must still be the cold
    projection onto the final store."""

    @pytest.mark.parametrize("seed", [1000, 1001])
    def test_warm_bap_matches_cold_projection(self, seed, monkeypatch):
        sweeps = []

        def counted(q_mat, r_mat, *args, **kwargs):
            sweeps.append(r_mat.shape[0])
            return qr_delete(q_mat, r_mat, *args, **kwargs)

        monkeypatch.setattr(linalg, "qr_delete", counted)
        sets, x0, _ = problem_from_dict(generate_problem("hyperslabs-with-interior", 50, 200, seed))
        rep = solve_bap(x0, sets, SolverOptions(feas_tol=1e-9, max_outer_iters=100_000))
        assert rep.status == "solved"
        assert sum(q >= 10 for q in sweeps) >= 1
        cold = gi_solve(QpProblem(x0, rep.extras["store_normals"], rep.extras["store_rhs"]))
        gap = float(np.linalg.norm(rep.x - cold.x))
        assert gap <= 1e-12 * float(np.linalg.norm(cold.x))


class TestStartValidation:
    """Every entry point checks x0 once, against the dimension of the sets."""

    ENTRY_POINTS = {
        "solve": lambda x0, sets: solve("bap-gi", x0, sets),
        "solve_bap": solve_bap,
        "solve_sip": solve_sip,
        "solve_sip_one_box": lambda x0, sets: solve_sip(
            x0, sets + [Box(np.full(2, -10.0), np.full(2, 10.0))]),
        "solve_map": solve_map,
        "solve_dykstra": solve_dykstra,
        "solve_haugazeau": solve_haugazeau,
    }
    METHODS = ("bap-gi", "sip-gi", "map", "dykstra", "haugazeau")

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_dimension_mismatch_names_both(self, entry):
        with pytest.raises(ValueError, match="x0 has dimension 3, but the problem has dimension 2"):
            self.ENTRY_POINTS[entry](np.zeros(3), two_circles_sets())

    def test_sets_of_different_dimensions(self):
        sets = [Ball(np.zeros(2), 1.0), Ball(np.zeros(3), 1.0)]
        with pytest.raises(ValueError, match=r"different dimensions \[2, 3\]"):
            solve_map(np.zeros(2), sets)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("x0", [[1e300, 1e300], [1e154, -1e154], [-1e200, 0.0]])
    def test_overflowing_start_rejected(self, entry, x0):
        with pytest.raises(ValueError, match="x0 is too large"):
            self.ENTRY_POINTS[entry](np.array(x0), two_circles_sets())

    # sets centred 1e200 out: the iterates' x.x overflows although x0's does not
    FAR_SETS = {
        "far-pair": [Ball(np.array([1e200, 0.0]), 1.0), Ball(np.array([1e200, 5.0]), 1.0)],
        "far-and-origin": [Ball(np.array([1e200, 0.0]), 1.0), Ball(np.zeros(2), 1.0)],
        "origin-and-far": [Ball(np.zeros(2), 1.0), Ball(np.array([1e200, 0.0]), 1.0)],
    }
    SOLVED_CASES = [("two-circles", x0) for x0 in
                    ([1e300, 1e300], [1e154, 1e154], [1e6, -1e6], [0.0, 1e6])]
    SOLVED_CASES += [(name, [0.0, 0.0]) for name in sorted(FAR_SETS)] + [("origin-and-far", [3.0, 0.0])]

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("case,x0", SOLVED_CASES)
    def test_solved_lies_in_every_set(self, method, case, x0):
        sets = two_circles_sets() if case == "two-circles" else self.FAR_SETS[case]
        opts = SolverOptions(max_outer_iters=2000)
        try:
            rep = solve(method, np.array(x0), sets, opts)
        except ValueError as exc:
            assert "too large" in str(exc)
            return
        if rep.status == "solved":
            # feas_tol is relative to 1 + ||x||, computed here without overflow
            tol = opts.feas_tol * (1.0 + math.hypot(*rep.x))
            for k in sets:
                assert float(np.linalg.norm(rep.x - project_set(k, rep.x))) <= tol


class TestFarCuts:
    """A cut from an x whose distance to its set has an overflowing square
    gets a finite length (``linalg.norm``), so the active-set methods step
    there as MAP and Dykstra do."""

    @pytest.mark.parametrize("method", TestStartValidation.METHODS)
    @pytest.mark.parametrize("x0", [[-1e154, 0.0], [1.0, -1e154]])
    def test_far_halfspaces_solve(self, method, x0):
        rep = solve(method, np.array(x0), TestHaugazeauWarmStart.OVERFLOW_SETS)
        assert rep.status == "solved" and rep.x.tolist() == [1e154, 1e154]

    @pytest.mark.parametrize("method", ["bap-gi", "sip-gi"])
    def test_overflow_document_is_infeasible(self, method):
        rep = solve(method, np.zeros(2), OVERFLOW_DOC)
        assert rep.status == "infeasible"
        assert verify_certificate(rep.certificate, *rep.cert_system)

    def test_step_between_overflowed_objectives(self):
        # v = ||x - x*||^2 / 2 overflows before and after the second step
        qp = QpProblem(np.zeros(2), np.eye(2), np.full(2, 1e308))
        mon = InvariantMonitor()
        with np.errstate(over="ignore"):
            first = inner_gi_step(empty_s_tuple(qp.x_star), 0, qp, mon)
            second = inner_gi_step(first.s_tuple, 1, qp, mon)
        assert second.s_tuple.x.tolist() == [1e308, 1e308]
        assert (mon.checks, mon.violations) == (12, 0)


class TestNonFiniteIterates:
    """Visits project with ``_project``, which trusts x; a non-finite iterate
    or projection still ends the solve with a ``ValueError``."""

    # the first slab's projection of 0 overflows: (1e160 / 1e-320) a = (inf, nan)
    OVERFLOW = [Hyperslab(np.array([1e-160, 0.0]), 1e160, 1e160), Hyperslab(np.array([1.0, 0.0]), -1.0, 1.0)]

    @pytest.mark.parametrize("method", TestStartValidation.METHODS)
    def test_overflowing_projection_raises(self, method):
        match = "x has non-finite entries" if method == "dykstra" else "projection onto set 0"
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=match):
            solve(method, np.zeros(2), self.OVERFLOW)

    @staticmethod
    def _spoil(monkeypatch, at):
        """Make the ``at``-th projection of a solve return inf entries."""
        calls = []

        def spoiled(k, x):
            calls.append(k)
            p = project_set(k, x)
            return np.full_like(p, np.inf) if len(calls) == at else p

        monkeypatch.setattr(solvers, "_project", spoiled)
        return calls

    def test_map_raises_at_the_spoiled_projection(self, monkeypatch):
        calls = self._spoil(monkeypatch, 3)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="projection onto set 0"):
            solve_map(np.array([0.0, 10.0]), two_circles_sets())
        assert len(calls) == 3

    def test_dykstra_raises_at_the_next_visit(self, monkeypatch):
        calls = self._spoil(monkeypatch, 3)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="x has non-finite entries"):
            solve_dykstra(np.array([0.0, 10.0]), two_circles_sets())
        assert len(calls) == 3

    def test_dykstra_accepts_a_finite_z_whose_square_overflows(self):
        sets = [Ball(np.array([1e200, 0.0]), 1.0), Ball(np.array([1e200, 5.0]), 1.0)]
        with np.errstate(over="ignore"):
            rep = solve_dykstra(np.zeros(2), sets, SolverOptions(max_outer_iters=50))
        assert np.isfinite(rep.x).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_cyclic_raises_at_the_visit_after_a_non_finite_step(self, bad):
        x0 = np.array([0.0, 10.0])
        steps = []

        def step(x, p, dist, index):
            steps.append(index)
            return np.array([1.0, bad]), ("spoil",), None

        counts = {"projections": 0}
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="x has non-finite entries"):
            solvers._cyclic(x0, x0, two_circles_sets(), SolverOptions(), counts, step)
        # one step, at the first visit, and no projection after it
        assert steps == [0] and counts["projections"] == 1
        # a cap at the spoiled step's visit ends the solve before the check
        rep = solvers._cyclic(x0, x0, two_circles_sets(), SolverOptions(max_outer_iters=1),
                              {"projections": 0}, step)
        assert rep.status == "iteration_limit"


# sets whose iterates reach entries near 1.6e308, where ||x|| overflows:
# alternating between the slab and the far sets never finds a common point
OVERFLOWED_NORM = {
    "slab-halfspaces": [Hyperslab(np.array([1.0, 0.0]), 0.0, 1.0),
                        Halfspace(np.array([1.0, 0.0]), 1.6e308),
                        Halfspace(np.array([0.0, 1.0]), 1.6e308)],
    "ball-slab": [Ball(np.array([1.5e308, 1.5e308]), 1.0), Hyperslab(np.array([1.0, 0.0]), 0.0, 1.0)],
}


class TestOverflowedNorm:
    """Where ||x|| overflows, the stop bound feas_tol (1 + ||x||) is still
    finite, so a point far outside a set is never ``solved``."""

    @pytest.mark.parametrize("case", sorted(OVERFLOWED_NORM))
    def test_map_runs_to_its_cap(self, case):
        rep = solve_map(np.zeros(2), OVERFLOWED_NORM[case], SolverOptions(max_outer_iters=50))
        assert rep.status == "iteration_limit"
        assert rep.counts == {"projections": 50}
        assert np.isfinite(rep.x).all()

    @pytest.mark.parametrize("case", sorted(OVERFLOWED_NORM))
    def test_dykstra_raises(self, case):
        with pytest.raises(ValueError, match="x has non-finite entries"):
            solve_dykstra(np.zeros(2), OVERFLOWED_NORM[case])

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.5, 1e300])
    def test_bound(self, tol):
        bound = solvers._stop_bound
        rng = np.random.default_rng(7)
        with np.errstate(over="ignore"):
            for scale in (1.0, 1e-200, 1e100, 1e160, 1e300, 5e307):
                x = scale * rng.normal(size=5)
                sq = float(x.dot(x))
                if sq < math.inf:  # the bound the drivers always used
                    assert bound(x, tol) == tol * (1.0 + math.sqrt(sq))
                    continue
                # ||x|| scaled; where that overflows too, the bound is capped
                big = float(np.abs(x).max())
                s = float(np.linalg.norm(x / big))
                if big * s < math.inf:
                    assert bound(x, tol) == tol * (1.0 + big * s)
                else:
                    assert bound(x, tol) == min(tol * s * big, np.finfo(float).max)
            x = np.array([1.6e308, 1.6e308])
            assert bound(x, tol) == min(tol * math.sqrt(2.0) * 1.6e308, np.finfo(float).max)
            for bad in (math.nan, math.inf, -math.inf):
                assert math.isnan(bound(np.array([1.0, bad]), tol))


# sets whose normals' squares overflow, each with its start: the visits
# step along the normal divided by its largest entry
OVERFLOWED_NORMAL = {
    "halfspace-ball": ([Halfspace(np.array([1e200, 0.0]), 1e200), Ball(np.zeros(2), 5.0)], [0.0, 0.0]),
    "slab-halfspace-ball": ([Hyperslab(np.array([1e200, 0.0]), 0.0, 1e200),
                             Halfspace(np.array([0.0, 1e200]), 1e200),
                             Ball(np.zeros(2), 5.0)], [3.0, -2.0]),
    "four-linear": ([Hyperslab(np.array([1e200, 0.0]), 0.0, 1e200),
                     Halfspace(np.array([0.0, 1e200]), 1e200),
                     Hyperslab(np.array([1e200, 1e200]), 0.0, 3e200),
                     Halfspace(np.array([-1e200, 1e200]), -5e199)], [3.0, -2.0]),
}


def _holds(k, x) -> bool:
    """Exact membership, from each set's definition."""
    if isinstance(k, Ball):
        d = x - k.center
        return math.sqrt(float(d @ d)) <= k.radius
    if isinstance(k, Halfspace):
        return float(np.vdot(k.c, x)) >= k.b
    s = float(np.vdot(k.a, x))
    return k.lower <= s <= k.upper


class TestOverflowedNormal:
    """A visit to a set whose normal's square overflows moves x onto the
    set, so no method ends ``solved`` at a point outside it."""

    @pytest.mark.parametrize("method", TestStartValidation.METHODS)
    @pytest.mark.parametrize("case", sorted(OVERFLOWED_NORMAL))
    def test_solved_inside_every_set(self, method, case):
        sets, x0 = OVERFLOWED_NORMAL[case]
        rep = solve(method, np.array(x0), sets)
        assert rep.status == "solved"
        assert all(_holds(k, rep.x) for k in sets), rep.x
        assert not _holds(sets[0], np.array(x0))  # x0 itself is outside


class TestOverflowedDot:
    """A start whose dot with a slab's or halfspace's normal overflows: the
    visit projects onto the row divided by max|a|, so every method ends
    ``solved`` inside every set, with no warning."""

    FAR = [-1e110, 0.0]
    CASES = {  # the sets, x0, and the answer x where it is exact
        "slab": ([Hyperslab(np.array([1e200, 0.0]), 0.0, 1e200), Ball(np.zeros(2), 5.0)], FAR, [0.0, 0.0]),
        "halfspace": ([Halfspace(np.array([1e200, 0.0]), 0.0), Ball(np.zeros(2), 5.0)], FAR, [0.0, 0.0]),
        # x0 close enough that the engine's step onto the ball's cut is exact
        "open-halfspace": ([Halfspace(np.array([1e300, 0.0]), -math.inf), Ball(np.zeros(2), 5.0)],
                           [-1e10, 0.0], None),
    }

    @pytest.mark.parametrize("method", TestStartValidation.METHODS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_solved_inside_every_set(self, method, case):
        sets, x0, x = self.CASES[case]
        rep = solve(method, np.array(x0), sets)
        assert rep.status == "solved"
        assert all(_holds(k, rep.x) for k in sets), rep.x
        assert x is None or rep.x.tolist() == x


class TestOptionValidation:
    """Each field is checked on construction; a bad value names its field."""

    BAD = {
        "feas_tol": [-1e-9, math.nan, math.inf, "1e-9", True],
        "max_outer_iters": [0, -5, 10.0, "100", True],
        "max_store": [-1, 2.5, "4"],
        "record_iterates": ["yes", 1, None],
    }

    @pytest.mark.parametrize("name", sorted(BAD))
    def test_bad_value_names_field(self, name):
        for value in self.BAD[name]:
            with pytest.raises(ValueError, match=f"SolverOptions.{name} must be"):
                SolverOptions(**{name: value})

    def test_every_field_is_checked(self):
        assert set(self.BAD) == set(SolverOptions.__dataclass_fields__)

    def test_documented_values_accepted(self):
        SolverOptions(feas_tol=0.0, max_outer_iters=1, max_store=0, record_iterates=True)
        SolverOptions(max_outer_iters=np.int64(5), max_store=np.int64(2))


class TestStoreCompaction:
    """Removing a stored halfspace renumbers the later ones; the kept
    active set must still name stored halfspaces, and the invariant
    monitor (checked by the conftest guard) must stay quiet."""

    @pytest.mark.parametrize("method", ["bap-gi", "sip-gi"])
    @pytest.mark.parametrize("max_store", [0, 1, 2])
    def test_capped_store_keeps_active_set_consistent(self, method, max_store):
        doc = generate_problem("balls-with-common-point", 3, 4, 5)
        sets, x0, _ = problem_from_dict(doc)
        rep = solve(method, x0, sets, SolverOptions(feas_tol=1e-9, max_outer_iters=3000,
                                                    max_store=max_store))
        assert rep.status == "solved"
        m = rep.extras["store_rhs"].shape[0]
        # BAP's store collapses to one active aggregate, which max_store=0 keeps
        assert m <= max_store or (method == "bap-gi" and m == len(rep.extras["active_set"]))
        assert all(0 <= j < m for j in rep.extras["active_set"])
        assert len(set(rep.extras["active_set"])) == len(rep.extras["active_set"])
        for k in sets:
            assert float(np.linalg.norm(rep.x - project_set(k, rep.x))) <= 1e-9 * (1.0 + np.linalg.norm(rep.x))

    SIP_CASES = {
        "two-circles": lambda: (two_circles_sets(), np.array([0.0, 10.0])),
        "slabs": lambda: problem_from_dict(generate_problem("hyperslabs-with-interior", 10, 40, 0))[:2],
    }

    @staticmethod
    def replay_sip_store(rep) -> tuple[int, list[int], dict]:
        """Replay SIP's store from the trace events: check that each eviction
        takes the lowest-positioned inactive column, or the lowest active one
        when all are active, and return the store size, the active set and
        the count of each eviction kind."""
        m, active, kinds = 0, [], {"evict": 0, "evict-active": 0}
        for row in rep.rows[1:]:
            for event in row.events:
                name, _, arg = event.partition(":")
                if event.startswith("H+"):
                    assert int(event[2:]) == m
                    m += 1
                elif name == "drop":
                    active.remove(int(arg))
                elif name == "add":
                    active.append(int(arg))
                elif name in kinds:
                    target = int(arg)
                    inactive = [j for j in range(m) if j not in active]
                    if name == "evict":
                        assert target == inactive[0], event
                    else:
                        assert not inactive and target == min(active), event
                        active.remove(target)
                    kinds[name] += 1
                    m -= 1
                    active = [j - (j > target) for j in active]
        return m, active, kinds

    @pytest.mark.parametrize("case", sorted(SIP_CASES))
    def test_sip_evicts_the_oldest_column(self, case):
        sets, x0 = self.SIP_CASES[case]()
        seen = {"evict": 0, "evict-active": 0}
        for cap in (1, 2):
            rep = solve_sip(x0, sets, SolverOptions(max_outer_iters=3000, max_store=cap))
            assert rep.status == "solved"
            m, active, kinds = self.replay_sip_store(rep)
            assert m == rep.extras["store_rhs"].shape[0] <= cap
            assert active == rep.extras["active_set"]
            seen = {k: seen[k] + kinds[k] for k in seen}
        assert min(seen.values()) > 0  # both kinds of eviction ran

    @pytest.mark.parametrize("case", sorted(SIP_CASES))
    def test_store_free_sip_empties_after_every_step(self, case):
        sets, x0 = self.SIP_CASES[case]()
        rep = solve_sip(x0, sets, SolverOptions(max_outer_iters=3000, max_store=0))
        assert rep.status == "solved" and len(rep.rows) > 5
        assert all(row.events[-1] == "evict-active:0" for row in rep.rows[1:])
        assert rep.extras["store_rhs"].shape == (0,) and rep.extras["active_set"] == []
        assert rep.extras["multipliers"].shape == (0,)

    def test_bap_cap_is_soft(self):
        # the store collapses to one aggregate halfspace, active at x
        sets, x0, _ = problem_from_dict(generate_problem("balls-with-common-point", 3, 4, 5))
        rep = solve_bap(x0, sets, SolverOptions(max_store=0))
        assert rep.status == "solved"
        assert rep.extras["store_rhs"].shape == (1,)
        assert rep.extras["active_set"] == [0]


def _outcome(method, x0, sets, opts):
    """Everything a solve reports, in comparable form (a raise included),
    and the invariant checks it made."""
    checks = MONITOR.checks
    try:
        rep = solve(method, x0, sets, opts)
    except Exception as exc:  # noqa: BLE001 - the raise itself is compared
        return ("raise", type(exc).__name__, str(exc)), MONITOR.checks - checks
    extras = {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in rep.extras.items()}
    rows = [(r.iteration, r.dist, r.events, None if r.x is None else r.x.tobytes()) for r in rep.rows]
    cert = rep.certificate and (rep.certificate.j_prime, rep.certificate.lam.tobytes(),
                                [a.tobytes() for a in rep.cert_system])
    return (rep.status, rep.x.tobytes(), list(rep.counts.items()), rows, extras, cert), MONITOR.checks - checks


def _slab_file(n, count, seed):
    sets, x0, _ = problem_from_dict(generate_problem("hyperslabs-with-interior", n, count, seed))
    return sets, x0


def _mixed(seed, box=False):
    """Hyperslabs, halfspaces and balls around a common point."""
    rng = np.random.default_rng(seed)
    slabs, x0, extras = problem_from_dict(generate_problem("hyperslabs-with-interior", 6, 12, seed))
    w = np.asarray(extras["witness"])
    sets = []
    for k in slabs:
        sets.append(k)
        c = rng.normal(size=6)
        sets.append(Halfspace(c, float(c @ w) - float(rng.uniform(0.1, 1.0))))
        if len(sets) % 5 == 0:
            sets.append(Ball(w + rng.uniform(-0.5, 0.5, 6), 1.5))
    if box:
        sets.append(Box(w - 2.0, w + 2.0))
    return sets, x0


# CI's overflow document: the slab and x1 >= 1.6e308 do not meet
OVERFLOW_DOC = [Hyperslab(np.array([1.0, 0.0]), 0.0, 1.0), Halfspace(np.array([1.0, 0.0]), 1.6e308),
                Halfspace(np.array([0.0, 1.0]), 1.6e308)]

# sets near |x| = 1.5e308, where the iterates' norm overflows: with unit
# rows max|x| ||a||_1 is above 2**1020 and the screen decides nothing; with
# rows of norm 1e-10 it is below, so the screen runs
_HUGE = [Hyperslab(np.array([1.0, 0.0]), 1.5e308, 1.6e308),
         Hyperslab(np.array([0.0, 1.0]), 1.5e308, 1.6e308),
         Halfspace(np.array([1.0, 1.0]), 1e308)]
_TINY_ROWS = [Hyperslab(np.array([1e-10, 0.0]), 1.5e298, 1.6e298),
              Hyperslab(np.array([0.0, 1e-10]), 1.5e298, 1.6e298),
              Halfspace(np.array([1e-10, 1e-10]), 1e298)]


class TestLinearScreen:
    """The cyclic driver skips the visits the gemv screen proves clean; its
    outputs must be those of the exact path, bit for bit."""

    METHODS = ("map", "bap-gi", "sip-gi", "haugazeau")
    CASES = {
        "slabs2": lambda: _slab_file(2, 8, 3),
        "slabs10": lambda: _slab_file(10, 40, 4),
        "slabs50": lambda: _slab_file(50, 200, 5),
        "mixed": lambda: _mixed(6),
        "mixed-box": lambda: _mixed(7, box=True),
        "huge": lambda: (_HUGE, np.zeros(2)),
        "tiny-rows": lambda: (_TINY_ROWS, np.zeros(2)),
    }
    OPTIONS = {
        "default": SolverOptions(max_outer_iters=20_000),
        "tol0": SolverOptions(feas_tol=0.0, max_outer_iters=1500),
    }

    @staticmethod
    def _off(mp):
        mp.setattr(solvers._LinearScreen, "run", lambda self, l, x: 0)

    @staticmethod
    def _checked_runs(mp, checked):
        """Check every set that ``run(l, x)`` counts clean against the exact
        projection at x, and record the screen's D for each."""
        init, run = solvers._LinearScreen.__init__, solvers._LinearScreen.run

        def spy_init(self, sets):
            init(self, sets)
            self.sets = list(sets)

        def spy_run(self, l, x):
            out = run(self, l, x)
            for i in range(l, l + out):
                k = self.sets[i % self.r]
                assert project_set(k, x).tobytes() == x.tobytes()
                checked.append(self.d)
            return out

        mp.setattr(solvers._LinearScreen, "__init__", spy_init)
        mp.setattr(solvers._LinearScreen, "run", spy_run)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("options", sorted(OPTIONS))
    def test_matches_the_exact_path(self, monkeypatch, method, case, options):
        sets, x0 = self.CASES[case]()
        opts = self.OPTIONS[options]
        if method == "haugazeau":  # slow to converge: a capped run shows the same
            opts = SolverOptions(feas_tol=opts.feas_tol, max_outer_iters=600)
        with np.errstate(over="ignore", invalid="ignore"):
            lazy = _outcome(method, x0, sets, opts)
            checked = []
            with monkeypatch.context() as mp:
                self._checked_runs(mp, checked)
                assert _outcome(method, x0, sets, opts) == lazy
                # refresh at every exact clean visit
                mp.setattr(solvers, "_screen_due", lambda run, exact_clean, r: True)
                eager = _outcome(method, x0, sets, opts)
            with monkeypatch.context() as mp:
                self._off(mp)
                exact = _outcome(method, x0, sets, opts)
        assert lazy == exact
        assert eager == exact
        if case.startswith(("slabs", "mixed")) and options == "default":
            assert checked  # the screen skipped visits here
        if case in ("slabs10", "slabs50", "mixed", "mixed-box"):
            assert max(checked) > 0.0  # and away from the point it screened at

    @staticmethod
    def _spy(monkeypatch):
        """Count every exact visit: the driver projects a hyperslab or
        halfspace with ``_linear_project`` and any other set with ``_project``."""
        calls = []
        monkeypatch.setattr(solvers, "_project", lambda k, x: calls.append(k) or project_set(k, x))
        monkeypatch.setattr(solvers, "_linear_project", lambda k, x: calls.append(k) or _linear_project(k, x))
        return calls

    def test_screen_skips_most_clean_visits(self, monkeypatch):
        sets, x0 = _slab_file(10, 40, 4)
        calls = self._spy(monkeypatch)
        rep = solve_map(x0, sets, SolverOptions(max_outer_iters=100_000))
        assert rep.status == "solved"
        assert len(calls) < rep.counts["projections"] / 2

    def test_large_x_is_left_to_the_exact_path(self, monkeypatch):
        seen = []
        radii = _RowScreen.radii
        monkeypatch.setattr(_RowScreen, "radii", lambda self, x: seen.append(radii(self, x)) or seen[-1])
        monkeypatch.setattr(solvers, "_screen_due", lambda run, exact_clean, r: True)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = solve_map(np.zeros(2), _HUGE, SolverOptions())
        assert rep.status == "solved"
        assert seen and all(s is None for s in seen)
        assert np.abs(rep.x).max() > 2.0**1019  # ||a||_1 = 1 or 2

    def test_a_move_beyond_big_clears_nothing(self, monkeypatch):
        """Screened at x_r with max|x_r| = 0.5, the wide slabs have radii
        near 100; x then moves by 50, past max|x_r|, where the proof does
        not reach, so the screen clears nothing until it is taken again."""
        sets = [Hyperslab(np.eye(4)[i], -100.0, 100.0) for i in range(4)] + [Halfspace(np.eye(4)[0], 50.0)]
        x0 = np.array([0.0, 0.5, 0.5, 0.5])
        checked, distances = [], []
        monkeypatch.setattr(solvers, "_screen_due", lambda run, exact_clean, r: True)
        self._checked_runs(monkeypatch, checked)
        run = solvers._LinearScreen.run

        def spy_run(self, l, x):
            out = run(self, l, x)
            distances.append(self.d)
            return out

        monkeypatch.setattr(solvers._LinearScreen, "run", spy_run)
        calls = self._spy(monkeypatch)
        opts = SolverOptions(record_iterates=True)
        ours = _outcome("map", x0, sets, opts)
        # slab 0 and the halfspace exactly, slabs 1-3 cleared at x0; after the
        # move D is inf, so slab 0 takes the exact test, and the screen taken
        # there clears slabs 1-3 again
        assert calls == [sets[0], sets[4], sets[0], sets[4]]
        assert ours[0][0] == "solved" and checked == [0.0] * 6
        assert math.inf in distances  # the D <= big guard fired
        screen = _RowScreen(np.eye(2), np.full(2, -100.0), np.full(2, 100.0))
        assert screen.radii(np.array([0.5, 0.0])).min() > 99.0
        assert screen.distance(np.array([3.0, 4.0]), np.array([0.5, 0.0]), 0.5) == math.inf
        assert 0.5 <= screen.distance(np.array([0.3, 0.4]), np.zeros(2), 1.0) < 0.5 * (1 + 1e-13)
        monkeypatch.undo()
        monkeypatch.setattr(solvers, "_cyclic", cyclic_loop)
        assert _outcome("map", x0, sets, opts) == ours

    def test_screen_outlives_most_moves(self, monkeypatch):
        """MAP keeps the screen across moves: it refreshes far less often
        than x moves, and its outputs are the one-visit loop's."""
        sets, x0 = _slab_file(50, 200, 5)
        refreshes = []
        refresh = solvers._LinearScreen.refresh
        opts = SolverOptions(max_outer_iters=100_000, record_iterates=True)
        with monkeypatch.context() as mp:
            mp.setattr(solvers._LinearScreen, "refresh", lambda self, x: refreshes.append(1) or refresh(self, x))
            ours = _outcome("map", x0, sets, opts)
        moves = len(ours[0][3]) - 1
        assert ours[0][0] == "solved" and moves > 20
        assert 0 < 4 * len(refreshes) < moves
        monkeypatch.setattr(solvers, "_cyclic", cyclic_loop)
        assert _outcome("map", x0, sets, opts) == ours

    @pytest.mark.parametrize("method", METHODS)
    def test_cap_inside_a_screened_run(self, monkeypatch, method):
        sets, x0 = _slab_file(10, 40, 4)
        calls = self._spy(monkeypatch)

        def capped(cap):
            calls.clear()
            return _outcome(method, x0, sets, SolverOptions(max_outer_iters=cap)), len(calls)

        total = solve(method, x0, sets, SolverOptions(max_outer_iters=300)).counts["projections"]
        screened_last = 0
        for cap in range(2, total + 1, 4):
            out, projected = capped(cap)
            screened_last += projected == capped(cap - 1)[1]  # visit `cap` made no projection
            with monkeypatch.context() as mp:
                self._off(mp)
                assert out == capped(cap)[0]
        assert screened_last


def cyclic_loop(x0, x, sets, opts, counts, step):
    """The cyclic driver one visit at a time: an exact ``_project`` on every
    visit, with no screen and no runs of cleared sets.  Same signature and
    report as ``solvers._cyclic``, whose outputs must be this loop's."""
    r = len(sets)
    rows = [solvers._trace_row(0, x0, (), opts)]
    clean = visits = l = 0
    status, proof, bound = "iteration_limit", None, None
    while clean < r:
        if visits >= opts.max_outer_iters:
            break
        visits += 1
        if bound is None:
            bound = solvers._stop_bound(x, opts.feas_tol)
            if math.isnan(bound):
                raise ValueError("x has non-finite entries")
        index, l = l, (l + 1) % r
        p = convex_sets._project(sets[index], x)
        counts["projections"] += 1
        dist = linalg.norm(x - p)
        if not dist <= bound:
            if not dist < math.inf and not np.isfinite(p).all():
                raise ValueError(f"the projection onto set {index} has non-finite entries")
            moved = step(x, p, dist, index)
            if moved is not None:
                clean = 0
                x, events, proof = moved
                bound = None
                rows.append(solvers._trace_row(len(rows), x, events, opts))
                if proof is not None:
                    status = "infeasible"
                    break
                continue
        clean += 1
    else:
        status = "solved"
    certificate, cert_system = proof or (None, None)
    return solvers.SolveReport(status, x, rows, counts, certificate, cert_system)


class TestCyclicReference:
    """``solvers._cyclic`` takes a run of screened sets in one step and
    reads a hyperslab or halfspace x is inside with one dot; every output
    must be ``cyclic_loop``'s, byte for byte, and at every cap."""

    METHODS = ("map", "bap-gi", "sip-gi", "haugazeau")
    CASES = {
        "slabs10": lambda: _slab_file(10, 40, 4),
        "mixed": lambda: _mixed(6),
        "mixed-box": lambda: _mixed(7, box=True),
        "huge": lambda: (_HUGE, np.zeros(2)),
        "tiny-rows": lambda: (_TINY_ROWS, np.zeros(2)),
    }
    TOLS = {"default": 1e-9, "tol0": 0.0}

    @staticmethod
    def _exact_visits(monkeypatch, method, x0, sets, opts):
        """The numbers of the visits that project (from 1), and the visit count."""
        cyclic, state, exact = solvers._cyclic, {}, []

        def spy_cyclic(x0, x, sets, opts, counts, step):
            state["counts"] = counts
            return cyclic(x0, x, sets, opts, counts, step)

        def spy(project):
            return lambda k, x: exact.append(state["counts"]["projections"] + 1) or project(k, x)

        with monkeypatch.context() as mp:
            mp.setattr(solvers, "_cyclic", spy_cyclic)
            mp.setattr(solvers, "_project", spy(convex_sets._project))
            mp.setattr(solvers, "_linear_project", spy(_linear_project))
            try:
                solve(method, x0, sets, opts)
            except (ValueError, NumericalError):  # a raise ends the visits too
                pass
        return exact, state["counts"]["projections"]

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("tol", sorted(TOLS))
    def test_matches_the_one_visit_loop(self, monkeypatch, method, case, tol):
        sets, x0 = self.CASES[case]()
        # Haugazeau is slow to converge: a capped run shows the same
        cap = 600 if method == "haugazeau" else 20_000
        opts = SolverOptions(feas_tol=self.TOLS[tol], max_outer_iters=cap, record_iterates=True)
        with np.errstate(over="ignore", invalid="ignore"):
            exact, total = self._exact_visits(monkeypatch, method, x0, sets, opts)
            screened = sorted(set(range(1, total + 1)) - set(exact))
            runs = []  # the screened runs, as (first visit, last visit)
            for v in screened:
                if runs and runs[-1][1] == v - 1:
                    runs[-1][1] = v
                else:
                    runs.append([v, v])
            caps = {total, max(total - 1, 1)}  # the visit that ends the solve, and the one before
            for first, last in runs[:2] + runs[len(runs) // 2:len(runs) // 2 + 1] + runs[-2:]:
                caps |= {first, (first + last) // 2, last, last + 1}
            caps = sorted(c for c in caps if 1 <= c <= cap)
            for c in caps:
                capped = SolverOptions(feas_tol=opts.feas_tol, max_outer_iters=c, record_iterates=True)
                ours = _outcome(method, x0, sets, capped)
                with monkeypatch.context() as mp:
                    mp.setattr(solvers, "_cyclic", cyclic_loop)
                    theirs = _outcome(method, x0, sets, capped)
                assert ours == theirs, f"cap {c}"
        # BAP solves the mixed sets before the screen is due
        if tol == "default" and (case == "slabs10" or case.startswith("mixed") and method != "bap-gi"):
            assert runs  # the screen cleared runs here

    @pytest.mark.parametrize("bad", range(4))
    @pytest.mark.parametrize("cap", range(1, 9))
    def test_run_ends_with_the_clean_pass(self, monkeypatch, bad, cap):
        """A step that lands deep inside every set: the screen, refreshed at
        the first clean visit, then clears the set x moved at and the sets
        past it, and the run must end where the clean pass does."""
        sets = [Hyperslab(np.eye(4)[i], -10.0, 10.0) for i in range(4)]
        x0 = 100.0 * np.eye(4)[bad]  # outside set `bad` only

        def step(x, p, dist, index):
            return np.zeros(4), ("jump",), None

        opts = SolverOptions(max_outer_iters=cap, record_iterates=True)
        monkeypatch.setattr(solvers, "_screen_due", lambda run, exact_clean, r: True)
        reports = [drive(x0, x0, sets, opts, {"projections": 0}, step)
                   for drive in (solvers._cyclic, cyclic_loop)]
        ours, theirs = ([rep.status, rep.x.tobytes(), rep.counts,
                         [(r.iteration, r.events, r.x.tobytes()) for r in rep.rows]] for rep in reports)
        assert ours == theirs
        if cap == 8:
            assert ours[0] == "solved" and ours[2] == {"projections": bad + 5}
