import math

import numpy as np
import pytest

from projqp.activeset_qp import (
    FEAS_TOL,
    MONITOR,
    Infeasible,
    InvariantMonitor,
    PreconditionViolated,
    QpProblem,
    STuple,
    _gi_from,
    check_s_tuple,
    gi_solve,
    verify_certificate,
)
from projqp.bench import TWO_CIRCLES_XBAR, generate_problem, two_circles_sets
from projqp.convex_sets import Ball, Box, Halfspace, Hyperslab, problem_from_dict, project_set
from projqp import solvers
from projqp.linalg import _RowScreen, qr_factorize
from projqp.solvers import (
    DegenerateAggregate,
    HalfspaceStore,
    SolverOptions,
    aggregate_columns,
    aggregate_halfspace_pair,
    solve,
    solve_bap,
    solve_dykstra,
    solve_haugazeau,
    solve_map,
    solve_sip,
)

R2 = math.sqrt(2.0)

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

    def test_most_violated_visit_order(self):
        opts = SolverOptions(feas_tol=1e-12, max_outer_iters=100,
                             set_visit_order="most-violated")
        rep = solve_bap(np.array([0.0, 10.0]), two_circles_sets(), opts)
        assert rep.status == "solved"
        assert float(np.linalg.norm(rep.x - TWO_CIRCLES_XBAR)) <= 1e-8

    def test_to_optimality_mode(self):
        sets = two_circles_sets()
        opts = SolverOptions(feas_tol=1e-12, max_outer_iters=100,
                             inner_steps_per_outer="to-optimality")
        rep = solve_bap(np.array([0.0, 10.0]), sets, opts)
        assert rep.status == "solved"
        assert float(np.linalg.norm(rep.x - TWO_CIRCLES_XBAR)) <= 1e-6


class TestSip:
    def test_two_circles_matches_table(self, two_circles_runs):
        rep, rows = two_circles_runs["sip-gi"]
        assert rep.status == "solved"
        for i in range(1, 10):
            assert agrees_2sf(rows[i].dist, TABLE1_SIP[i]), f"row {i}"
        assert rows[10].dist <= 1e-12

    def test_max_store_zero_reduces_to_map(self, two_circles_runs):
        opts = SolverOptions(feas_tol=1e-15, max_outer_iters=80, max_store=0,
                             record_iterates=True, reference=TWO_CIRCLES_XBAR)
        sip = solve_sip(np.array([0.0, 10.0]), two_circles_sets(), opts)
        opts_map = SolverOptions(feas_tol=1e-15, max_outer_iters=80,
                                 record_iterates=True, reference=TWO_CIRCLES_XBAR)
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

    def test_aplus_rounds_still_solve(self):
        opts = SolverOptions(feas_tol=1e-12, max_outer_iters=60, sip_aplus_rounds=2)
        rep = solve_sip(np.array([0.0, 10.0]), two_circles_sets(), opts)
        assert rep.status == "solved"
        assert float(np.linalg.norm(rep.x - TWO_CIRCLES_XBAR)) <= 1e-9

    def test_box_fast_path(self):
        doc = generate_problem("box-plus-ball", 3, 2, 10)
        sets, x0, extras = problem_from_dict(doc)
        rep = solve_sip(x0, sets, SolverOptions(feas_tol=1e-10, max_outer_iters=200))
        assert rep.status == "solved"
        assert "box_solves" in rep.counts and rep.counts["box_solves"] >= 1
        for k in sets:
            assert float(np.linalg.norm(rep.x - project_set(k, rep.x))) <= 1e-9
        generic = solve_sip(x0, sets, SolverOptions(feas_tol=1e-10, max_outer_iters=400,
                                                    use_box_fast_path=False))
        assert generic.status == "solved"

    def test_box_fast_path_infeasible(self):
        sets = [Box(np.zeros(2), np.ones(2)), Ball(np.array([5.0, 0.0]), 1.0)]
        rep = solve_sip(np.array([0.5, 0.5]), sets, SolverOptions(max_outer_iters=100))
        assert rep.status == "infeasible"
        c_mat, b_vec = rep.cert_system
        assert verify_certificate(rep.certificate, c_mat, b_vec)


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
                              SolverOptions(feas_tol=1e-15, max_outer_iters=500,
                                            reference=TWO_CIRCLES_XBAR))
        assert rep.rows[500].dist < rep.rows[1].dist

    @pytest.mark.parametrize("n", [2, 10])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_disjoint_sets_end_infeasible(self, n, seed):
        sets, x0 = disjoint_on_axis(n, seed)
        rep = solve_haugazeau(x0, sets)
        assert rep.status == "infeasible"
        assert rep.rows[-1].events == ("qp", "infeasible")
        c_mat, b_vec = rep.cert_system
        assert c_mat.shape == (n, 2) and b_vec.shape == (2,)
        assert verify_certificate(rep.certificate, c_mat, b_vec)
        # the generated halfspace holds a ball whole: c.center - r >= b
        assert any(float(c_mat[:, 0] @ k.center) - k.radius >= b_vec[0] - 1e-12 for k in sets)


def haugazeau_subproblem(rng, n: int, case: str):
    """A random subproblem of Haugazeau's step at x, built as
    ``solve_haugazeau`` builds it: ``(x0, x, c2, ||x0 - x||, C, b)``.

    The cut c1 is violated at x.  "w-tiny" puts x 1e-7 from x0, and
    "infeasible" takes c1 = -c2 with a gap between the two halfspaces.
    """
    x0 = rng.standard_normal(n)
    d = rng.standard_normal(n)
    x = x0 + d * ((1e-7 if case == "w-tiny" else rng.uniform(0.5, 3.0)) / np.linalg.norm(d))
    w = x0 - x
    wn = math.sqrt(float(w.dot(w)))
    c2 = -w / wn
    b2 = float(c2.dot(x))
    if case == "infeasible":
        c1, b1 = -c2, -b2 + rng.uniform(0.1, 1.0)
    else:
        c1 = rng.standard_normal(n)
        c1 /= np.linalg.norm(c1)
        b1 = float(c1.dot(x)) + rng.uniform(0.1, 2.0)
    return x0, x, c2, wn, np.column_stack([c1, c2]), np.array([b1, b2])


class TestHaugazeauWarmStart:
    """Each subproblem starts at x_i with the aggregate halfspace active;
    its answer must be the cold engine's."""

    CASES = ("feasible", "w-tiny", "infeasible")

    @pytest.mark.parametrize("n", [2, 10, 50])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_cold_solve(self, n, case):
        rng = np.random.default_rng([n, self.CASES.index(case)])
        steps = {"cold": 0, "warm": 0}
        for _ in range(40):
            x0, x, c2, wn, c_mat, b_vec = haugazeau_subproblem(rng, n, case)
            qp = QpProblem(x0, c_mat, b_vec)
            cold = gi_solve(qp)
            warm = _gi_from(qp, solvers._haugazeau_start(x, c2, wn))
            if case == "infeasible":
                assert isinstance(cold, Infeasible) and isinstance(warm, Infeasible)
                assert verify_certificate(warm.certificate, c_mat, b_vec)
                continue
            assert np.linalg.norm(warm.x - cold.x) <= 1e-12 * (1.0 + np.linalg.norm(x0))
            assert warm.inner_steps <= cold.inner_steps
            steps["cold"] += cold.inner_steps
            steps["warm"] += warm.inner_steps
        assert steps["warm"] < steps["cold"] or case == "infeasible"

    @pytest.mark.parametrize("n", [2, 10, 50])
    @pytest.mark.parametrize("case", CASES)
    def test_start_is_a_valid_s_tuple(self, n, case):
        rng = np.random.default_rng([n, self.CASES.index(case), 1])
        for _ in range(10):
            x0, x, c2, wn, c_mat, b_vec = haugazeau_subproblem(rng, n, case)
            mon = InvariantMonitor()
            start = solvers._haugazeau_start(x, c2, wn)
            assert check_s_tuple(start, QpProblem(x0, c_mat, b_vec), "start", mon)
            assert (mon.checks, mon.violations) == (5, 0)

    def test_one_inner_step_per_iteration_on_two_circles(self):
        rep = solve_haugazeau(np.array([0.0, 10.0]), two_circles_sets(),
                              SolverOptions(feas_tol=1e-15, max_outer_iters=500))
        assert rep.counts["inner_steps"] == len(rep.rows) - 1 == 500

    def test_large_offset_runs_clean(self):
        # cold, each subproblem's scan re-entered the active halfspace and raised
        checks, violations = MONITOR.checks, MONITOR.violations
        rep = solve("haugazeau", np.array([1e8, 1e8]), two_circles_sets(),
                    SolverOptions(max_outer_iters=2000))
        assert rep.status == "iteration_limit" and np.isfinite(rep.x).all()
        assert MONITOR.checks > checks and MONITOR.violations == violations


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


def make_stuple_for_aggregation():
    store = HalfspaceStore()
    store.add(np.array([1.0, 0.0]), 1.0, birth=1)
    store.add(np.array([0.0, 1.0]), 1.0, birth=2)
    n_mat = np.column_stack([store.column(0), store.column(1)])
    s = STuple(np.array([1.0, 1.0]), (0, 1), np.array([1.0, 1.0]), qr_factorize(n_mat))
    return store, s


class TestAggregation:
    def test_orthogonal_pair(self):
        store, s = make_stuple_for_aggregation()
        x_star = np.zeros(2)
        resid_before = np.linalg.norm((x_star - s.x) + s.qr.mat @ s.u)
        store2, s2 = aggregate_columns(store, s, 0, 1)
        assert store2.m == 1 and s2.q == 1
        np.testing.assert_allclose(store2.column(0), np.array([1.0, 1.0]) / R2, atol=1e-14)
        assert store2.rhs(0) == pytest.approx(R2)
        np.testing.assert_allclose(s2.u, [R2], atol=1e-14)
        resid_after = np.linalg.norm((x_star - s2.x) + s2.qr.mat @ s2.u)
        assert resid_after == pytest.approx(resid_before, abs=1e-14)

    def test_zero_weight_drops_column(self):
        store, s = make_stuple_for_aggregation()
        s = STuple(s.x, s.j_set, np.array([1.0, 0.0]), s.qr)
        store2, s2 = aggregate_columns(store, s, 0, 1)
        np.testing.assert_allclose(store2.column(0), [1.0, 0.0], atol=1e-14)
        assert store2.rhs(0) == pytest.approx(1.0)
        np.testing.assert_allclose(s2.u, [1.0], atol=1e-14)

    def test_parallel_columns_sum_multipliers(self):
        # collinear columns cannot coexist in a factored active set, so the
        # formula itself carries this case: the aggregate is the shared
        # normal with summed multipliers
        c = np.array([1.0, 0.0])
        m_hat, b_hat, u_hat = aggregate_halfspace_pair(c, 1.0, 0.75, c, 1.0, 0.5)
        np.testing.assert_allclose(m_hat, c, atol=1e-14)
        assert u_hat == pytest.approx(1.25)
        assert b_hat == pytest.approx(1.0)

    def test_cancelling_weights_rejected(self):
        with pytest.raises(DegenerateAggregate):
            aggregate_halfspace_pair(np.array([1.0, 0.0]), 0.0, 1.0,
                                     np.array([-1.0, 0.0]), 0.0, 1.0)

    def test_bap_with_store_cap_still_solves(self):
        doc = generate_problem("balls-with-common-point", 2, 3, 33)
        sets, x0, extras = problem_from_dict(doc)
        rep = solve_bap(x0, sets, SolverOptions(feas_tol=1e-9, max_outer_iters=500, max_store=2))
        assert rep.status == "solved"
        assert rep.extras["store_normals"].shape[1] <= 2


class TestHalfspaceStore:
    """The row buffer against a plain list of the same halfspaces."""

    @staticmethod
    def filled(count: int, n: int = 3):
        rng = np.random.default_rng(count)
        store, ref = HalfspaceStore(), []
        for k in range(count):
            c, b = rng.normal(size=n), float(rng.normal())
            assert store.add(c, b, source=k % 4, birth=10 + k) == k
            ref.append((c, b, k % 4, 10 + k))
        return store, ref

    @staticmethod
    def agrees(store, ref) -> None:
        assert store.m == len(ref)
        for j, (c, b, source, birth) in enumerate(ref):
            assert store.column(j).tobytes() == c.tobytes()
            assert store.rhs(j) == b and type(store.rhs(j)) is float
            assert (store.source[j], store.birth[j]) == (source, birth)
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
        assert store.add(c, 3.0, source=1, birth=99) == 0
        self.agrees(store, [(c, 3.0, 1, 99)])

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
        except PreconditionViolated:
            # the active-set methods reject the zero normals these sets give
            assert case in self.FAR_SETS and method in ("bap-gi", "sip-gi", "haugazeau")
            return
        except ValueError as exc:
            assert "too large" in str(exc)
            return
        if rep.status == "solved":
            # feas_tol is relative to 1 + ||x||, computed here without overflow
            tol = opts.feas_tol * (1.0 + math.hypot(*rep.x))
            for k in sets:
                assert float(np.linalg.norm(rep.x - project_set(k, rep.x))) <= tol


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

        def step(x, p, dist, index, visit):
            steps.append(visit)
            return np.array([1.0, bad]), ("spoil",), None

        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="x has non-finite entries"):
            solvers._cyclic(x0, x0, two_circles_sets(), SolverOptions(), {"projections": 0}, step)
        assert steps == [1]
        # a cap at the spoiled step's visit ends the solve before the check
        rep = solvers._cyclic(x0, x0, two_circles_sets(), SolverOptions(max_outer_iters=1),
                              {"projections": 0}, step)
        assert rep.status == "iteration_limit"


class TestOptionValidation:
    """Each field is checked on construction; a bad value names its field."""

    BAD = {
        "feas_tol": [-1e-9, math.nan, math.inf, "1e-9", True],
        "max_outer_iters": [0, -5, 10.0, "100", True],
        "inner_steps_per_outer": [0, -1, "to_optimality", "all", 1.5],
        "set_visit_order": ["most_violated", "random", None],
        "max_store": [-1, 2.5, "4"],
        "reference": [np.array([0.0, math.nan]), np.zeros((2, 2)), "origin"],
        "record_iterates": ["yes", 1, None],
        "sip_aplus_rounds": [-1, 0.5, None],
        "use_box_fast_path": ["no", 0, None],
    }

    @pytest.mark.parametrize("name", sorted(BAD))
    def test_bad_value_names_field(self, name):
        for value in self.BAD[name]:
            with pytest.raises(ValueError, match=f"SolverOptions.{name} must be"):
                SolverOptions(**{name: value})

    def test_every_field_is_checked(self):
        assert set(self.BAD) == set(SolverOptions.__dataclass_fields__)

    def test_documented_values_accepted(self):
        SolverOptions(feas_tol=0.0, max_outer_iters=1, inner_steps_per_outer="to-optimality",
                      set_visit_order="most-violated", max_store=0, reference=[0.0, 1.0],
                      record_iterates=True, sip_aplus_rounds=3, use_box_fast_path=False)
        SolverOptions(max_outer_iters=np.int64(5), inner_steps_per_outer=4, max_store=np.int64(2))


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
        # BAP keeps an active halfspace it cannot aggregate away
        assert m <= max_store or (method == "bap-gi" and m == len(rep.extras["active_set"]))
        assert all(0 <= j < m for j in rep.extras["active_set"])
        assert len(set(rep.extras["active_set"])) == len(rep.extras["active_set"])
        for k in sets:
            assert float(np.linalg.norm(rep.x - project_set(k, rep.x))) <= 1e-9 * (1.0 + np.linalg.norm(rep.x))

    def test_bap_cap_is_soft(self):
        # the one stored halfspace is active and has no partner to merge with
        sets, x0, _ = problem_from_dict(generate_problem("balls-with-common-point", 3, 4, 5))
        rep = solve_bap(x0, sets, SolverOptions(max_store=0))
        assert rep.status == "solved"
        assert rep.extras["store_rhs"].shape == (1,)
        assert rep.extras["active_set"] == [0]


def _outcome(method, x0, sets, opts):
    """Everything a solve reports, in comparable form (a raise included)."""
    try:
        rep = solve(method, x0, sets, opts)
    except Exception as exc:  # noqa: BLE001 - the raise itself is compared
        return ("raise", type(exc).__name__, str(exc))
    extras = {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in rep.extras.items()}
    return (rep.status, rep.x.tobytes(), list(rep.counts.items()), rep.rows, extras,
            rep.certificate and (rep.certificate.j_prime, rep.certificate.lam.tobytes()))


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
        mp.setattr(solvers._LinearScreen, "flags", lambda self, x: None)

    @staticmethod
    def _eager(mp, checked):
        """Refresh at every exact clean visit, and check every flag there
        against the exact projection."""
        init, flags = solvers._LinearScreen.__init__, solvers._LinearScreen.flags

        def spy_init(self, sets):
            init(self, sets)
            self.sets = list(sets)

        def spy_flags(self, x):
            out = flags(self, x)
            for k, inside in zip(self.sets, out or ()):
                if inside:
                    assert project_set(k, x).tobytes() == x.tobytes()
                    checked.append(k)
            return out

        mp.setattr(solvers, "_screen_due", lambda run, exact_clean, r: True)
        mp.setattr(solvers._LinearScreen, "__init__", spy_init)
        mp.setattr(solvers._LinearScreen, "flags", spy_flags)

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
                self._eager(mp, checked)
                eager = _outcome(method, x0, sets, opts)
            with monkeypatch.context() as mp:
                self._off(mp)
                exact = _outcome(method, x0, sets, opts)
        assert lazy == exact
        assert eager == exact
        if case.startswith(("slabs", "mixed")) and options == "default":
            assert checked  # the screen skipped visits here

    def test_screen_skips_most_clean_visits(self, monkeypatch):
        sets, x0 = _slab_file(10, 40, 4)
        calls = []
        monkeypatch.setattr(solvers, "_project", lambda k, x: calls.append(k) or project_set(k, x))
        rep = solve_map(x0, sets, SolverOptions(max_outer_iters=100_000))
        assert rep.status == "solved"
        assert len(calls) < rep.counts["projections"] / 2

    def test_large_x_is_left_to_the_exact_path(self, monkeypatch):
        seen = []
        inside = _RowScreen.inside
        monkeypatch.setattr(_RowScreen, "inside", lambda self, x: seen.append(inside(self, x)) or seen[-1])
        monkeypatch.setattr(solvers, "_screen_due", lambda run, exact_clean, r: True)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = solve_map(np.zeros(2), _HUGE, SolverOptions())
        assert rep.status == "solved"
        assert seen and all(s is None for s in seen)
        assert np.abs(rep.x).max() > 2.0**1019  # ||a||_1 = 1 or 2

    @pytest.mark.parametrize("method", METHODS)
    def test_cap_inside_a_screened_run(self, monkeypatch, method):
        sets, x0 = _slab_file(10, 40, 4)
        calls = []
        monkeypatch.setattr(solvers, "_project", lambda k, x: calls.append(k) or project_set(k, x))

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
