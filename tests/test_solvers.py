import math

import numpy as np
import pytest

from projqp.activeset_qp import DEFAULT_TOLS, PreconditionViolated, STuple, verify_certificate
from projqp.bench import TWO_CIRCLES_XBAR, generate_problem, two_circles_sets
from projqp.convex_sets import Ball, Box, Halfspace, problem_from_dict, project_set
from projqp.linalg import qr_factorize
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
        "gi_tols": [None, 1e-9],
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
                      record_iterates=True, sip_aplus_rounds=3, use_box_fast_path=False,
                      gi_tols=DEFAULT_TOLS)
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
