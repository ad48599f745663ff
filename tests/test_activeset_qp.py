import math
from dataclasses import replace

import numpy as np
import pytest

from projqp import activeset_qp
from projqp.activeset_qp import (
    DUAL_TOL,
    FEAS_TOL,
    INF,
    MONITOR,
    R_POS_TOL,
    Advanced,
    Infeasible,
    InfeasibilityCertificate,
    InvariantMonitor,
    IterationLimitError,
    PreconditionViolated,
    QpProblem,
    STuple,
    _dual_update,
    _empty_s_tuple,
    _first_positive,
    _invariant_residuals,
    _invariant_residuals_general,
    _pick_violated,
    _ratio_test,
    _require_violated,
    _violated,
    check_s_tuple,
    cone_project_reduced,
    degenerate_inner_gi_step,
    empty_s_tuple,
    gi_solve,
    inner_gi_step,
    project_polyhedron_reduced,
    v_value,
    verify_certificate,
)
from projqp.linalg import QrFactors, RankDeficient, qr_factorize
from projqp.oracles import cone_project_enum, project_polyhedron_enum

R2 = math.sqrt(2.0)


def tight_s_tuple(x, j_set, u, qp):
    """s-tuple for constraints of qp tight at x with multipliers u."""
    n_mat = qp.c_mat[:, list(j_set)]
    return STuple(np.asarray(x, float), tuple(j_set), np.asarray(u, float), qr_factorize(n_mat))


class TestEmptySTuple:
    def test_basic(self):
        s = empty_s_tuple(np.array([0.0, 10.0]))
        np.testing.assert_allclose(s.x, [0.0, 10.0])
        assert s.q == 0 and s.j_set == () and s.u.size == 0

    def test_any_dimension_zeros(self):
        for n in (1, 3, 7):
            s = empty_s_tuple(np.zeros(n))
            np.testing.assert_allclose(s.x, np.zeros(n))
            assert s.qr.mat.shape == (n, 0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            empty_s_tuple(np.array([0.0, np.nan]))


class TestInnerGiStep:
    def test_single_halfspace_projection(self):
        qp = QpProblem(np.zeros(2), np.array([[1.0], [0.0]]), np.array([1.0]))
        out = inner_gi_step(empty_s_tuple(qp.x_star), 0, qp)
        assert isinstance(out, Advanced)
        s = out.s_tuple
        np.testing.assert_allclose(s.x, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(s.u, [1.0], atol=1e-14)
        assert s.j_set == (0,)

    def test_add_orthogonal_constraint(self):
        qp = QpProblem(np.zeros(2), np.eye(2), np.array([1.0, 1.0]))
        s = tight_s_tuple([1.0, 0.0], (0,), [1.0], qp)
        out = inner_gi_step(s, 1, qp)
        s2 = out.s_tuple
        np.testing.assert_allclose(s2.x, [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(sorted(s2.u), [1.0, 1.0], atol=1e-14)
        # brute-force oracle agrees
        oracle = project_polyhedron_enum(qp.x_star, qp.c_mat, qp.b)
        np.testing.assert_allclose(s2.x, oracle.x, atol=1e-10)

    def test_tie_resolves_to_full_step(self):
        # active diagonal halfspace, new vertical one; t1 = t2 = 2
        c_mat = np.column_stack([np.array([1.0, 1.0]) / R2, np.array([1.0, 0.0])])
        qp = QpProblem(np.zeros(2), c_mat, np.array([R2, 2.0]))
        s = tight_s_tuple([1.0, 1.0], (0,), [R2], qp)
        out = inner_gi_step(s, 1, qp)
        s2 = out.s_tuple
        np.testing.assert_allclose(s2.x, [2.0, 0.0], atol=1e-12)
        assert set(s2.j_set) == {0, 1}
        np.testing.assert_allclose(s2.u, [0.0, 2.0], atol=1e-12)
        oracle = project_polyhedron_enum(qp.x_star, qp.c_mat, qp.b)
        np.testing.assert_allclose(s2.x, oracle.x, atol=1e-10)
        assert "full" in out.events

    def test_near_dependent_cut_moves_x_with_its_drop(self):
        # ||z|| = delta lies between Z_TOL and COND_TOL of 1 + ||c_1||: the
        # blocking multiplier of c_0 drops it, and x moves by t1 z = (0, delta)
        # so that x* - x + N u stays 0; left at x, it would be off by delta
        delta = 5e-9
        qp = QpProblem(np.array([-1.0, 0.0]), np.array([[1.0, 1.0], [0.0, delta]]), np.array([0.0, 1e-3]))
        s = tight_s_tuple([0.0, 0.0], (0,), [1.0], qp)
        monitor = InvariantMonitor()
        out = inner_gi_step(s, 1, qp, monitor)
        assert out.events == ("partial", "drop:0", "full", "add:1")
        s2 = out.s_tuple
        kkt = qp.x_star - s2.x + qp.c_mat[:, list(s2.j_set)] @ s2.u
        assert float(np.abs(kkt).max()) <= 1e-15
        assert monitor.violations == 0
        oracle = project_polyhedron_enum(qp.x_star, qp.c_mat, qp.b)
        np.testing.assert_allclose(s2.x, oracle.x, atol=1e-12)

    def test_infeasible_certificate(self):
        # x1 >= 1 together with -x1 >= 0 is empty
        qp = QpProblem(np.zeros(1), np.array([[1.0, -1.0]]), np.array([1.0, 0.0]))
        out = inner_gi_step(empty_s_tuple(qp.x_star), 0, qp)
        out2 = inner_gi_step(out.s_tuple, 1, qp)
        assert isinstance(out2, Infeasible)
        cert = out2.certificate
        assert verify_certificate(cert, qp.c_mat, qp.b)
        lam = cert.lam
        cols = qp.c_mat[:, list(cert.j_prime)]
        assert float(lam @ qp.b[list(cert.j_prime)]) == pytest.approx(1.0)
        assert float(np.linalg.norm(cols @ lam)) <= 1e-12

    def test_already_active_rejected(self):
        qp = QpProblem(np.zeros(2), np.eye(2), np.array([1.0, 1.0]))
        s = tight_s_tuple([1.0, 0.0], (0,), [1.0], qp)
        with pytest.raises(PreconditionViolated):
            inner_gi_step(s, 0, qp)

    def test_satisfied_constraint_rejected(self):
        qp = QpProblem(np.zeros(2), np.eye(2), np.array([1.0, -5.0]))
        s = tight_s_tuple([1.0, 0.0], (0,), [1.0], qp)
        with pytest.raises(PreconditionViolated):
            inner_gi_step(s, 1, qp)

    def test_v_strictly_increases_along_run(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n, m = 3, 6
            c = rng.uniform(-1, 1, (n, m))
            y0 = rng.uniform(-1, 1, n)
            b = c.T @ y0 - rng.uniform(0.0, 0.5, m)
            qp = QpProblem(rng.uniform(-1, 1, n), c, b)
            s = empty_s_tuple(qp.x_star)
            v_prev = 0.0
            for _ in range(30):
                resid = qp.c_mat.T @ s.x - qp.b
                viol = np.flatnonzero(resid < -1e-9)
                if viol.size == 0:
                    break
                out = inner_gi_step(s, int(viol[np.argmin(resid[viol])]), qp)
                assert isinstance(out, Advanced)
                s = out.s_tuple
                v_now = v_value(s.x, qp.x_star)
                assert v_now > v_prev - 1e-12
                v_prev = v_now


# SIP and the extended ART take inner_gi_step from zero multipliers; the
# degenerate step takes the same path after its refinement, which in these
# cases has no eligible column to enter
ZERO_MULTIPLIER_STEPS = pytest.mark.parametrize(
    "step", [degenerate_inner_gi_step, inner_gi_step], ids=["degenerate_inner_gi_step", "inner_gi_step"]
)


class TestDegenerateStep:
    @ZERO_MULTIPLIER_STEPS
    def test_single_halfspace_from_high_point(self, step):
        root59 = math.sqrt(0.59)
        qp = QpProblem(np.array([0.0, 10.0]), np.array([[0.0], [-1.0]]), np.array([-root59]))
        out = step(empty_s_tuple(qp.x_star), 0, qp)
        s = out.s_tuple
        np.testing.assert_allclose(s.x, [0.0, root59], atol=1e-14)
        np.testing.assert_allclose(s.u, [10.0 - root59], atol=1e-12)

    @ZERO_MULTIPLIER_STEPS
    def test_conflicting_corner_is_infeasible(self, step):
        # at the corner of x1 >= 0, x2 >= 0, adding c_p = -(1,1)/sqrt(2) with
        # b > 0 makes the system empty; the coefficients r <= 0 and z = 0
        # certify it (the enumeration oracle agrees)
        c_p = -np.array([1.0, 1.0]) / R2
        qp = QpProblem(np.zeros(2), np.column_stack([np.eye(2), c_p]), np.array([0.0, 0.0, 0.3]))
        s = tight_s_tuple([0.0, 0.0], (0, 1), [0.0, 0.0], qp)
        out = step(s, 2, qp)
        assert isinstance(out, Infeasible)
        assert verify_certificate(out.certificate, qp.c_mat, qp.b)
        assert not project_polyhedron_enum(qp.x_star, qp.c_mat, qp.b).feasible

    @ZERO_MULTIPLIER_STEPS
    def test_drop_then_slide(self, step):
        # active x1 >= 0 at the origin; the diagonal constraint forces the
        # drop (r > 0) and a slide along c_p to (0.5, 0.5)
        c_p = np.array([1.0, 1.0]) / R2
        qp = QpProblem(
            np.zeros(2), np.column_stack([np.array([1.0, 0.0]), c_p]), np.array([0.0, 1.0 / R2])
        )
        s = tight_s_tuple([0.0, 0.0], (0,), [0.0], qp)
        out = step(s, 1, qp)
        s2 = out.s_tuple
        np.testing.assert_allclose(s2.x, [0.5, 0.5], atol=1e-14)
        assert s2.j_set == (1,)
        # the drop is a zero-length step: no partial or dual token
        assert out.events == ("drop:0", "full", "add:1")
        # the result is the projection onto the kept system (here it also
        # happens to solve the full one); the oracle on the kept subsystem
        # confirms the partial-solution contract
        kept = project_polyhedron_enum(qp.x_star, qp.c_mat[:, [1]], qp.b[[1]])
        np.testing.assert_allclose(s2.x, kept.x, atol=1e-12)

    def test_nonzero_multipliers_rejected(self):
        qp = QpProblem(np.zeros(2), np.eye(2), np.array([0.0, 1.0]))
        s = tight_s_tuple([0.0, 0.0], (0,), [0.5], qp)
        with pytest.raises(PreconditionViolated):
            degenerate_inner_gi_step(s, 1, qp)

    @ZERO_MULTIPLIER_STEPS
    def test_near_dependent_cut_keeps_multipliers(self, step, monkeypatch):
        # c_p lies within 1e-10..1e-8 (relative) of the cone of the negated
        # active normals, so z^T c_p is round-off and its sign can flip: a
        # step must not divide by it, and where round-off blocks it the
        # zero multipliers let it drop the active columns instead of
        # returning a certificate that does not check out.  The KKT and
        # active residuals that such far steps leave are the tolerance
        # model's scale question, so a private monitor takes them
        monkeypatch.setattr(activeset_qp, "MONITOR", InvariantMonitor())
        rng = np.random.default_rng(1)
        outcomes = {"advanced": 0, "uncertified": 0, "infeasible": 0}
        for _ in range(200):
            n = int(rng.integers(3, 11))
            q = int(rng.integers(1, n))
            n_mat = rng.normal(size=(n, q))
            n_mat /= np.linalg.norm(n_mat, axis=0)
            y = n_mat @ -rng.uniform(0.1, 1.0, q)
            perp = rng.normal(size=n)
            perp -= n_mat @ np.linalg.lstsq(n_mat, perp, rcond=None)[0]
            perp /= np.linalg.norm(perp)
            c_p = y + 10.0 ** rng.uniform(-10.0, -8.0) * np.linalg.norm(y) * perp
            x = rng.normal(size=n)
            b = np.append(n_mat.T @ x, float(c_p @ x) + float(rng.uniform(0.1, 1.0)))
            qp = QpProblem(x, np.column_stack([n_mat, c_p]), b)
            out = step(STuple(x.copy(), tuple(range(q)), np.zeros(q), qr_factorize(n_mat)), q, qp)
            if isinstance(out, Infeasible):
                outcomes["infeasible"] += 1
                assert verify_certificate(out.certificate, qp)
            else:
                outcomes["uncertified" if "uncertified" in out.events else "advanced"] += 1
                assert min(out.s_tuple.u.tolist()) >= -DUAL_TOL
        assert min(outcomes.values()) > 0, outcomes

    def test_uncertified_block_needs_zero_multipliers(self):
        # x sits 2e-3 off its active face x1 >= 0, as round-off leaves it far
        # out, so the opposite cut x1 <= 1e-3 is violated and dependent: no
        # step exists, and lam = (1, 1) fails the check since lam^T b < 0.
        # Zero multipliers drop the face for free; a positive one cannot
        x = np.array([2e-3, 5.0])
        qp = QpProblem(x, np.column_stack([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1e-3]))
        monitor = InvariantMonitor()
        s = STuple(x.copy(), (0,), np.zeros(1), qr_factorize(qp.c_mat[:, :1]))
        zero = inner_gi_step(s, 1, qp, monitor)
        assert zero.events == ("uncertified", "drop:0", "full", "add:1")
        np.testing.assert_allclose(zero.s_tuple.x, [1e-3, 5.0], atol=1e-15)
        assert zero.s_tuple.j_set == (1,) and monitor.violations == 0
        warm = inner_gi_step(replace(s, u=np.ones(1)), 1, qp, monitor)
        assert isinstance(warm, Infeasible) and not verify_certificate(warm.certificate, qp)
        assert monitor.violations == 1


class TestDirectionRefinement:
    """The primal refinement of the degenerate step's direction, through
    ``degenerate_inner_gi_step``."""

    def test_empty_pool_unchanged(self):
        # no column drops, so the refinement has no candidate: the working
        # set stays (0, 1) and the step ends as the plain one does
        qp = QpProblem(np.zeros(2), np.column_stack([np.eye(2), [[0.0], [-1.0]]]), np.array([0.0, 0.0, 1.0]))
        s = tight_s_tuple([0.0, 0.0], (0, 1), [0.0, 0.0], qp)
        out = degenerate_inner_gi_step(s, 2, qp)
        assert isinstance(out, Infeasible)
        assert out.events == ("infeasible",)
        assert out.certificate.j_prime == (0, 1, 2)
        assert verify_certificate(out.certificate, qp.c_mat, qp.b)

    def test_opposite_orthant_gives_zero(self):
        # dropping both axes leaves y = 0, and no candidate re-enters since
        # the cone of negated axes is opposite to c_p
        c_p = np.array([1.0, 1.0]) / R2
        qp = QpProblem(np.zeros(2), np.column_stack([np.eye(2), c_p]), np.array([0.0, 0.0, 1.0]))
        s0 = tight_s_tuple([0.0, 0.0], (0, 1), [0.0, 0.0], qp)
        out = degenerate_inner_gi_step(s0, 2, qp)
        s2 = out.s_tuple
        # both axes stay dropped: the step is the plain projection onto the
        # halfspace c_p^T x >= 1
        np.testing.assert_allclose(s2.x, c_p, atol=1e-14)
        y_expected = cone_project_enum(-qp.c_mat[:, :2], c_p)
        np.testing.assert_allclose(y_expected, [0.0, 0.0], atol=1e-14)

    def test_entering_improves_direction(self):
        # the lowest-index drop rule drops columns 1 and 2; column 1 then
        # re-enters, and the step runs along c_p - y with y the projection
        # of c_p onto the cone of the negated starting normals
        cols = np.column_stack([np.array([1.0, -1.0, 1.0]) / math.sqrt(3.0),
                                np.array([0.0, -1.0, 1.0]) / R2,
                                np.array([1.0, 1.0, 0.0]) / R2])
        c_p = np.array([0.0, 1.0, 0.0])
        qp = QpProblem(np.zeros(3), np.column_stack([cols, c_p]), np.array([0.0, 0.0, 0.0, 1.0]))
        s = tight_s_tuple([0.0, 0.0, 0.0], (0, 1, 2), [0.0, 0.0, 0.0], qp)
        plain = inner_gi_step(s, 3, qp)
        assert "enter:1" not in plain.events
        out = degenerate_inner_gi_step(s, 3, qp)
        assert out.events == ("drop:1", "drop:2", "enter:1", "full", "add:3")
        y_oracle = cone_project_enum(-cols, c_p)
        direction = c_p - y_oracle
        step = out.s_tuple.x
        np.testing.assert_allclose(step, (1.0 / float(direction @ c_p)) * direction, atol=1e-12)
        np.testing.assert_allclose(step, [0.0, 1.0, 1.0], atol=1e-12)
        assert out.s_tuple.j_set == (0, 1, 3)
        assert not np.allclose(plain.s_tuple.x, step)


class TestGiSolve:
    def test_unconstrained(self):
        qp = QpProblem(np.array([1.5, -2.0]), np.zeros((2, 0)), np.zeros(0))
        res = gi_solve(qp)
        np.testing.assert_allclose(res.x, qp.x_star)
        assert res.inner_steps == 0

    def test_three_constraints_corner(self):
        c = np.column_stack([np.eye(2), np.array([1.0, 1.0])])
        qp = QpProblem(np.zeros(2), c, np.array([1.0, 1.0, 1.0]))
        res = gi_solve(qp)
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-12)
        assert set(res.j_set) <= {0, 1}
        oracle = project_polyhedron_enum(qp.x_star, qp.c_mat, qp.b)
        np.testing.assert_allclose(res.x, oracle.x, atol=1e-10)

    def test_twenty_randoms_against_oracle(self):
        rng = np.random.default_rng(20)
        done = 0
        while done < 20:
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 11))
            c = rng.uniform(-1, 1, (n, m))
            if np.any(np.linalg.norm(c, axis=0) < 0.1):
                continue
            y0 = rng.uniform(-1, 1, n)
            b = c.T @ y0 + rng.uniform(-0.5, 0.5, m)
            qp = QpProblem(rng.uniform(-1, 1, n), c, b)
            oracle = project_polyhedron_enum(qp.x_star, qp.c_mat, qp.b)
            if oracle.feasible and float(np.linalg.norm(oracle.x - qp.x_star)) > 20.0:
                continue
            done += 1
            res = gi_solve(qp)
            if isinstance(res, Infeasible):
                assert not oracle.feasible
                assert verify_certificate(res.certificate, qp.c_mat, qp.b)
            else:
                assert oracle.feasible
                np.testing.assert_allclose(res.x, oracle.x, atol=1e-8)

    def test_iteration_limit_distinct_from_infeasible(self, monkeypatch):
        # a step that never moves x leaves a constraint violated forever, so
        # the budget of 100 + 20 m steps runs out
        qp = QpProblem(np.zeros(2), np.eye(2), np.array([1.0, 1.0]))
        calls = []

        def stalled(s, p, view):
            calls.append(p)
            return Advanced(s)

        monkeypatch.setattr(activeset_qp, "inner_gi_step", stalled)
        with pytest.raises(IterationLimitError, match="budget 140 exhausted"):
            gi_solve(qp)
        assert len(calls) == 100 + 20 * qp.m


class TestWarmStartedSolve:
    def test_optimal_start_takes_no_step(self):
        # projecting the answer again finds no violated constraint
        c = np.column_stack([np.eye(2), np.array([1.0, 1.0])])
        b = np.array([1.0, 1.0, 1.0])
        res = gi_solve(QpProblem(np.zeros(2), c, b))
        again = gi_solve(QpProblem(res.x, c, b))
        assert again.inner_steps == 0 and again.x.tobytes() == res.x.tobytes()

    def test_zero_normal_rejected(self):
        qp = QpProblem(np.zeros(2), np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2))
        with pytest.raises(PreconditionViolated, match="zero constraint normal"):
            gi_solve(qp)


class TestTrustedConstructors:
    """The solvers' unchecked constructors build what the checked ones do."""

    def test_public_problem_keeps_its_checks(self):
        with pytest.raises(ValueError, match="x_star has non-finite entries"):
            QpProblem(np.array([np.nan, 0.0]), np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="b has length 1, C has 2 columns"):
            QpProblem(np.zeros(2), np.eye(2), np.zeros(1))
        with pytest.raises(ValueError, match="x_star has length 3, C has 2 rows"):
            QpProblem(np.zeros(3), np.eye(2), np.zeros(2))

    def test_empty_s_tuple(self):
        x = np.array([0.5, -1.0, 2.0])
        s, checked = _empty_s_tuple(x), empty_s_tuple(x)
        assert s.x is not x and s.x.tobytes() == checked.x.tobytes()
        assert (s.j_set, s.u.size, s.qr) == ((), 0, checked.qr)
        with pytest.raises(ValueError, match="x_star has non-finite entries"):
            empty_s_tuple(np.array([np.inf]))


class TestViolatedTest:
    """``_violated`` is False exactly when the steps refuse a constraint as
    satisfied at x."""

    def test_agrees_with_the_steps_near_the_boundary(self):
        rng = np.random.default_rng(32)
        seen = set()
        for _ in range(400):
            n = int(rng.integers(1, 8))
            c, x = rng.standard_normal(n), rng.standard_normal(n) * 10.0 ** rng.integers(-3, 8)
            b = float(c.dot(x)) + float(rng.integers(-3, 4)) * np.spacing(float(c.dot(x)))
            try:
                _require_violated(c, b, x)
                refused = False
            except PreconditionViolated:
                refused = True
            assert _violated(c, b, x) is not refused
            seen.add(refused)
        assert seen == {True, False}

    def test_zero_normal_is_left_to_the_steps(self):
        assert _violated(np.zeros(3), 1.0, np.ones(3))
        with pytest.raises(PreconditionViolated, match="normal is zero"):
            _require_violated(np.zeros(3), 1.0, np.ones(3))


class TestReductions:
    def test_halfspace_matches_closed_form(self):
        c = np.array([[1.0], [0.0], [0.0]])
        x = np.array([-2.0, 1.0, 4.0])
        out = project_polyhedron_reduced(x, c, np.array([1.0]))
        np.testing.assert_allclose(out, [1.0, 1.0, 4.0], atol=1e-12)

    def test_high_dimension_small_face_count(self):
        rng = np.random.default_rng(3)
        n, d = 50, 3
        c = rng.uniform(-1, 1, (n, d))
        y0 = rng.uniform(-1, 1, n)
        b = c.T @ y0 + rng.uniform(-0.5, 0.2, d)
        x = rng.uniform(-2, 2, n)
        direct = gi_solve(QpProblem(x, c, b)).x
        np.testing.assert_allclose(project_polyhedron_reduced(x, c, b), direct, atol=1e-8)

    def test_feasible_point_fixed(self):
        c = np.array([[1.0], [0.0]])
        x = np.array([2.0, 5.0])
        np.testing.assert_allclose(project_polyhedron_reduced(x, c, np.array([1.0])), x, atol=1e-12)

    def test_rank_deficient_falls_back_to_the_direct_solve(self):
        c = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])  # two equal columns
        with pytest.raises(RankDeficient):
            qr_factorize(c)
        out = project_polyhedron_reduced(np.array([-2.0, 1.0, 0.0]), c, np.array([5.0, 5.0]))
        np.testing.assert_allclose(out, [5.0, 1.0, 0.0], atol=1e-12)

    def test_wide_c_falls_back_to_the_direct_solve(self):
        c = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])  # 2 x 3: more faces than dimensions
        with pytest.raises(ValueError, match="tall"):
            qr_factorize(c)
        out = project_polyhedron_reduced(np.array([-1.0, 0.0]), c, np.array([1.0, 0.0, 1.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)


class TestConeProjectReduced:
    def test_membership_fixed_point(self):
        n0 = np.column_stack([np.array([-1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0])])
        c_p = np.array([0.5, 1.5, 0.0])  # inside cone(-N0)
        y, j_idx, r = cone_project_reduced(n0, c_p)
        np.testing.assert_allclose(y, c_p, atol=1e-12)
        assert np.all(r < 0.0)

    def test_orthogonal_gives_zero(self):
        n0 = np.array([[1.0], [0.0]])
        c_p = np.array([0.0, 2.0])
        y, j_idx, r = cone_project_reduced(n0, c_p)
        np.testing.assert_allclose(y, [0.0, 0.0], atol=1e-12)
        assert j_idx == ()

    def test_random_against_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n, q0 = 20, 4
            n0 = rng.uniform(-1, 1, (n, q0))
            c_p = rng.uniform(-1, 1, n)
            y, j_idx, r = cone_project_reduced(n0, c_p)
            np.testing.assert_allclose(y, cone_project_enum(-n0, c_p), atol=1e-8)
            if j_idx:
                np.testing.assert_allclose(n0[:, list(j_idx)] @ r, y, atol=1e-8)


class TestVerifyCertificate:
    def test_hand_farkas(self):
        c = np.array([[1.0, -1.0]])
        cert = InfeasibilityCertificate((0, 1), np.array([1.0, 1.0]))
        assert verify_certificate(cert, c, np.array([1.0, 0.0]))

    def test_negative_lambda_rejected(self):
        c = np.array([[1.0, -1.0]])
        cert = InfeasibilityCertificate((0, 1), np.array([1.0, -1.0]))
        assert not verify_certificate(cert, c, np.array([1.0, 0.0]))

    def test_zero_gap_rejected(self):
        c = np.array([[1.0, -1.0]])
        cert = InfeasibilityCertificate((0, 1), np.array([1.0, 1.0]))
        assert not verify_certificate(cert, c, np.array([0.0, 0.0]))


def kkt_state(rng, n, q, m):
    """A valid s-tuple with q active columns out of m: tight at x, u >= 0,
    x* - x = -N u and exact QR factors."""
    c_mat = rng.normal(size=(n, m))
    x = rng.normal(size=n)
    u = rng.uniform(0.1, 2.0, q)
    j_set = tuple(int(j) for j in rng.permutation(m)[:q])
    n_mat = c_mat[:, list(j_set)]
    b = rng.normal(size=m)
    b[list(j_set)] = n_mat.T @ x
    qp = QpProblem(x - n_mat @ u, c_mat, b)
    return STuple(x, j_set, u, qr_factorize(n_mat)), qp


def ratio_test_general(u_plus: np.ndarray, r: np.ndarray) -> tuple[float, int]:
    """The engine's former numpy ratio test, kept as the reference."""
    r_scale = 1.0 + (float(np.max(np.abs(r))) if r.size else 0.0)
    pos = np.flatnonzero(r > R_POS_TOL * r_scale)
    if pos.size == 0:
        return INF, -1
    ratios = u_plus[pos] / r[pos]
    k = int(np.argmin(ratios))
    return float(ratios[k]), int(pos[k])


def dual_update_general(u_plus: np.ndarray, t: float, r: np.ndarray) -> np.ndarray:
    """The engine's former numpy multiplier update, kept as the reference."""
    u = u_plus + t * np.append(-r, 1.0)
    mask = (u < 0.0) & (u >= -DUAL_TOL)
    u[mask] = 0.0
    return u


def drop_scan_general(r: np.ndarray) -> int:
    """The degenerate step's former numpy drop scan, kept as the reference."""
    scale = 1.0 + (float(np.max(np.abs(r))) if r.size else 0.0)
    pos = np.flatnonzero(r > R_POS_TOL * scale)
    return int(pos[0]) if pos.size else -1


SCAN_SIZES = [0, 1, 2, 3, 10, 50]


class TestSmallActiveSetPaths:
    """The ratio test, the multiplier update and the drop scan run on Python
    floats at every active-set size, and the invariant residuals take
    Python-scalar branches for at most two columns; each must reproduce its
    numpy reference bit for bit."""

    @pytest.mark.parametrize("q", SCAN_SIZES)
    def test_ratio_test_matches_general(self, q):
        rng = np.random.default_rng(100 + q)
        for _ in range(400):
            u_plus = np.abs(rng.normal(size=q + 1)) * (rng.uniform(size=q + 1) < 0.7)
            r = rng.normal(size=q) * (rng.uniform(size=q) < 0.8)
            if q > 1 and rng.uniform() < 0.3:
                # a tie between two ratios, and from q = 3 an r_h on the
                # positive bound or one ulp either side of it
                i, k, *h = rng.choice(q, min(q, 3), replace=False)
                r[i] = r[k] = abs(r[i]) + 0.1
                u_plus[i] = u_plus[k] = 1.0
                if h:
                    r[h[0]] = 0.0
                    thresh = R_POS_TOL * (1.0 + float(np.max(np.abs(r))))
                    r[h[0]] = np.nextafter(thresh, rng.choice([0.0, thresh, 1.0]))
            assert _ratio_test(u_plus.tolist(), r.tolist()) == ratio_test_general(u_plus, r)

    def test_ratio_test_ties_pick_lowest_position(self):
        u_plus, r = np.array([1.0, 1.0, 0.0]), np.array([2.0, 2.0])
        assert _ratio_test(u_plus.tolist(), r.tolist()) == ratio_test_general(u_plus, r) == (0.5, 0)

    @pytest.mark.parametrize("q", SCAN_SIZES)
    def test_dual_update_matches_general(self, q):
        rng = np.random.default_rng(200 + q)
        for _ in range(400):
            u_plus = np.abs(rng.normal(size=q + 1))
            r = rng.normal(size=q)
            t = float(rng.uniform(0.0, 2.0))
            if q and rng.uniform() < 0.3:
                # land multipliers within the clipping band just below zero,
                # and one just below the band
                for i in rng.choice(q, min(q, 3), replace=False):
                    u_plus[i] = t * r[i] - float(rng.choice([1e-12, DUAL_TOL, 2 * DUAL_TOL]))
            small = _dual_update(u_plus.tolist(), t, r.tolist())
            assert np.array(small).tobytes() == dual_update_general(u_plus, t, r).tobytes()

    def test_dual_update_clips_the_band_only(self):
        small = _dual_update([1.0, 1.0, 0.0], 1.0, [1.0 + 1e-12, 1.0 + 2 * DUAL_TOL])
        assert small[0] == 0.0 and small[1] < -DUAL_TOL and small[2] == 1.0
        # r_i = 0 leaves u_i as it is: the band's edges exactly
        below = float(np.nextafter(-DUAL_TOL, -1.0))
        u_plus, r = np.array([-DUAL_TOL, below, 0.0]), np.zeros(2)
        small = _dual_update(u_plus.tolist(), 1.0, r.tolist())
        assert small == [0.0, below, 1.0]
        assert np.array(small).tobytes() == dual_update_general(u_plus, 1.0, r).tobytes()

    @pytest.mark.parametrize("q", SCAN_SIZES)
    def test_drop_scan_matches_general(self, q):
        rng = np.random.default_rng(250 + q)
        for _ in range(400):
            r = rng.normal(size=q) * (rng.uniform(size=q) < 0.5)
            if q and rng.uniform() < 0.5:
                r = -np.abs(r)  # often nothing to drop
                if rng.uniform() < 0.5:
                    # an entry at the positive bound, or one ulp either side
                    thresh = R_POS_TOL * (1.0 + float(np.max(np.abs(r))))
                    r[rng.integers(q)] = np.nextafter(thresh, float(rng.choice([0.0, 1.0, thresh])))
            assert _first_positive(r.tolist()) == drop_scan_general(r)

    @pytest.mark.parametrize("q", [1, 2])
    def test_invariant_residuals_match_general(self, q):
        rng = np.random.default_rng(300 + q)
        for _ in range(100):
            n = int(rng.integers(q, 7))
            s, qp = kkt_state(rng, n, q, q + 2)
            if rng.uniform() < 0.5:
                # move the factored columns away from the store and x off the bounds
                mat = s.qr.mat + 1e-3 * rng.normal(size=s.qr.mat.shape)
                s = STuple(s.x + 1e-3, s.j_set, s.u - 0.5, QrFactors(s.qr.q_mat, s.qr.r_mat, mat))
            assert _invariant_residuals(s, qp) == _invariant_residuals_general(s, qp)

    def test_empty_active_set_residuals_match_general(self):
        qp = QpProblem(np.array([1.0, -2.0]), np.eye(2), np.zeros(2))
        s = empty_s_tuple(np.array([0.5, 0.5]))
        assert _invariant_residuals(s, qp) == _invariant_residuals_general(s, qp)

    def test_violation_scan_matches_general(self):
        # the scan forms ||x|| only for a candidate below -FEAS_TOL; it must
        # pick what a plain loop against -FEAS_TOL (1 + ||x||) picks: the
        # first minimum, never a NaN residual
        rng = np.random.default_rng(400)
        nan_rows = 0
        for _ in range(800):
            m = int(rng.integers(1, 9))
            x = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 9.0)
            thresh = -FEAS_TOL * (1.0 + math.sqrt(float(x.dot(x))))
            ax, norms = rng.normal(size=m), rng.uniform(0.5, 2.0, m)
            target = thresh * rng.uniform(0.0, 2.0, m) * (rng.uniform(size=m) < 0.7)
            b = ax - target * norms
            if rng.uniform() < 0.3:  # a tie for the most violated
                j = int(np.argmin(target))
                ax[-1], b[-1], norms[-1] = ax[j], b[j], norms[j]
            if rng.uniform() < 0.3:  # a NaN residual
                ax[int(rng.integers(m))] = np.nan
                nan_rows += 1
            want, worst = -1, thresh
            for j, (ax_j, b_j, nrm_j) in enumerate(zip(ax.tolist(), b.tolist(), norms.tolist())):
                r_j = (ax_j - b_j) / nrm_j
                if r_j < worst:
                    want, worst = j, r_j
            assert _pick_violated(ax, b, norms, x) == want
        assert nan_rows > 100

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("defect", ["column", "tightness", "multiplier", "kkt", "qr"])
    def test_failed_invariant_recorded_on_private_monitor(self, q, defect):
        rng = np.random.default_rng(500 + q)
        s, qp = kkt_state(rng, 5, q, q + 2)
        ok_mon = InvariantMonitor()
        assert check_s_tuple(s, qp, monitor=ok_mon)
        assert (ok_mon.checks, ok_mon.violations) == (5, 0)

        j0 = s.j_set[0]
        if defect == "column":
            c_mat = qp.c_mat.copy()
            c_mat[0, j0] += 1e-3
            qp = QpProblem(qp.x_star, c_mat, qp.b)
        elif defect == "tightness":
            b = qp.b.copy()
            b[j0] += 1e-3
            qp = QpProblem(qp.x_star, qp.c_mat, b)
        elif defect == "multiplier":
            u = s.u.copy()
            u[0] = -1e-3
            s = STuple(s.x, s.j_set, u, s.qr)
            qp = QpProblem(s.x - s.qr.mat @ u, qp.c_mat, qp.b)
        elif defect == "kkt":
            qp = QpProblem(qp.x_star + 1e-3, qp.c_mat, qp.b)
        else:
            s = STuple(s.x, s.j_set, s.u, QrFactors(s.qr.q_mat * (1.0 + 1e-6), s.qr.r_mat, s.qr.mat))

        global_before = (MONITOR.checks, MONITOR.violations)
        mon = InvariantMonitor()
        assert not check_s_tuple(s, qp, where="probe", monitor=mon)
        assert (mon.checks, mon.violations) == (5, 1), mon.messages
        assert mon.messages[0].startswith("probe: ")
        assert (MONITOR.checks, MONITOR.violations) == global_before

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("where", ["x", "u", "Q", "R", "N"])
    @pytest.mark.parametrize("entry", [0, -1])
    def test_nan_fails_closed(self, q, where, entry):
        # a NaN compares false with every bound, and Python's max and min
        # keep or drop it by position: each check must still fail on it
        s, qp = kkt_state(np.random.default_rng(520 + q), 5, q, q + 2)
        parts = {"x": s.x.copy(), "u": s.u.copy(), "Q": s.qr.q_mat.copy(),
                 "R": s.qr.r_mat.copy(), "N": s.qr.mat.copy()}
        parts[where].flat[entry] = np.nan
        bad = STuple(parts["x"], s.j_set, parts["u"], QrFactors(parts["Q"], parts["R"], parts["N"]))
        mon = InvariantMonitor()
        assert not check_s_tuple(bad, qp, where="probe", monitor=mon)
        assert mon.checks == 5 and mon.violations >= 1, mon.messages
        # the reductions propagate the NaN as numpy's do
        small, general = _invariant_residuals(bad, qp), _invariant_residuals_general(bad, qp)
        assert small[0] == general[0]
        assert np.array_equal(np.isnan(small[1:]), np.isnan(general[1:]))


class _Columns:
    """A constraint view over a list of columns, which may hold any floats."""

    def __init__(self, x_star, cols, rhs):
        self.x_star, self.cols, self.b = x_star, cols, rhs

    def column(self, j):
        return self.cols[j]

    def rhs(self, j):
        return self.b[j]

    def rows(self, js):
        return np.array([self.cols[j] for j in js])

    def rhs_at(self, js):
        return np.array([self.b[j] for j in js])

    @property
    def m(self):
        return len(self.cols)


class TestColumnCheck:
    """The monitor compares all active columns with the store's in one
    element-wise test; it must flag what one ``np.array_equal`` per column
    flags."""

    @staticmethod
    def oracle(s, view):
        return [i for i, j in enumerate(s.j_set) if not np.array_equal(s.qr.mat[:, i], view.column(j))]

    @staticmethod
    def state(q, seed):
        s, qp = kkt_state(np.random.default_rng(seed), 20, q, q + 3)
        cols = [qp.column(j).copy() for j in range(qp.m)]
        return s, _Columns(qp.x_star, cols, list(qp.b))

    def flagged(self, s, view):
        bad = _invariant_residuals_general(s, view)[0]
        assert bad == self.oracle(s, view)
        return bad

    @pytest.mark.parametrize("q", [1, 3, 12])
    def test_clean_state_flags_nothing(self, q):
        s, view = self.state(q, 700 + q)
        assert self.flagged(s, view) == []

    @pytest.mark.parametrize("q", [1, 3, 12])
    def test_one_changed_entry(self, q):
        s, view = self.state(q, 710 + q)
        pos = q // 2
        view.cols[s.j_set[pos]][3] += 1e-15
        assert self.flagged(s, view) == [pos]

    @pytest.mark.parametrize("q", [1, 3, 12])
    @pytest.mark.parametrize("side", ["store", "factored"])
    def test_nan_mismatches(self, q, side):
        s, view = self.state(q, 720 + q)
        if side == "store":
            view.cols[s.j_set[0]][0] = np.nan
        else:
            mat = s.qr.mat.copy()
            mat[0, -1] = np.nan
            s = STuple(s.x, s.j_set, s.u, QrFactors(s.qr.q_mat, s.qr.r_mat, mat))
        assert self.flagged(s, view) == ([0] if side == "store" else [q - 1])

    @pytest.mark.parametrize("q", [1, 3, 12])
    def test_signed_zeros_match(self, q):
        s, view = self.state(q, 730 + q)
        mat = s.qr.mat.copy()
        mat[2, :] = -0.0
        for i, j in enumerate(s.j_set):
            view.cols[j][2] = 0.0 if i % 2 else -0.0
        s = STuple(s.x, s.j_set, s.u, QrFactors(s.qr.q_mat, s.qr.r_mat, mat))
        assert self.flagged(s, view) == []
