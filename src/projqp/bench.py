"""Benchmark harness: the two-circles experiment, problem generators and
randomized equivalence suites.

The two-circles instance (circles of radius 3 centered at (+-2.9, 0),
start (0, 10), solution (0, sqrt(0.59))) is run with cyclic set visits,
one inner step per outer iteration and no revisiting of old halfspaces;
distances to the known solution feed the two log-scale measures.  The
randomized suites check the engine against brute-force oracles and the
specialized solvers against the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .activeset_qp import (
    Infeasible,
    QpProblem,
    STuple,
    cone_project_reduced,
    degenerate_inner_gi_step,
    gi_solve,
    inner_gi_step,
    project_polyhedron_reduced,
    verify_certificate,
)
from .art import HyperslabSystem, art3_solve, extended_art_solve
from .box_qp import BoxQp, solve_box_qp
from .convex_sets import Ball, Box, Hyperslab, problem_document, problem_from_dict, problem_to_dict, sets_to_dicts
from .linalg import norm, qr_factorize
from .oracles import cone_project_enum, project_polyhedron_enum
from .solvers import SolveReport, SolverOptions, TraceRow, _is_count, fill_measures, solve, trace_csv


class NonPositiveDistance(ValueError):
    """Distances must be positive; a zero row terminates the table."""


TWO_CIRCLES_XBAR = np.array([0.0, math.sqrt(0.59)])
TWO_CIRCLES_X0 = np.array([0.0, 10.0])
TWO_CIRCLES_FEAS_TOL = 1e-15

METHOD_DEFAULT_ITERS = {
    "bap-gi": 60,
    "sip-gi": 60,
    "map": 400,
    "dykstra": 2000,
    "haugazeau": 90_000,
}


def two_circles_sets() -> list[Ball]:
    return [Ball(np.array([2.9, 0.0]), 3.0), Ball(np.array([-2.9, 0.0]), 3.0)]


def compute_measures(dists) -> list[TraceRow]:
    """Measure 1 = [ln d_i - ln d_0]/i, Measure 2 = ln d_i - ln d_{i-1}, as
    ``solvers.fill_measures`` computes them.

    A zero distance terminates the table; negative distances are an error.
    """
    rows: list[TraceRow] = []
    for i, d in enumerate(dists):
        d = float(d)
        if d < 0.0:
            raise NonPositiveDistance(f"distance at row {i} is negative")
        if d == 0.0:
            break
        rows.append(TraceRow(i, d, None, None))
    fill_measures(rows)
    return rows


def run_two_circles(method: str, max_iter: int | None = None) -> tuple[SolveReport, list[TraceRow]]:
    """Run one method on the two-circles instance; the table is the report's
    trace up to the first zero distance (the measures need a logarithm).

    Each row's distance to the known solution is computed from the
    iterate the solve recorded, and the measures from those distances.
    """
    if method not in METHOD_DEFAULT_ITERS:
        raise ValueError(f"method {method!r} does not apply to the two-circles problem")
    cap = max_iter if max_iter is not None else METHOD_DEFAULT_ITERS[method]
    opts = SolverOptions(feas_tol=TWO_CIRCLES_FEAS_TOL, max_outer_iters=cap, record_iterates=True)
    report = solve(method, TWO_CIRCLES_X0, two_circles_sets(), opts)
    for r in report.rows:
        r.dist = norm(r.x - TWO_CIRCLES_XBAR)
    fill_measures(report.rows)
    return report, list(takewhile(lambda r: r.dist != 0.0, report.rows))


def measure_rows_to_csv(rows: list[TraceRow]) -> list[str]:
    """The table as CSV; the event column stays empty."""
    return trace_csv(TraceRow(r.iteration, r.dist, r.measure1, r.measure2) for r in rows)


# ---------------------------------------------------------------------------
# Problem generation

# each generator kind and the least set count it takes
_LEAST_COUNT = {"balls-with-common-point": 1, "box-plus-ball": 2,
                "hyperslabs-with-interior": 1, "infeasible-balls": 2}
GENERATOR_KINDS = tuple(_LEAST_COUNT)


def generate_problem(kind: str, n: int, count: int, seed: int) -> dict:
    """Deterministic random problem as a JSON-ready dict.

    Feasible kinds record the witness point used in their construction;
    the hyperslab kind guarantees the witness sits strictly inside every
    slab with margin at least 0.1.  An n below 1 raises ``ValueError``
    before anything is drawn: no direction in R^0 has a nonzero length.
    So does a count of sets below the kind's least: 1 for
    ``balls-with-common-point`` and ``hyperslabs-with-interior``, 2 for
    ``box-plus-ball`` (a box and at least one ball) and for
    ``infeasible-balls``, which writes two balls for any larger count too.

    A hyperslab document draws the witness w, then per slab the normal
    draw of ``_random_direction`` and one ``random(3)``: u0 scales the row
    by 0.5 + 1.5 u0, u1 and u2 widen its bounds.  numpy draws
    ``uniform(lo, hi)`` as lo + (hi - lo) * random(), so these are the
    stream and the values of the three scalar ``uniform`` calls each slab
    once made, and every document keeps its bytes.  x0 is drawn last.  The
    rows fill one array, checked once as a ``HyperslabSystem``.
    """
    if not _is_count(n, 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if kind not in _LEAST_COUNT:
        raise ValueError(f"unknown generator kind {kind!r}; choose from {GENERATOR_KINDS}")
    if not _is_count(count, _LEAST_COUNT[kind]):
        raise ValueError(f"count must be an integer >= {_LEAST_COUNT[kind]} for {kind}, got {count!r}")
    rng = np.random.default_rng(seed)
    if kind == "balls-with-common-point":
        w = rng.uniform(-1.0, 1.0, n)
        sets = []
        for _ in range(count):
            center = w + rng.uniform(-1.5, 1.5, n)
            radius = norm(center - w) + float(rng.uniform(0.1, 0.8))
            sets.append(Ball(center, radius))
        x0 = w + _random_direction(rng, n) * float(rng.uniform(2.0, 5.0))
        return problem_to_dict(sets, x0, witness=w, kind=kind, seed=seed)
    if kind == "box-plus-ball":
        w = rng.uniform(-1.0, 1.0, n)
        lower = w - rng.uniform(0.1, 1.0, n)
        upper = w + rng.uniform(0.1, 1.0, n)
        sets: list = [Box(lower, upper)]
        for _ in range(count - 1):
            center = w + rng.uniform(-1.0, 1.0, n)
            radius = norm(center - w) + float(rng.uniform(0.1, 0.6))
            sets.append(Ball(center, radius))
        x0 = w + _random_direction(rng, n) * float(rng.uniform(1.5, 4.0))
        return problem_to_dict(sets, x0, witness=w, kind=kind, seed=seed)
    if kind == "hyperslabs-with-interior":
        w = rng.uniform(-1.0, 1.0, n)
        a_mat = np.empty((count, n))
        lower, upper = [], []
        for a in a_mat:
            d = _random_direction(rng, n)
            # uniform(0.5, 2.0) and two uniform(0, 1), as numpy draws them
            u0, u1, u2 = rng.random(3).tolist()
            np.multiply(d, 0.5 + (2.0 - 0.5) * u0, out=a)
            mid = float(a.dot(w))
            na = norm(a)
            # margin is measured as slack in a^T x, scaled so the euclidean
            # margin of the witness is at least 0.1
            lower.append(mid - 0.1 * na - u1)
            upper.append(mid + 0.1 * na + u2)
        # raises where a row or bound breaks the loader's rules for a slab
        system = HyperslabSystem(a_mat, lower, upper)
        slabs = sets_to_dicts("hyperslab", {"a": system.a_mat, "lower": system.lower, "upper": system.upper})
        x0 = w + _random_direction(rng, n) * float(rng.uniform(2.0, 6.0))
        return problem_document(slabs, x0, witness=w, kind=kind, seed=seed)
    # infeasible-balls
    direction = _random_direction(rng, n)
    r1 = float(rng.uniform(0.5, 1.5))
    r2 = float(rng.uniform(0.5, 1.5))
    gap = float(rng.uniform(0.5, 2.0))
    c1 = direction * (r1 + gap / 2.0)
    c2 = -direction * (r2 + gap / 2.0)
    sets = [Ball(c1, r1), Ball(c2, r2)]
    x0 = rng.uniform(-1.0, 1.0, n) + direction * 3.0
    return problem_to_dict(sets, x0, witness=None, kind=kind, seed=seed)


def _random_direction(rng, n: int) -> np.ndarray:
    while True:
        v = rng.normal(size=n)
        nv = norm(v)
        if nv > 1e-6:
            return v / nv


def hyperslab_system_from_sets(sets) -> HyperslabSystem:
    slabs = [k for k in sets if isinstance(k, Hyperslab)]
    if len(slabs) != len(sets):
        raise ValueError("ART methods need a pure hyperslab problem")
    return HyperslabSystem(
        np.array([k.a for k in slabs]),
        np.array([k.lower for k in slabs]),
        np.array([k.upper for k in slabs]),
    )


# ---------------------------------------------------------------------------
# Randomized equivalence suites


@dataclass
class SuiteResult:
    name: str
    total: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = "" if self.passed else f" ({len(self.failures)} failures; first: {self.failures[0]})"
        return f"suite {self.name}: {status} ({self.total - len(self.failures)}/{self.total}){extra}"


def _random_qp(rng, n_max=6, m_max=10) -> QpProblem:
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    while True:
        c_mat = rng.uniform(-1.0, 1.0, (n, m))
        if np.all(np.linalg.norm(c_mat, axis=0) > 0.1):
            break
    y0 = rng.uniform(-1.0, 1.0, n)
    b = c_mat.T @ y0 + rng.uniform(-0.5, 0.5, m)
    x_star = rng.uniform(-1.0, 1.0, n)
    return QpProblem(x_star, c_mat, b)


def suite_qp_oracle(seed: int = 0, count: int = 200) -> SuiteResult:
    """gi_solve against the subset-enumeration oracle (criterion: 1e-8).

    Draws whose projection lands far outside the data box (near-parallel
    active constraints blow the solution up and with it the meaning of an
    absolute 1e-8 comparison) are redrawn; the instances that count still
    have entries in [-1, 1] with mixed feasible/infeasible shifts.
    """
    rng = np.random.default_rng(seed)
    failures = []
    k = 0
    while k < count:
        qp = _random_qp(rng)
        oracle = project_polyhedron_enum(qp.x_star, qp.c_mat, qp.b)
        if oracle.feasible and float(np.linalg.norm(oracle.x - qp.x_star)) > 20.0:
            continue
        k += 1
        res = gi_solve(qp)
        if isinstance(res, Infeasible):
            if oracle.feasible:
                failures.append(f"case {k}: solver infeasible, oracle feasible")
            elif not verify_certificate(res.certificate, qp.c_mat, qp.b):
                failures.append(f"case {k}: invalid certificate")
        else:
            if not oracle.feasible:
                failures.append(f"case {k}: solver feasible, oracle infeasible")
            elif float(np.linalg.norm(res.x - oracle.x)) > 1e-8:
                failures.append(
                    f"case {k}: solutions differ by {float(np.linalg.norm(res.x - oracle.x)):.2e}"
                )
    return SuiteResult("qp-oracle", count, failures)


def _random_box_instance(rng, n_max=8):
    n = int(rng.integers(1, n_max + 1))
    lower = np.where(rng.uniform(size=n) < 0.2, -np.inf, rng.uniform(-1.5, -0.1, n))
    upper = np.where(rng.uniform(size=n) < 0.2, np.inf, rng.uniform(0.1, 1.5, n))
    x_star = np.array(
        [rng.uniform(max(lo, -2.0), min(up, 2.0)) for lo, up in zip(lower, upper)]
    )
    c_p = _random_direction(rng, n)
    b_hat = float(c_p @ x_star) + float(rng.uniform(0.05, 1.5))
    return BoxQp(x_star, lower, upper, c_p, b_hat)


def box_faces_qp(p: BoxQp) -> QpProblem:
    """The box rewritten as halfspaces (finite faces only) plus c_p."""
    n = p.x_star.shape[0]
    cols = []
    rhs = []
    eye = np.eye(n)
    for i in range(n):
        if math.isfinite(p.lower[i]):
            cols.append(eye[:, i])
            rhs.append(p.lower[i])
        if math.isfinite(p.upper[i]):
            cols.append(-eye[:, i])
            rhs.append(-p.upper[i])
    cols.append(p.c_p)
    rhs.append(p.b_hat)
    return QpProblem(p.x_star, np.column_stack(cols), np.asarray(rhs))


def suite_box(seed: int = 0, count: int = 200) -> SuiteResult:
    """solve_box_qp against gi_solve on the expanded face system."""
    rng = np.random.default_rng(seed)
    failures = []
    for k in range(count):
        p = _random_box_instance(rng)
        result = solve_box_qp(p)
        res = gi_solve(box_faces_qp(p))
        if result.feasible != (not isinstance(res, Infeasible)):
            failures.append(f"case {k}: verdicts differ (box={result.feasible})")
        elif result.feasible and float(np.linalg.norm(result.x - res.x)) > 1e-8:
            failures.append(
                f"case {k}: solutions differ by {float(np.linalg.norm(result.x - res.x)):.2e}"
            )
    return SuiteResult("box-qp", count, failures)


def _random_degenerate_qp(rng, n_max=6):
    """A degenerate-state QP: q0 tight constraints at x* plus one violated."""
    n = int(rng.integers(2, n_max + 1))
    q0 = int(rng.integers(1, min(n - 1, 4) + 1))
    while True:
        c_mat = rng.uniform(-1.0, 1.0, (n, q0))
        c_mat /= np.linalg.norm(c_mat, axis=0)
        if np.linalg.matrix_rank(c_mat, tol=1e-6) == q0:
            break
    x_star = rng.uniform(-1.0, 1.0, n)
    b_tight = c_mat.T @ x_star
    c_p = _random_direction(rng, n)
    b_hat = float(c_p @ x_star) + float(rng.uniform(0.2, 1.0))
    qp = QpProblem(x_star, np.column_stack([c_mat, c_p]), np.append(b_tight, b_hat))
    s0 = STuple(x_star.copy(), tuple(range(q0)), np.zeros(q0), qr_factorize(c_mat))
    return qp, s0, q0


def suite_thm73(seed: int = 0, count: int = 100) -> SuiteResult:
    """Equivalence of the refined degenerate step and two inner steps.

    Sequence one: drop loop, exactly one refinement round over the dropped
    candidates (lowest eligible index), then the full step.  Sequence two:
    the inner step from zero multipliers followed by one inner step on the
    lowest violated dropped index.  Iterates must agree to 1e-10.
    """
    rng = np.random.default_rng(seed)
    failures = []
    for k in range(count):
        qp, s0, q0 = _random_degenerate_qp(rng)
        p = q0
        plain = inner_gi_step(s0, p, qp)
        if isinstance(plain, Infeasible):
            refined = degenerate_inner_gi_step(s0, p, qp)
            if not isinstance(refined, Infeasible):
                failures.append(f"case {k}: verdicts differ")
            continue
        s1 = plain.s_tuple
        dropped = [j for j in range(q0) if j not in s1.j_set]
        violated = [
            j
            for j in dropped
            if float(qp.column(j) @ s1.x) - qp.rhs(j) < -1e-12 * (1.0 + abs(qp.rhs(j)))
        ]
        refined = degenerate_inner_gi_step(s0, p, qp)
        if not violated:
            if isinstance(refined, Infeasible):
                failures.append(f"case {k}: refinement reported infeasible")
            elif float(np.linalg.norm(refined.s_tuple.x - s1.x)) > 1e-10:
                failures.append(f"case {k}: no-candidate iterates differ")
            continue
        j = min(violated)
        second = inner_gi_step(s1, j, qp)
        if isinstance(second, Infeasible) or isinstance(refined, Infeasible):
            if type(second) is not type(refined):
                failures.append(f"case {k}: verdicts differ after entering {j}")
            continue
        entered = [ev for ev in refined.events if ev.startswith("enter:")]
        if entered and entered != [f"enter:{j}"]:
            failures.append(f"case {k}: entering index {entered} != {j}")
            continue
        diff = float(np.linalg.norm(refined.s_tuple.x - second.s_tuple.x))
        if diff > 1e-10:
            failures.append(f"case {k}: iterates differ by {diff:.2e}")
    return SuiteResult("thm73-equivalence", count, failures)


def suite_reductions(seed: int = 0, count: int = 100) -> SuiteResult:
    """Reduced-space projections against their direct counterparts (1e-8)."""
    rng = np.random.default_rng(seed)
    failures = []
    for k in range(count):
        n = int(rng.integers(10, 51))
        d = int(rng.integers(1, 6))
        c_mat = rng.uniform(-1.0, 1.0, (n, d))
        y0 = rng.uniform(-1.0, 1.0, n)
        b = c_mat.T @ y0 + rng.uniform(-0.8, 0.3, d)
        x = rng.uniform(-2.0, 2.0, n)
        via_reduced = project_polyhedron_reduced(x, c_mat, b)
        direct = gi_solve(QpProblem(x, c_mat, b))
        if isinstance(direct, Infeasible):
            failures.append(f"case {k}: unexpected infeasible polyhedron")
            continue
        if float(np.linalg.norm(via_reduced - direct.x)) > 1e-8:
            failures.append(f"case {k}: polyhedron reduction differs")
    for k in range(count):
        n = int(rng.integers(10, 21))
        q0 = int(rng.integers(1, 5))
        n0 = rng.uniform(-1.0, 1.0, (n, q0))
        c_p = rng.uniform(-1.0, 1.0, n)
        y, j_idx, r = cone_project_reduced(n0, c_p)
        y_enum = cone_project_enum(-n0, c_p)
        if float(np.linalg.norm(y - y_enum)) > 1e-8:
            failures.append(f"cone case {k}: differs from enumeration")
            continue
        if len(j_idx) and (np.any(r >= 0.0) or float(np.linalg.norm(n0[:, list(j_idx)] @ r - y)) > 1e-8):
            failures.append(f"cone case {k}: bad support representation")
    return SuiteResult("reductions", 2 * count, failures)


def suite_art(seed: int = 0, count: int = 100) -> SuiteResult:
    """Finite termination with exact membership on interiorful systems,
    plus Fejer monotonicity of the restart subsequence (1e-9)."""
    rng = np.random.default_rng(seed)
    failures = []
    for k in range(count):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(2, 21))
        doc = generate_problem("hyperslabs-with-interior", n, m, seed * 100_003 + k)
        sets, x0, extras = problem_from_dict(doc)
        system = hyperslab_system_from_sets(sets)
        witness = np.asarray(extras["witness"], dtype=float)
        rep3 = art3_solve(x0, system)
        if rep3.status != "solved" or not system.contains(rep3.x):
            failures.append(f"case {k}: art3 failed ({rep3.status})")
            continue
        repx = extended_art_solve(x0, system, witness=witness)
        if repx.status != "solved" or not system.contains(repx.x):
            failures.append(f"case {k}: extended art failed ({repx.status})")
            continue
        if repx.extras["fejer_max_increase"] > 1e-9:
            failures.append(
                f"case {k}: Fejer violation {repx.extras['fejer_max_increase']:.2e}"
            )
        if repx.extras["forbidden_p_times"]:
            failures.append(f"case {k}: P_times attempted in case 2/3")
    return SuiteResult("art-finite", count, failures)


ALL_SUITES = {
    "qp-oracle": suite_qp_oracle,
    "box-qp": suite_box,
    "thm73-equivalence": suite_thm73,
    "reductions": suite_reductions,
    "art-finite": suite_art,
}


def run_oracle_suites(seed: int = 0, names=None) -> list[SuiteResult]:
    selected = names or list(ALL_SUITES)
    return [ALL_SUITES[name](seed) for name in selected]
