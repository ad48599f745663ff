"""Outer drivers: supporting-halfspace QP solvers and classical baselines.

``solve_bap`` projects x0 onto the intersection of convex sets by feeding
each newly generated supporting halfspace to the dual active-set engine,
keeping the active set (and its QR factors) warm across outer iterations.
``solve_sip`` looks the same but re-anchors at the current iterate every
outer iteration (multipliers reset to zero), so each step slides along the
kept active halfspaces via the degenerate inner step.  ``solve_map``,
``solve_dykstra`` and ``solve_haugazeau`` are the projection baselines the
benchmark compares against.

All solvers visit sets cyclically by default and declare success once a
full pass finds every set satisfied within ``feas_tol * (1 + ||x||)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .activeset_qp import (
    DEFAULT_TOLS,
    AplusOptions,
    GiTolerances,
    Infeasible,
    InfeasibilityCertificate,
    QpProblem,
    STuple,
    check_s_tuple,
    degenerate_inner_gi_step,
    empty_s_tuple,
    gi_solve,
    inner_gi_step,
)
from .box_qp import BoxQp, box_infeasibility_system, solve_box_qp
from .convex_sets import Box, ConvexSet, project_set
from .linalg import RANK_TOL, as_start, qr_append_column, qr_delete_column


class DegenerateAggregate(ValueError):
    """Aggregation weights cancel; the combined normal would vanish."""


# ---------------------------------------------------------------------------
# Halfspace store


class HalfspaceStore:
    """Growing collection of halfspaces {y : c^T y >= b} with provenance.

    Column indices are positions in the store; removing a column shifts
    later indices down, so callers remap their index sets with the map
    returned by ``remove``.
    """

    def __init__(self):
        self.cols: list[np.ndarray] = []
        self.b: list[float] = []
        self.source: list[int] = []
        self.birth: list[int] = []

    @property
    def m(self) -> int:
        return len(self.cols)

    def add(self, c, b: float, source: int = -1, birth: int = 0) -> int:
        self.cols.append(np.asarray(c, dtype=float))
        self.b.append(float(b))
        self.source.append(int(source))
        self.birth.append(int(birth))
        return len(self.cols) - 1

    def column(self, j: int) -> np.ndarray:
        return self.cols[j]

    def rhs(self, j: int) -> float:
        return self.b[j]

    def matrix(self) -> np.ndarray:
        if not self.cols:
            return np.zeros((0, 0))
        return np.column_stack(self.cols)

    def rhs_vector(self) -> np.ndarray:
        return np.asarray(self.b, dtype=float)

    def remove(self, j: int) -> dict[int, int]:
        del self.cols[j]
        del self.b[j]
        del self.source[j]
        del self.birth[j]
        remap = {}
        for old in range(self.m + 1):
            if old == j:
                continue
            remap[old] = old if old < j else old - 1
        return remap

    def clear(self) -> None:
        self.cols.clear()
        self.b.clear()
        self.source.clear()
        self.birth.clear()


@dataclass
class _StoreView:
    """Adapts (anchor point, halfspace store) to the engine's problem view."""

    x_star: np.ndarray
    store: HalfspaceStore

    def column(self, p: int) -> np.ndarray:
        return self.store.column(p)

    def rhs(self, p: int) -> float:
        return self.store.rhs(p)

    @property
    def m(self) -> int:
        return self.store.m


# ---------------------------------------------------------------------------
# Options and reports


@dataclass(frozen=True)
class SolverOptions:
    feas_tol: float = 1e-9
    max_outer_iters: int = 1000
    inner_steps_per_outer: int | str = 1  # count, or "to-optimality"
    set_visit_order: str = "cyclic"  # or "most-violated"
    max_store: int | None = None
    aggregation_policy: str = "oldest-active-pair"
    revisit_old_constraints: bool = False
    reference: np.ndarray | None = None
    record_iterates: bool = False
    sip_aplus_rounds: int = 0
    use_box_fast_path: bool = True
    gi_tols: GiTolerances = DEFAULT_TOLS

    def __post_init__(self):
        if self.feas_tol < 0 or self.max_outer_iters <= 0:
            raise ValueError("tolerances and limits must be positive")


@dataclass
class TraceRow:
    iteration: int
    dist: float | None
    measure1: float | None
    measure2: float | None
    events: tuple[str, ...] = ()
    x: np.ndarray | None = None


@dataclass
class SolveReport:
    status: str  # "solved" | "infeasible" | "iteration_limit"
    x: np.ndarray
    rows: list[TraceRow] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    certificate: InfeasibilityCertificate | None = None
    cert_system: tuple[np.ndarray, np.ndarray] | None = None
    extras: dict = field(default_factory=dict)

    def distances(self) -> list[float | None]:
        return [row.dist for row in self.rows]

    def to_json_dict(self) -> dict:
        doc = {
            "status": self.status,
            "x": [float(v) for v in self.x],
            "counts": dict(self.counts),
            "rows": [
                {
                    "iter": r.iteration,
                    "dist": None if r.dist is None else float(r.dist),
                    "measure1": None if r.measure1 is None else float(r.measure1),
                    "measure2": None if r.measure2 is None else float(r.measure2),
                    "events": list(r.events),
                }
                for r in self.rows
            ],
        }
        if self.certificate is not None:
            doc["certificate"] = {
                "j": list(self.certificate.j_prime),
                "lambda": [float(v) for v in self.certificate.lam],
            }
        for key, value in self.extras.items():
            if isinstance(value, np.ndarray):
                doc[key] = value.tolist()
            elif isinstance(value, tuple):
                doc[key] = list(value)
            elif value is None or isinstance(value, (str, int, float, bool, list, dict)):
                doc[key] = value
            # non-serializable extras (solver state objects) stay out of the JSON
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def csv_rows(self) -> list[str]:
        def fmt(v):
            return "" if v is None else f"{v:.5e}"

        lines = ["iter,dist,measure1,measure2,event"]
        for r in self.rows:
            event = ";".join(r.events)
            lines.append(f"{r.iteration},{fmt(r.dist)},{fmt(r.measure1)},{fmt(r.measure2)},{event}")
        return lines

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.csv_rows()) + "\n")


def fill_measures(rows: list[TraceRow]) -> None:
    """Natural-log convergence diagnostics relative to the first row.

    measure1_i = [ln d_i - ln d_0] / i, measure2_i = ln d_i - ln d_{i-1};
    both undefined at i = 0 or whenever a distance is missing/zero.
    """
    if not rows or rows[0].dist is None or rows[0].dist <= 0.0:
        return
    d0 = rows[0].dist
    prev = d0
    for i, row in enumerate(rows[1:], start=1):
        d = row.dist
        if d is None or d <= 0.0 or prev <= 0.0:
            prev = d if d is not None else prev
            continue
        row.measure1 = (math.log(d) - math.log(d0)) / i
        row.measure2 = math.log(d) - math.log(prev)
        prev = d


def _dist_to(reference: np.ndarray | None, x: np.ndarray) -> float | None:
    if reference is None:
        return None
    d = x - reference
    return math.sqrt(float(d.dot(d)))


def _start(x0, sets: Sequence[ConvexSet]) -> np.ndarray:
    """The validated start of a solve over ``sets``."""
    if not sets:
        raise ValueError("need at least one set")
    dims = {k.dim for k in sets}
    if len(dims) > 1:
        raise ValueError(f"the sets have different dimensions {sorted(dims)}")
    return as_start(x0, dims.pop())


def _norm(x: np.ndarray) -> float:
    """||x|| for the stopping tests: sqrt(x.x), as ``np.linalg.norm`` computes it.

    Past about 1.3e154 x.x overflows to inf, which would make every
    ``tol * (1 + ||x||)`` test pass; there the norm is computed scaled.
    """
    sq = float(x.dot(x))
    if sq == math.inf:
        big = float(np.abs(x).max())
        y = x / big
        return big * math.sqrt(float(y.dot(y)))
    return math.sqrt(sq)


def _solved_status(x, sets, tol) -> bool:
    return all(
        float(np.linalg.norm(x - project_set(k, x))) <= tol * (1.0 + _norm(x))
        for k in sets
    )


# ---------------------------------------------------------------------------
# Aggregation and store compaction


def aggregate_halfspace_pair(c_i, b_i: float, u_i: float, c_j, b_j: float, u_j: float):
    """The two-column aggregation formula: returns (m_hat, b_hat, u_hat).

    m_hat is the unit vector along u_i c_i + u_j c_j, u_hat that
    combination's norm and b_hat the matching combination of the right-hand
    sides, so u_i c_i + u_j c_j = u_hat m_hat exactly and any point tight on
    both originals is tight on the aggregate.  The aggregated halfspace
    contains the intersection of the two originals (multipliers are >= 0).
    """
    if u_i < -DEFAULT_TOLS.dual_tol or u_j < -DEFAULT_TOLS.dual_tol or u_i + u_j <= 0.0:
        raise ValueError("aggregation needs nonnegative multipliers with positive sum")
    w = u_i * np.asarray(c_i, dtype=float) + u_j * np.asarray(c_j, dtype=float)
    nw = float(np.linalg.norm(w))
    if nw <= RANK_TOL * (1.0 + u_i + u_j):
        raise DegenerateAggregate("combined normal vanishes")
    return w / nw, (u_i * b_i + u_j * b_j) / nw, nw


def aggregate_columns(store: HalfspaceStore, s: STuple, i: int, j: int) -> tuple[HalfspaceStore, STuple]:
    """Merge two active columns into one while preserving the s-tuple.

    The KKT identity x* - x = -N u and tightness are preserved exactly; the
    new halfspace contains the intersection of the two originals.
    """
    if i not in s.j_set or j not in s.j_set:
        raise ValueError("both columns must be active")
    if i == j:
        raise ValueError("need two distinct columns")
    pi = s.j_set.index(i)
    pj = s.j_set.index(j)
    ui = float(s.u[pi])
    uj = float(s.u[pj])
    m_hat, b_hat, u_hat = aggregate_halfspace_pair(
        store.column(i), store.rhs(i), ui, store.column(j), store.rhs(j), uj
    )

    new_idx = store.add(m_hat, b_hat, source=-1, birth=max(store.birth[i], store.birth[j]))
    # remove in descending index order and compose the remaps
    first, second = max(i, j), min(i, j)
    remap1 = store.remove(first)
    remap2 = store.remove(second)

    def remap(idx: int) -> int:
        return remap2[remap1[idx]]

    # rebuild the s-tuple: drop both positions, append the aggregate
    hi, lo = max(pi, pj), min(pi, pj)
    qr = qr_delete_column(s.qr, hi)
    qr = qr_delete_column(qr, lo)
    u = np.delete(s.u, hi)
    u = np.delete(u, lo)
    j_kept = [jj for k, jj in enumerate(s.j_set) if k not in (pi, pj)]
    qr = qr_append_column(qr, m_hat)
    u = np.append(u, u_hat)
    j_new = tuple(remap(jj) for jj in j_kept) + (remap(new_idx),)
    return store, STuple(s.x, j_new, u, qr)


def _compact_bap(store: HalfspaceStore, s: STuple, max_store: int, events: list[str]) -> STuple:
    while store.m > max_store:
        active = sorted(s.j_set, key=lambda j: store.birth[j])
        pair = None
        for a in range(len(active) - 1):
            ui = s.u[s.j_set.index(active[a])]
            uj = s.u[s.j_set.index(active[a + 1])]
            if ui + uj > 0.0:
                pair = (active[a], active[a + 1])
                break
        if pair is not None and len(active) >= 2:
            try:
                _, s = aggregate_columns(store, s, pair[0], pair[1])
                events.append(f"agg:{pair[0]},{pair[1]}")
                continue
            except DegenerateAggregate:
                pass
        inactive = sorted((j for j in range(store.m) if j not in s.j_set), key=lambda j: store.birth[j])
        if not inactive:
            break
        remap = store.remove(inactive[0])
        events.append(f"evict:{inactive[0]}")
        s = STuple(s.x, tuple(remap[j] for j in s.j_set), s.u, s.qr)
    return s


def _compact_sip(store: HalfspaceStore, s: STuple, max_store: int, events: list[str]) -> STuple:
    while store.m > max_store:
        inactive = sorted((j for j in range(store.m) if j not in s.j_set), key=lambda j: store.birth[j])
        if inactive:
            target = inactive[0]
            remap = store.remove(target)
            events.append(f"evict:{target}")
            s = STuple(s.x, tuple(remap[j] for j in s.j_set), s.u, s.qr)
            continue
        # all stored columns are active: drop the oldest active one (u = 0
        # in the SIP makes any active column removable without breaking KKT)
        target = min(s.j_set, key=lambda j: store.birth[j])
        pos = s.j_set.index(target)
        qr = qr_delete_column(s.qr, pos)
        u = np.delete(s.u, pos)
        j_set = tuple(j for j in s.j_set if j != target)
        remap = store.remove(target)
        events.append(f"evict-active:{target}")
        s = STuple(s.x, tuple(remap[j] for j in j_set), u, qr)
    return s


# ---------------------------------------------------------------------------
# Shared outer loop for the GI-based solvers


def _report(status, x, rows, counts, reference, certificate=None, cert_system=None, extras=None):
    fill_measures(rows)
    return SolveReport(
        status=status,
        x=x,
        rows=rows,
        counts=counts,
        certificate=certificate,
        cert_system=cert_system,
        extras=extras or {},
    )


def _outer_gi_loop(x0, sets: Sequence[ConvexSet], opts: SolverOptions, mode: str) -> SolveReport:
    x0 = _start(x0, sets)
    r = len(sets)
    store = HalfspaceStore()
    s = empty_s_tuple(x0)
    x = s.x
    rows = [TraceRow(0, _dist_to(opts.reference, x0), None, None, (),
                     x0.copy() if opts.record_iterates else None)]
    counts = {"projections": 0, "inner_steps": 0, "outer_iterations": 0}
    clean = 0
    visits = 0
    l = 0
    status = "iteration_limit"
    certificate = None
    cert_system = None

    while clean < r:
        if visits >= opts.max_outer_iters:
            break
        visits += 1
        if opts.set_visit_order == "most-violated":
            dists = [float(np.linalg.norm(x - project_set(k, x))) for k in sets]
            counts["projections"] += r
            l = int(np.argmax(dists))
        k_set = sets[l]
        set_index = l
        l = (l + 1) % r

        if mode == "sip" and opts.max_store == 0:
            # keeping no normals reduces the method to alternating projections
            store.clear()
            s = empty_s_tuple(x)

        p_point = project_set(k_set, x)
        counts["projections"] += 1
        dist = float(np.linalg.norm(x - p_point))
        if dist <= opts.feas_tol * (1.0 + _norm(x)):
            clean += 1
            continue
        clean = 0
        counts["outer_iterations"] += 1
        events: list[str] = []

        c = (p_point - x) / dist
        idx = store.add(c, float(c @ p_point), source=set_index, birth=visits)
        events.append(f"H+{idx}")

        if mode == "bap":
            view = _StoreView(x_star=x0, store=store)
            outcome = inner_gi_step(s, idx, view, opts.gi_tols)
        else:
            view = _StoreView(x_star=x.copy(), store=store)
            s_zero = STuple(x, s.j_set, np.zeros(s.q), s.qr)
            aplus = (
                AplusOptions(rounds=opts.sip_aplus_rounds)
                if opts.sip_aplus_rounds
                else None
            )
            outcome = degenerate_inner_gi_step(s_zero, idx, view, opts.gi_tols, aplus)
        counts["inner_steps"] += 1

        if isinstance(outcome, Infeasible):
            certificate = outcome.certificate
            cert_system = (store.matrix(), store.rhs_vector())
            status = "infeasible"
            rows.append(TraceRow(len(rows), _dist_to(opts.reference, x), None, None,
                                 tuple(events) + outcome.events,
                                 x.copy() if opts.record_iterates else None))
            break

        s = outcome.s_tuple
        events.extend(outcome.events)

        # optional extra inner steps against violated stored halfspaces
        # (this revisits old constraints; the default single step never does)
        extra = opts.inner_steps_per_outer
        budget = 10 * store.m if extra == "to-optimality" else int(extra) - 1
        while budget > 0:
            resid = np.array([store.rhs(j) - float(store.column(j) @ s.x) for j in range(store.m)])
            resid[list(s.j_set)] = -np.inf
            pbest = int(np.argmax(resid))
            if resid[pbest] <= opts.feas_tol * (1.0 + _norm(s.x)):
                break
            outcome = inner_gi_step(s, pbest, view, opts.gi_tols)
            counts["inner_steps"] += 1
            if isinstance(outcome, Infeasible):
                certificate = outcome.certificate
                cert_system = (store.matrix(), store.rhs_vector())
                status = "infeasible"
                break
            s = outcome.s_tuple
            events.extend(outcome.events)
            budget -= 1
        if status == "infeasible":
            rows.append(TraceRow(len(rows), _dist_to(opts.reference, x), None, None,
                                 tuple(events), x.copy() if opts.record_iterates else None))
            break

        x = s.x

        if opts.max_store is not None and store.m > opts.max_store:
            if mode == "bap":
                s = _compact_bap(store, s, opts.max_store, events)
            else:
                s = _compact_sip(store, s, opts.max_store, events)
            view_check = _StoreView(x_star=x0 if mode == "bap" else x, store=store)
            check_s_tuple(s, view_check, opts.gi_tols, f"{mode}-compaction")

        rows.append(TraceRow(len(rows), _dist_to(opts.reference, x), None, None,
                             tuple(events), x.copy() if opts.record_iterates else None))
    else:
        status = "solved"

    extras = {
        "store_normals": store.matrix(),
        "store_rhs": store.rhs_vector(),
        "active_set": list(s.j_set),
        "multipliers": s.u.copy(),
    }
    return _report(status, x, rows, counts, opts.reference, certificate, cert_system, extras)


def solve_bap(x0, sets: Sequence[ConvexSet], options: SolverOptions | None = None) -> SolveReport:
    """Best approximation: find the projection of x0 onto the intersection.

    ||x - x0|| is nondecreasing across outer iterations; an infeasibility
    certificate for the generated halfspaces certifies an empty
    intersection.
    """
    return _outer_gi_loop(x0, sets, options or SolverOptions(), "bap")


def solve_sip(x0, sets: Sequence[ConvexSet], options: SolverOptions | None = None) -> SolveReport:
    """Set intersection: find any point in the intersection.

    Multipliers are reset each outer iteration, so steps are degenerate
    inner steps from the current iterate; with ``max_store=0`` the method
    coincides with alternating projections.  When exactly one set is a box
    the specialized box solver handles each (box, halfspace) subproblem to
    optimality.
    """
    opts = options or SolverOptions()
    boxes = [k for k in sets if isinstance(k, Box)]
    if opts.use_box_fast_path and len(boxes) == 1 and len(sets) >= 2:
        return _solve_sip_one_box(x0, sets, opts)
    return _outer_gi_loop(x0, sets, opts, "sip")


def _solve_sip_one_box(x0, sets: Sequence[ConvexSet], opts: SolverOptions) -> SolveReport:
    x0 = _start(x0, sets)
    box = next(k for k in sets if isinstance(k, Box))
    others = [(i, k) for i, k in enumerate(sets) if not isinstance(k, Box)]
    r = len(others)
    x = np.clip(x0, box.lower, box.upper)
    rows = [TraceRow(0, _dist_to(opts.reference, x0), None, None, (),
                     x0.copy() if opts.record_iterates else None)]
    counts = {"projections": 0, "inner_steps": 0, "outer_iterations": 0, "box_solves": 0}
    clean = 0
    visits = 0
    l = 0
    status = "iteration_limit"
    certificate = None
    cert_system = None

    while clean < r:
        if visits >= opts.max_outer_iters:
            break
        visits += 1
        set_index, k_set = others[l]
        l = (l + 1) % r
        p_point = project_set(k_set, x)
        counts["projections"] += 1
        dist = float(np.linalg.norm(x - p_point))
        if dist <= opts.feas_tol * (1.0 + _norm(x)):
            clean += 1
            continue
        clean = 0
        counts["outer_iterations"] += 1
        c = (p_point - x) / dist
        problem = BoxQp(x, box.lower, box.upper, c, float(c @ p_point))
        result = solve_box_qp(problem)
        counts["box_solves"] += 1
        if not result.feasible:
            c_mat, b_vec, lam = box_infeasibility_system(problem, result.trace[-1][0])
            certificate = InfeasibilityCertificate(tuple(range(c_mat.shape[1])), lam)
            cert_system = (c_mat, b_vec)
            status = "infeasible"
            rows.append(TraceRow(len(rows), _dist_to(opts.reference, x), None, None,
                                 (f"H+{set_index}", "box-infeasible"),
                                 x.copy() if opts.record_iterates else None))
            break
        x = result.x
        rows.append(TraceRow(len(rows), _dist_to(opts.reference, x), None, None,
                             (f"H+{set_index}", f"box-qp:{len(result.trace) - 1}"),
                             x.copy() if opts.record_iterates else None))
    else:
        status = "solved"
    return _report(status, x, rows, counts, opts.reference, certificate, cert_system)


# ---------------------------------------------------------------------------
# Baselines


def solve_map(x0, sets: Sequence[ConvexSet], options: SolverOptions | None = None) -> SolveReport:
    """Cyclic alternating projections; each visit is one trace row."""
    opts = options or SolverOptions()
    x = _start(x0, sets).copy()
    r = len(sets)
    rows = [TraceRow(0, _dist_to(opts.reference, x), None, None, (),
                     x.copy() if opts.record_iterates else None)]
    counts = {"projections": 0}
    clean = 0
    visits = 0
    l = 0
    status = "iteration_limit"
    while clean < r:
        if visits >= opts.max_outer_iters:
            break
        visits += 1
        p = project_set(sets[l], x)
        counts["projections"] += 1
        l = (l + 1) % r
        if float(np.linalg.norm(x - p)) <= opts.feas_tol * (1.0 + _norm(x)):
            clean += 1
            continue
        clean = 0
        x = p
        rows.append(TraceRow(len(rows), _dist_to(opts.reference, x), None, None, ("project",),
                             x.copy() if opts.record_iterates else None))
    else:
        status = "solved"
    return _report(status, x, rows, counts, opts.reference)


def solve_dykstra(x0, sets: Sequence[ConvexSet], options: SolverOptions | None = None) -> SolveReport:
    """Classical cyclic Dykstra with one correction vector per set.

    Converges to the projection of x0 onto the intersection.  One trace
    row per projection, matching how the benchmark counts iterations;
    termination is checked after each full cycle.
    """
    opts = options or SolverOptions()
    x = _start(x0, sets).copy()
    r = len(sets)
    corrections = [np.zeros_like(x) for _ in range(r)]
    rows = [TraceRow(0, _dist_to(opts.reference, x), None, None, (),
                     x.copy() if opts.record_iterates else None)]
    counts = {"projections": 0, "cycles": 0}
    status = "iteration_limit"
    visits = 0
    moved = 0.0
    while visits < opts.max_outer_iters:
        i = visits % r
        if i == 0:
            moved = 0.0
        z = x + corrections[i]
        p = project_set(sets[i], z)
        counts["projections"] += 1
        corrections[i] = z - p
        moved = max(moved, float(np.linalg.norm(x - p)))
        x = p
        visits += 1
        rows.append(TraceRow(len(rows), _dist_to(opts.reference, x), None, None, ("project",),
                             x.copy() if opts.record_iterates else None))
        if i == r - 1:
            counts["cycles"] += 1
            if moved <= opts.feas_tol * (1.0 + _norm(x)) and _solved_status(
                x, sets, opts.feas_tol
            ):
                status = "solved"
                break
    return _report(status, x, rows, counts, opts.reference)


def solve_haugazeau(x0, sets: Sequence[ConvexSet], options: SolverOptions | None = None) -> SolveReport:
    """Haugazeau-style best approximation.

    Each iteration projects x0 onto the intersection of the halfspace
    generated at the current iterate and the halfspace with normal x0 - x_i
    whose boundary passes through x_i; the tiny QP runs through the
    active-set engine.
    """
    opts = options or SolverOptions()
    x0 = _start(x0, sets)
    x = x0.copy()
    r = len(sets)
    rows = [TraceRow(0, _dist_to(opts.reference, x), None, None, (),
                     x.copy() if opts.record_iterates else None)]
    counts = {"projections": 0, "inner_steps": 0}
    clean = 0
    visits = 0
    l = 0
    status = "iteration_limit"
    x0_norm = math.sqrt(float(x0.dot(x0)))
    while clean < r:
        if visits >= opts.max_outer_iters:
            break
        visits += 1
        k_set = sets[l]
        l = (l + 1) % r
        p = project_set(k_set, x)
        counts["projections"] += 1
        diff = x - p
        dist = math.sqrt(float(diff.dot(diff)))
        if dist <= opts.feas_tol * (1.0 + _norm(x)):
            clean += 1
            continue
        clean = 0
        c1 = (p - x) / dist
        cols = [c1]
        rhs = [float(c1.dot(p))]
        w = x0 - x
        wn = math.sqrt(float(w.dot(w)))
        if wn > opts.feas_tol * (1.0 + x0_norm):
            c2 = -w / wn
            cols.append(c2)
            rhs.append(float(c2.dot(x)))
        res = gi_solve(QpProblem(x0, np.column_stack(cols), np.asarray(rhs)))
        if isinstance(res, Infeasible):  # the two halfspaces always intersect
            raise RuntimeError("unexpected infeasibility in Haugazeau subproblem")
        counts["inner_steps"] += res.inner_steps
        x = res.x
        rows.append(TraceRow(len(rows), _dist_to(opts.reference, x), None, None, ("qp",),
                             x.copy() if opts.record_iterates else None))
    else:
        status = "solved"
    return _report(status, x, rows, counts, opts.reference)


_METHODS = {
    "map": solve_map,
    "dykstra": solve_dykstra,
    "haugazeau": solve_haugazeau,
    "bap-gi": solve_bap,
    "sip-gi": solve_sip,
}


def solve(method: str, x0, sets: Sequence[ConvexSet], options: SolverOptions | None = None) -> SolveReport:
    """Dispatch by method id (see ``_METHODS``; ART lives in ``projqp.art``)."""
    try:
        fn = _METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None
    return fn(x0, sets, options)
