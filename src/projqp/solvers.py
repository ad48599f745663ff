"""Outer drivers: supporting-halfspace QP solvers and classical baselines.

``solve_bap`` projects x0 onto the intersection of convex sets by feeding
each newly generated supporting halfspace to the dual active-set engine,
keeping the active set (and its QR factors) warm across outer iterations.
``solve_sip`` looks the same but re-anchors at the current iterate every
outer iteration (multipliers reset to zero), so each step drops the kept
active halfspaces that block the new one and slides along the rest: the
same inner step, started from zero multipliers.  ``solve_map``,
``solve_dykstra`` and ``solve_haugazeau`` are the projection baselines the
benchmark compares against.

All solvers but Dykstra run on one cyclic driver, ``_cyclic``: it visits
the sets in turn and declares success once a full pass finds every set
satisfied within ``feas_tol * (1 + ||x||)``; each method supplies the step
it takes from a set that x violates.  Dykstra tests for a stop once per
full cycle instead, so it keeps its own loop.  Both take that bound from
``_stop_bound``, which stays finite where ||x|| overflows.

A visit to a hyperslab or halfspace that x is inside costs one exact dot
(``_linear_project``) in both loops: no copy of x and no distance.
``_cyclic`` also counts a run of sets that one gemv screen proves clean
in one step; Dykstra reads a set this way only while its correction is
zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .activeset_qp import (
    DUAL_TOL,
    Infeasible,
    InfeasibilityCertificate,
    STuple,
    _empty_qr,
    _empty_s_tuple,
    _gi_from,
    _trusted_problem,
    _violated,
    check_s_tuple,
    inner_gi_step,
)
from .box_qp import BoxQp, box_infeasibility_system, solve_box_qp
from .convex_sets import Box, ConvexSet, Halfspace, Hyperslab, _linear_project, _project
from .linalg import RANK_TOL, _qr_append, _RowScreen, as_start, qr_delete_column


class DegenerateAggregate(ValueError):
    """Aggregation weights cancel; the combined normal would vanish."""


# ---------------------------------------------------------------------------
# Halfspace store


class HalfspaceStore:
    """Growing collection of halfspaces {y : c^T y >= b} with provenance.

    ``source`` is the set (or slab) a halfspace was generated from and
    ``birth`` the visit that generated it.  Column indices are positions in
    the store; removing a column shifts every later index down by one.

    The normals are the first ``m`` rows of one buffer, whose capacity
    doubles when it fills, so ``rows`` gathers any of them in one indexing
    call.  ``column(j)`` is a view of row j: a later ``remove`` shifts the
    rows, so a caller keeps it only while the store is unchanged.

    ``x_star`` is the point the engine projects from, so the store is the
    engine's ``ConstraintView``.  BAP sets it once, SIP at each cut and the
    extended ART at each engine step.
    """

    def __init__(self):
        self.x_star: np.ndarray | None = None
        self._c = np.zeros((0, 0))
        self._b = np.zeros(0)
        self.source: list[int] = []
        self.birth: list[int] = []

    @property
    def m(self) -> int:
        return len(self.source)

    def add(self, c, b: float, source: int = -1, birth: int = 0) -> int:
        c = np.asarray(c, dtype=float)
        m = self.m
        if m == self._b.shape[0]:  # full: double the capacity
            cap = max(8, 2 * m)
            c_buf, b_buf = np.empty((cap, c.shape[0])), np.empty(cap)
            if m:
                c_buf[:m], b_buf[:m] = self._c, self._b
            self._c, self._b = c_buf, b_buf
        self._c[m] = c
        self._b[m] = float(b)
        self.source.append(int(source))
        self.birth.append(int(birth))
        return m

    def column(self, j: int) -> np.ndarray:
        return self._c[:self.m][j]

    def rhs(self, j: int) -> float:
        return float(self._b[:self.m][j])

    def rows(self, js: Sequence[int]) -> np.ndarray:
        return self._c[:self.m].take(js, axis=0)

    def rhs_at(self, js: Sequence[int]) -> np.ndarray:
        return self._b[:self.m].take(js)

    def matrix(self) -> np.ndarray:
        if not self.m:
            return np.zeros((0, 0))
        return self._c[:self.m].T.copy()

    def rhs_vector(self) -> np.ndarray:
        return self._b[:self.m].copy()

    def remove(self, j: int) -> None:
        m = self.m
        self._c[j:m - 1] = self._c[j + 1:m]
        self._b[j:m - 1] = self._b[j + 1:m]
        del self.source[j]
        del self.birth[j]

    def clear(self) -> None:
        self.source.clear()
        self.birth.clear()


def _after_remove(j_set, j: int) -> tuple[int, ...]:
    """Indices of ``j_set`` renumbered after column j left the store."""
    return tuple(k - (k > j) for k in j_set)


# ---------------------------------------------------------------------------
# Options and reports


def _check_fields(obj, checks) -> None:
    """Raise a ``ValueError`` naming the first (field, ok, wanted) check that fails."""
    for name, ok, want in checks:
        if not ok:
            raise ValueError(f"{type(obj).__name__}.{name} must be {want}, got {getattr(obj, name)!r}")


def _is_count(v, least: int) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= least


def _is_tol(v) -> bool:
    return isinstance(v, (float, int, np.floating)) and not isinstance(v, bool) and 0.0 <= v < math.inf


@dataclass(frozen=True)
class SolverOptions:
    """Options of the set solvers; every field is checked on construction.

    ``max_outer_iters`` caps set visits (projections), not outer
    iterations: a visit that finds x inside its set counts too.
    ``max_store`` caps the halfspace store of BAP and SIP.  For SIP the cap
    is hard.  For BAP it is soft: compaction merges pairs of active
    halfspaces and evicts inactive ones, but an active halfspace it cannot
    merge stays, so the store may end above the cap.
    ``record_iterates`` keeps a copy of each trace row's iterate in
    ``TraceRow.x``; distances to any point, such as a solution found later,
    are computed from those (``bench.run_two_circles`` does so).
    """

    feas_tol: float = 1e-9
    max_outer_iters: int = 1000
    max_store: int | None = None
    record_iterates: bool = False

    def __post_init__(self):
        _check_fields(self, (
            ("feas_tol", _is_tol(self.feas_tol), "a finite number >= 0"),
            ("max_outer_iters", _is_count(self.max_outer_iters, 1), "an integer >= 1"),
            ("max_store", self.max_store is None or _is_count(self.max_store, 0),
             "None or an integer >= 0"),
            ("record_iterates", isinstance(self.record_iterates, bool), "a bool"),
        ))


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
        # one line: indent would select json's pure-Python encoder
        return json.dumps(self.to_json_dict())

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(trace_csv(self.rows)) + "\n")


def trace_csv(rows: Iterable[TraceRow]) -> list[str]:
    """The trace as CSV lines, one per row after the header."""
    def fmt(v):
        return "" if v is None else f"{v:.5e}"

    lines = ["iter,dist,measure1,measure2,event"]
    for r in rows:
        event = ";".join(r.events)
        lines.append(f"{r.iteration},{fmt(r.dist)},{fmt(r.measure1)},{fmt(r.measure2)},{event}")
    return lines


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


def _trace_row(index: int, x: np.ndarray, events: tuple[str, ...], opts: SolverOptions) -> TraceRow:
    return TraceRow(index, None, None, None, events, x.copy() if opts.record_iterates else None)


def _start(x0, sets: Sequence[ConvexSet]) -> np.ndarray:
    """The validated start of a solve over ``sets``."""
    if not sets:
        raise ValueError("need at least one set")
    dims = {k.dim for k in sets}
    if len(dims) > 1:
        raise ValueError(f"the sets have different dimensions {sorted(dims)}")
    return as_start(x0, dims.pop())


_FLOAT_MAX = float(np.finfo(float).max)


def _stop_bound(x: np.ndarray, tol: float) -> float:
    """The stopping tests' bound tol * (1 + ||x||), with ||x|| = sqrt(x.x) as
    ``np.linalg.norm`` computes it.

    Past about 1.3e154 x.x overflows to inf, which would make every test
    pass; there ||x|| is computed scaled, big * sqrt(y.y) with y = x / big
    and big = max|x|.  Where that product overflows too, the bound is
    (tol * sqrt(y.y)) * big, capped at the largest float: it stays finite,
    so a distance that overflows fails it.  The result is NaN exactly when
    x has a non-finite entry.
    """
    sq = float(x.dot(x))
    if sq == math.inf:
        big = float(np.abs(x).max())
        if big == math.inf:
            return math.nan
        y = x / big
        s = math.sqrt(float(y.dot(y)))
        norm = big * s
        if norm == math.inf:
            return min(tol * s * big, _FLOAT_MAX)
        return tol * (1.0 + norm)
    return tol * (1.0 + math.sqrt(sq))


def _solved_status(x: np.ndarray, sets, bound: float) -> bool:
    """Whether a finite x is within ``bound`` of every set."""
    return all(float(np.linalg.norm(x - _project(k, x))) <= bound for k in sets)


def _cut(x: np.ndarray, p: np.ndarray, dist: float) -> tuple[np.ndarray, float]:
    """The supporting halfspace {y : c^T y >= b} of a set at p = P(x).

    With dist = ||p - x|| > 0 and c = (p - x) / dist, the halfspace
    contains the set (it supports it at the projection) while
    c^T x - b = -dist < 0.
    """
    c = (p - x) / dist
    return c, float(c.dot(p))


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
    if u_i < -DUAL_TOL or u_j < -DUAL_TOL or u_i + u_j <= 0.0:
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
    # remove in descending index order, renumbering after each removal
    first, second = max(i, j), min(i, j)
    store.remove(first)
    store.remove(second)

    # rebuild the s-tuple: drop both positions, append the aggregate
    hi, lo = max(pi, pj), min(pi, pj)
    qr = qr_delete_column(s.qr, hi)
    qr = qr_delete_column(qr, lo)
    u = np.delete(s.u, hi)
    u = np.delete(u, lo)
    j_kept = tuple(jj for k, jj in enumerate(s.j_set) if k not in (pi, pj))
    qr = _qr_append(qr, m_hat)
    u = np.append(u, u_hat)
    j_new = _after_remove(_after_remove(j_kept + (new_idx,), first), second)
    return store, STuple(s.x, j_new, u, qr)


def _oldest_inactive(store: HalfspaceStore, s: STuple) -> list[int]:
    return sorted((j for j in range(store.m) if j not in s.j_set), key=lambda j: store.birth[j])


def _compact_bap(store: HalfspaceStore, s: STuple, max_store: int, events: list[str]) -> STuple:
    while store.m > max_store:
        active = sorted(s.j_set, key=lambda j: store.birth[j])
        u = dict(zip(s.j_set, s.u))
        pair = next(((a, b) for a, b in zip(active, active[1:]) if u[a] + u[b] > 0.0), None)
        if pair is not None:
            try:
                _, s = aggregate_columns(store, s, pair[0], pair[1])
                events.append(f"agg:{pair[0]},{pair[1]}")
                continue
            except DegenerateAggregate:
                pass
        inactive = _oldest_inactive(store, s)
        if not inactive:
            break
        store.remove(inactive[0])
        events.append(f"evict:{inactive[0]}")
        s = STuple(s.x, _after_remove(s.j_set, inactive[0]), s.u, s.qr)
    return s


def _compact_sip(store: HalfspaceStore, s: STuple, max_store: int, events: list[str]) -> STuple:
    while store.m > max_store:
        inactive = _oldest_inactive(store, s)
        if inactive:
            target = inactive[0]
            store.remove(target)
            events.append(f"evict:{target}")
            s = STuple(s.x, _after_remove(s.j_set, target), s.u, s.qr)
            continue
        # all stored columns are active: drop the oldest active one (u = 0
        # in the SIP makes any active column removable without breaking KKT)
        target = min(s.j_set, key=lambda j: store.birth[j])
        pos = s.j_set.index(target)
        qr = qr_delete_column(s.qr, pos)
        u = np.delete(s.u, pos)
        j_set = tuple(j for j in s.j_set if j != target)
        store.remove(target)
        events.append(f"evict-active:{target}")
        s = STuple(s.x, _after_remove(j_set, target), u, qr)
    return s


# ---------------------------------------------------------------------------
# The cyclic driver


class _LinearScreen:
    """One ``_RowScreen`` over the hyperslab and halfspace sets of a solve.

    ``flags(x)`` lists, per set, whether x is provably inside it: then
    ``project_set`` would return x itself, so the visit's distance is 0.
    Other sets read False.  The list runs over the sets twice and ends
    with one False, so ``flags.index(False, l)`` ends the run of cleared
    sets from a cursor l < r, across the end of a pass too.
    """

    def __init__(self, sets: Sequence[ConvexSet]):
        self.r = len(sets)
        self.pos: list[int] = []
        rows, lower, upper = [], [], []
        for i, k in enumerate(sets):
            if isinstance(k, Hyperslab):
                a, lo, up = k.a, k.lower, k.upper
            elif isinstance(k, Halfspace):
                a, lo, up = k.c, k.b, math.inf
            else:
                continue
            self.pos.append(i)
            rows.append(a)
            lower.append(lo)
            upper.append(up)
        self.screen = _RowScreen(np.vstack(rows), np.array(lower), np.array(upper)) if rows else None

    def flags(self, x: np.ndarray) -> list[bool] | None:
        inside = None if self.screen is None else self.screen.inside(x)
        if inside is None:
            return None
        if len(self.pos) < self.r:
            full = np.zeros(self.r, dtype=bool)
            full[self.pos] = inside
            inside = full
        out = inside.tolist() * 2
        out.append(False)
        return out


def _screen_due(run: int, exact_clean: int, r: int) -> bool:
    """Whether an exact clean visit refreshes the screen: at the second in a
    row since x moved, once the solve has made r of them.  Short clean
    runs, and solves that end within one pass, would not repay the gemv or
    the stacking of the rows."""
    return run == 2 and exact_clean >= r


# Near the overflow threshold a squared norm or a dot may overflow to inf;
# each such site tests for the inf, so the warning says nothing new
@np.errstate(over="ignore")
def _cyclic(x0, x, sets, opts: SolverOptions, counts: dict, step) -> SolveReport:
    """Visit ``sets`` in turn from x until a full pass leaves x in every one of them.

    Each visit projects x onto one set.  A set x satisfies within
    ``feas_tol * (1 + ||x||)`` counts toward the clean pass; from any other
    ``step(x, p, dist, index, visit)`` moves x and returns the new iterate,
    the trace row's events and, when the sets are proven disjoint, the
    certificate and the system it certifies (x is then left where it was).
    A step that returns None instead finds x inside the set as far as it
    can tell, and the visit is clean.  Row 0 is x0, and every step that
    moves x adds a row.  ``counts["projections"]``
    counts set visits.

    The solvers build every iterate themselves from a validated start, so
    visits call ``_project``, or ``_linear_project`` for a hyperslab or
    halfspace.  When that finds x inside by its exact test (one dot) the
    visit's distance is 0 and it is clean, with no copy of x and no
    difference to measure; a visit that moves x forms x - p and its norm.  The bound (``_stop_bound``) is
    computed once per iterate, at the first visit from it; it stays finite
    where ||x|| overflows, and a NaN bound (a non-finite x) raises there,
    as ``project_set`` would.  A projection with a non-finite entry, which
    overflow can make of a finite x, raises with the set's index.

    Visits skip the projection onto a hyperslab or halfspace that
    ``_LinearScreen`` shows x to be inside: its distance would be 0, and
    the exact visit that refreshed the screen at this x passed, so the
    bound is a number >= 0 and the visit is clean, with the same counts.
    A run of such sets from the cursor is taken in one step, up to the
    end of the clean pass and the visit cap.  ``_screen_due`` says when to
    refresh.
    """
    r = len(sets)
    linear = [isinstance(k, (Halfspace, Hyperslab)) for k in sets]
    rows = [_trace_row(0, x0, (), opts)]
    clean = 0
    visits = 0
    l = 0
    status = "iteration_limit"
    proof = None
    screen = None
    exact_clean = 0  # exact clean visits so far
    run = 0  # exact clean visits in a row since x last moved
    inside = None  # per-set flags at the current x
    bound = None  # feas_tol * (1 + ||x||), computed at the first visit from x
    while clean < r:
        if visits >= opts.max_outer_iters:
            break
        if bound is None:
            bound = _stop_bound(x, opts.feas_tol)
            if math.isnan(bound):
                raise ValueError("x has non-finite entries")
        if inside is not None and inside[l]:
            cleared = min(inside.index(False, l) - l, r - clean, opts.max_outer_iters - visits)
            visits += cleared
            counts["projections"] += cleared
            clean += cleared
            l = (l + cleared) % r
            continue
        visits += 1
        index = l
        l = (l + 1) % r
        p = _linear_project(sets[index], x) if linear[index] else _project(sets[index], x)
        counts["projections"] += 1
        if p is not None:
            diff = x - p
            dist = math.sqrt(float(diff.dot(diff)))
            if not dist <= bound:  # NaN included
                if not dist < math.inf and not np.isfinite(p).all():
                    raise ValueError(f"the projection onto set {index} has non-finite entries")
                moved = step(x, p, dist, index, visits)
                if moved is not None:
                    clean = 0
                    run = 0
                    inside = None
                    x, events, proof = moved
                    bound = None
                    rows.append(_trace_row(len(rows), x, events, opts))
                    if proof is not None:
                        status = "infeasible"
                        break
                    continue
        clean += 1
        exact_clean += 1
        run += 1
        if _screen_due(run, exact_clean, r):
            if screen is None:
                screen = _LinearScreen(sets)
            inside = screen.flags(x)
    else:
        status = "solved"
    certificate, cert_system = proof or (None, None)
    return SolveReport(status, x, rows, counts, certificate, cert_system)


def _gi_counts() -> dict:
    return {"projections": 0, "inner_steps": 0, "outer_iterations": 0}


def _settle(s: STuple, outcome, store: HalfspaceStore, events: list[str], counts: dict):
    """The s-tuple after a new halfspace's engine step, and the proof of
    disjointness if the stored halfspaces have none in common."""
    counts["inner_steps"] += 1
    events.extend(outcome.events)
    if isinstance(outcome, Infeasible):
        return s, (outcome.certificate, (store.matrix(), store.rhs_vector()))
    return outcome.s_tuple, None


def _store_extras(store: HalfspaceStore, s: STuple) -> dict:
    return {
        "store_normals": store.matrix(),
        "store_rhs": store.rhs_vector(),
        "active_set": list(s.j_set),
        "multipliers": s.u.copy(),
    }


def solve_bap(x0, sets: Sequence[ConvexSet], options: SolverOptions | None = None) -> SolveReport:
    """Best approximation: find the projection of x0 onto the intersection.

    ||x - x0|| is nondecreasing across outer iterations; an infeasibility
    certificate for the generated halfspaces certifies an empty
    intersection.
    """
    opts = options or SolverOptions()
    x0 = _start(x0, sets)
    store = HalfspaceStore()
    store.x_star = x0
    s = _empty_s_tuple(x0)
    counts = _gi_counts()

    def step(x, p, dist, index, visit):
        nonlocal s
        c, b = _cut(x, p, dist)
        if not _violated(c, b, x):
            return None
        counts["outer_iterations"] += 1
        idx = store.add(c, b, source=index, birth=visit)
        events = [f"H+{idx}"]
        s, proof = _settle(s, inner_gi_step(s, idx, store), store, events, counts)
        if proof is not None:
            return x, tuple(events), proof
        if opts.max_store is not None and store.m > opts.max_store:
            s = _compact_bap(store, s, opts.max_store, events)
            check_s_tuple(s, store, "bap-compaction")
        return s.x, tuple(events), None

    report = _cyclic(x0, s.x, sets, opts, counts, step)
    report.extras = _store_extras(store, s)
    return report


def solve_sip(x0, sets: Sequence[ConvexSet], options: SolverOptions | None = None) -> SolveReport:
    """Set intersection: find any point in the intersection.

    Multipliers are reset each outer iteration, so each step is the inner
    step from zero multipliers at the current iterate, which drops the kept
    halfspaces when round-off blocks it; with ``max_store=0`` the method
    coincides with alternating projections.
    When exactly one set is a box the specialized box solver handles each
    (box, halfspace) subproblem to optimality.
    """
    opts = options or SolverOptions()
    x0 = _start(x0, sets)
    boxes = [k for k in sets if isinstance(k, Box)]
    if len(boxes) == 1 and len(sets) >= 2:
        return _solve_sip_one_box(x0, sets, boxes[0], opts)
    store = HalfspaceStore()
    s = _empty_s_tuple(x0)
    counts = _gi_counts()

    def step(x, p, dist, index, visit):
        nonlocal s
        c, b = _cut(x, p, dist)
        if not _violated(c, b, x):
            return None
        counts["outer_iterations"] += 1
        if opts.max_store == 0:
            # keeping no normals reduces the method to alternating projections
            store.clear()
            s = _empty_s_tuple(x)
        idx = store.add(c, b, source=index, birth=visit)
        events = [f"H+{idx}"]
        store.x_star = x.copy()
        s_zero = STuple(x, s.j_set, np.zeros(s.q), s.qr)
        s, proof = _settle(s, inner_gi_step(s_zero, idx, store), store, events, counts)
        if proof is not None:
            return x, tuple(events), proof
        if opts.max_store is not None and store.m > opts.max_store:
            s = _compact_sip(store, s, opts.max_store, events)
            # the next step re-anchors at s.x with zero multipliers: check that state
            s_next = STuple(s.x, s.j_set, np.zeros(s.q), s.qr)
            store.x_star = s.x
            check_s_tuple(s_next, store, "sip-compaction")
        return s.x, tuple(events), None

    report = _cyclic(x0, s.x, sets, opts, counts, step)
    report.extras = _store_extras(store, s)
    return report


def _solve_sip_one_box(x0, sets: Sequence[ConvexSet], box: Box, opts: SolverOptions) -> SolveReport:
    """SIP with one box: each step projects onto box and new halfspace exactly."""
    index = [i for i, k in enumerate(sets) if not isinstance(k, Box)]
    counts = {"projections": 0, "inner_steps": 0, "outer_iterations": 0, "box_solves": 0}

    def step(x, p, dist, l, visit):
        counts["outer_iterations"] += 1
        problem = BoxQp(x, box.lower, box.upper, *_cut(x, p, dist))
        result = solve_box_qp(problem)
        counts["box_solves"] += 1
        if not result.feasible:
            c_mat, b_vec, lam = box_infeasibility_system(problem, result.trace[-1][0])
            certificate = InfeasibilityCertificate(tuple(range(c_mat.shape[1])), lam)
            return x, (f"H+{index[l]}", "box-infeasible"), (certificate, (c_mat, b_vec))
        return result.x, (f"H+{index[l]}", f"box-qp:{len(result.trace) - 1}"), None

    x = np.clip(x0, box.lower, box.upper)
    return _cyclic(x0, x, [sets[i] for i in index], opts, counts, step)


# ---------------------------------------------------------------------------
# Baselines


def solve_map(x0, sets: Sequence[ConvexSet], options: SolverOptions | None = None) -> SolveReport:
    """Cyclic alternating projections; each visit that moves x is one trace row."""
    opts = options or SolverOptions()
    x0 = _start(x0, sets)
    return _cyclic(x0, x0.copy(), sets, opts, {"projections": 0},
                   lambda x, p, *_: (p, ("project",), None))


# as in _cyclic; and a projection of an x near the overflow threshold may
# hold inf * 0, which the next visit's finiteness check raises on
@np.errstate(over="ignore", invalid="ignore")
def solve_dykstra(x0, sets: Sequence[ConvexSet], options: SolverOptions | None = None) -> SolveReport:
    """Classical cyclic Dykstra with one correction vector per set.

    Converges to the projection of x0 onto the intersection.  One trace
    row per projection, matching how the benchmark counts iterations;
    termination is checked after each full cycle.

    A hyperslab's or halfspace's correction that is zero is kept as None,
    and a visit to such a set projects x with ``_linear_project``.  When
    that finds x inside the set (an exact test) the visit is idle: x and
    the correction stay as they are, and only the count and the trace row
    are added.  Every other visit projects x plus its correction with
    ``_project``.  Skipping the sum x + 0 keeps a -0.0
    entry of x that the textbook loop turns into +0.0; nothing else
    differs.  The visit that follows a non-finite projection raises, idle
    or not: each new iterate, and each x plus a correction, is checked
    once.
    """
    opts = options or SolverOptions()
    x = _start(x0, sets).copy()
    r = len(sets)
    linear = [isinstance(k, (Halfspace, Hyperslab)) for k in sets]
    corrections = [None if lin else np.zeros_like(x) for lin in linear]
    rows = [_trace_row(0, x, (), opts)]
    counts = {"projections": 0, "cycles": 0}
    status = "iteration_limit"
    visits = 0
    moved = 0.0
    finite = x  # the last array found finite
    while visits < opts.max_outer_iters:
        i = visits % r
        if i == 0:
            moved = 0.0
        c = corrections[i]
        z = x if c is None else x + c
        # z.z is finite unless z has a non-finite entry or its square overflows
        if z is not finite:
            if not math.isfinite(float(z.dot(z))) and not np.isfinite(z).all():
                raise ValueError("x has non-finite entries")
            finite = z
        counts["projections"] += 1
        visits += 1
        p = _linear_project(sets[i], x) if c is None else _project(sets[i], z)
        if p is not None:
            c = z - p
            corrections[i] = None if linear[i] and not c.any() else c
            d = x - p
            moved = max(moved, math.sqrt(float(d.dot(d))))
            x = p
        rows.append(_trace_row(len(rows), x, ("project",), opts))
        if i == r - 1:
            counts["cycles"] += 1
            bound = _stop_bound(x, opts.feas_tol)
            if moved <= bound and _solved_status(x, sets, bound):
                status = "solved"
                break
    return SolveReport(status, x, rows, counts)


def _haugazeau_start(x: np.ndarray, c2: np.ndarray, wn: float) -> STuple:
    """The s-tuple of Haugazeau's subproblem at x_i with the second column active.

    x_i solved the previous subproblem, so x0 - x_i = -N u there, and
    c2 = -(x0 - x_i) / wn with wn = ||x0 - x_i|| aggregates those active
    halfspaces: x0 - x_i = -c2 wn.  With c2^T x_i = b2, (x_i, (1,), [wn])
    and the QR of [c2] are a valid s-tuple of the new subproblem.
    """
    return STuple(x, (1,), np.array([wn]), _qr_append(_empty_qr(x.shape[0]), c2))


def solve_haugazeau(x0, sets: Sequence[ConvexSet], options: SolverOptions | None = None) -> SolveReport:
    """Haugazeau-style best approximation.

    Each iteration projects x0 onto the intersection of the halfspace
    generated at the current iterate and the halfspace with normal x0 - x_i
    whose boundary passes through x_i; the tiny QP runs through the
    active-set engine.  The second halfspace aggregates the active
    halfspaces of the previous subproblem, so the engine starts warm from
    x_i with that halfspace active (``_haugazeau_start``), and in the
    common case one inner step that enters the new cut solves it.  Only
    while ||x0 - x_i|| <= feas_tol (1 + ||x0||) is there no second
    halfspace, and the engine starts cold.  The two-halfspace problem is
    one n x 2 buffer that each iteration rewrites in place.

    When those two halfspaces have no point in common the sets do not
    intersect, and the report ends ``infeasible`` with the engine's
    certificate for the two-halfspace system.  It certifies C = {} because
    a nonempty C would lie in both: the first contains the set it was
    generated from, and the second contains C, since x_i is the
    projection of x0 onto an intersection of halfspaces that contain C.
    """
    opts = options or SolverOptions()
    x0 = _start(x0, sets)
    x0_norm = math.sqrt(float(x0.dot(x0)))
    counts = {"projections": 0, "inner_steps": 0}
    # the two-halfspace subproblem, rewritten in place at each step
    c_mat, b_vec = np.empty((x0.shape[0], 2)), np.empty(2)
    c_rows = c_mat.T  # its columns, as rows
    pair = _trusted_problem(x0, c_mat, b_vec)

    def step(x, p, dist, index, visit):
        c1, b1 = _cut(x, p, dist)
        w = x0 - x
        wn = math.sqrt(float(w.dot(w)))
        if wn > opts.feas_tol * (1.0 + x0_norm):
            c2 = w / -wn
            c_rows[0] = c1
            c_rows[1] = c2
            b_vec[0] = b1
            b_vec[1] = c2.dot(x)
            qp, start = pair, _haugazeau_start(x, c2, wn)
        else:
            qp, start = _trusted_problem(x0, c1.reshape(-1, 1), np.array([b1])), _empty_s_tuple(x0)
        res = _gi_from(qp, start)
        if isinstance(res, Infeasible):
            return x, ("qp", "infeasible"), (res.certificate, (qp.c_mat.copy(), qp.b.copy()))
        counts["inner_steps"] += res.inner_steps
        return res.x, ("qp",), None

    return _cyclic(x0, x0.copy(), sets, opts, counts, step)


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
