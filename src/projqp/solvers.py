"""Outer drivers: supporting-halfspace QP solvers and classical baselines.

``solve_bap`` projects x0 onto the intersection of convex sets by feeding
each newly generated supporting halfspace to the dual active-set engine,
keeping the active set (and its QR factors) warm across outer iterations.
A store above its cap collapses to one halfspace, the multiplier-weighted
sum of the active ones (by KKT its normal lies along x - x0).  Haugazeau's method
is BAP whose store is that one halfspace between steps: ``solve_haugazeau``
runs BAP's body with the store collapsed after every step.
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
in one step, and keeps the screen while x moves within its radii;
Dykstra reads a set this way only while its correction is zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .activeset_qp import (
    Infeasible,
    InfeasibilityCertificate,
    NumericalError,
    STuple,
    _empty_qr,
    _empty_s_tuple,
    _violated,
    check_s_tuple,
    inner_gi_step,
)
from .box_qp import BoxQp, box_infeasibility_system, solve_box_qp
from .convex_sets import Box, ConvexSet, Halfspace, Hyperslab, _linear_project, _project
from .linalg import _qr_append, _RowScreen, as_start, norm, qr_delete_column


# ---------------------------------------------------------------------------
# Halfspace store


class HalfspaceStore:
    """Growing collection of halfspaces {y : c^T y >= b} with provenance.

    ``source`` is the set (or slab) a halfspace was generated from.  Column
    indices are positions in the store; removing a column shifts every
    later index down by one.  A store that only appends and removes, as
    SIP's does, keeps its columns in the order they arrived, so a lower
    position is an older halfspace.

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

    @property
    def m(self) -> int:
        return len(self.source)

    def add(self, c, b: float, source: int = -1) -> int:
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

    def clear(self) -> None:
        self.source.clear()


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
    ``max_store`` caps the halfspace store of BAP and SIP.  SIP evicts the
    oldest halfspaces down to the cap, inactive ones first
    (``_compact_sip``), so at 0 it keeps none.  BAP's store collapses to one
    aggregate halfspace when it exceeds the cap, so for ``max_store >= 1``
    the cap is hard, and 0 keeps that one halfspace (Haugazeau's method).
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


# slotted: a trace keeps one row per visit, so each row stores its
# fields inline with no per-instance dict
@dataclass(slots=True)
class TraceRow:
    iteration: int
    dist: float | None
    measure1: float | None
    measure2: float | None
    events: tuple[str, ...] = ()
    x: np.ndarray | None = None


@dataclass(slots=True)
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
    """The stopping tests' bound tol * (1 + ||x||), with ||x|| = ``norm(x)``.

    Where ||x|| exceeds the largest float the bound is (tol * ||y||) * big,
    with big = max|x| and y = x / big, capped at the largest float: it
    stays finite, so a distance that overflows fails it.  The result is NaN
    exactly when x has a non-finite entry.
    """
    nx = norm(x)
    if not nx == math.inf:  # NaN included
        return tol * (1.0 + nx)
    big = float(np.abs(x).max())
    if big == math.inf:
        return math.nan
    return min(tol * norm(x / big) * big, _FLOAT_MAX)


def _solved_status(x: np.ndarray, sets, bound: float) -> bool:
    """Whether a finite x is within ``bound`` of every set."""
    return all(norm(x - _project(k, x)) <= bound for k in sets)


def _cut(x: np.ndarray, p: np.ndarray, dist: float) -> tuple[np.ndarray, float]:
    """The supporting halfspace {y : c^T y >= b} of a set at p = P(x).

    With dist = ||p - x|| > 0 and c = (p - x) / dist, the halfspace
    contains the set (it supports it at the projection) while
    c^T x - b = -dist < 0.
    """
    c = (p - x) / dist
    return c, float(c.dot(p))


# ---------------------------------------------------------------------------
# Store compaction


def _aggregate(store: HalfspaceStore, s: STuple, x0: np.ndarray, cold: float,
               events: list[str]) -> STuple:
    """Collapse BAP's store to the one halfspace that aggregates its active ones.

    By KKT x0 - x = -N u, so with wn = ||x0 - x|| the halfspace with normal
    c = (x - x0) / wn through x is the multiplier-weighted sum of the active
    halfspaces.  It contains their intersection, hence the sets, and
    (x, (0,), [wn]) with the QR of [c] is a valid s-tuple for it: x0 - x =
    -c wn.  Where wn <= ``cold`` there is no such halfspace to keep, and the
    store empties to the s-tuple at x0.  A wn above the largest float
    raises ``NumericalError``: its c would be a zero column.
    """
    w = x0 - s.x
    wn = norm(w)
    if not wn < math.inf:
        raise NumericalError("||x0 - x|| overflows: no aggregate halfspace")
    store.clear()
    if wn <= cold:
        events.append("cold")
        return _empty_s_tuple(x0)
    c = w / -wn
    store.add(c, c.dot(s.x))
    events.append("agg")
    return STuple(s.x, (0,), np.array([wn]), _qr_append(_empty_qr(x0.shape[0]), c))


def _compact_sip(store: HalfspaceStore, s: STuple, max_store: int, events: list[str]) -> STuple:
    """Evict SIP's oldest halfspaces, the lowest positions, down to
    ``max_store``: inactive ones first, then active ones."""
    while store.m > max_store:
        inactive = [j for j in range(store.m) if j not in s.j_set]
        if inactive:
            target = inactive[0]
            store.remove(target)
            events.append(f"evict:{target}")
            s = STuple(s.x, _after_remove(s.j_set, target), s.u, s.qr)
            continue
        # all stored columns are active: drop the oldest active one (u = 0
        # in the SIP makes any active column removable without breaking KKT)
        target = min(s.j_set)
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

    ``refresh(x)`` takes each set's radius at x_r = x (-inf where the
    screen does not decide).  ``run(l, x)`` measures D, x's ``distance``
    from x_r, once per iterate (no step writes into an iterate) and
    counts the sets from a cursor l < r whose radius exceeds D: x is
    inside them, so the visit's distance would be 0.  The radii run over
    the sets twice and end with -inf, so a run crosses the end of a pass.
    """

    def __init__(self, sets: Sequence[ConvexSet]):
        self.r = len(sets)
        self.pos = [i for i, k in enumerate(sets) if isinstance(k, (Halfspace, Hyperslab))]
        rows = [sets[i] for i in self.pos]  # a halfspace reads as the slab b <= c.x <= inf
        self.screen = _RowScreen(np.array([k.a for k in rows]), np.array([k.lower for k in rows]),
                                 np.array([k.upper for k in rows])) if rows else None

    def refresh(self, x: np.ndarray) -> None:
        rho = None if self.screen is None else self.screen.radii(x)
        full = np.full(self.r, -math.inf)  # also where the screen decides nothing
        if rho is not None:
            full[self.pos] = rho
        self.rho = full.tolist() * 2 + [-math.inf]
        self.x_r = None if rho is None else x.copy()
        self.big = float(np.abs(x).max())
        self.x, self.d = x, 0.0

    def run(self, l: int, x: np.ndarray) -> int:
        if x is not self.x:
            self.x = x
            self.d = math.inf if self.x_r is None else self.screen.distance(x, self.x_r, self.big)
        rho, d = self.rho, self.d
        k = l
        while rho[k] > d:
            k += 1
        return k - l


def _screen_due(run: int, exact_clean: int, r: int) -> bool:
    """Whether an exact clean visit refreshes the screen: at the second
    since x last moved (x has left the radius of two sets it is inside),
    once the solve has made r of them.  Short clean runs, and solves that
    end within one pass, would not repay the gemv or the stacking of the
    rows."""
    return run == 2 and exact_clean >= r


# Near the overflow threshold a squared norm or a dot may overflow to inf;
# each such site tests for the inf, so the warning says nothing new
@np.errstate(over="ignore")
def _cyclic(x0, x, sets, opts: SolverOptions, counts: dict, step) -> SolveReport:
    """Visit ``sets`` in turn from x until a full pass leaves x in every one of them.

    Each visit projects x onto one set.  A set x satisfies within
    ``feas_tol * (1 + ||x||)`` counts toward the clean pass; from any other
    ``step(x, p, dist, index)`` moves x and returns the new iterate,
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
    the bound of x was computed (a NaN raises) before the screen is read,
    so the visit is clean, with the same counts.  A run of such sets from
    the cursor is taken in one step, up to the end of the clean pass and
    the visit cap.  The screen is kept when x moves; ``_screen_due`` says
    when to refresh it.
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
    run = 0  # exact clean visits since x last moved
    bound = None  # feas_tol * (1 + ||x||), computed at the first visit from x
    while clean < r:
        if visits >= opts.max_outer_iters:
            break
        if bound is None:
            bound = _stop_bound(x, opts.feas_tol)
            if math.isnan(bound):
                raise ValueError("x has non-finite entries")
        cleared = 0 if screen is None else screen.run(l, x)
        if cleared:
            cleared = min(cleared, r - clean, opts.max_outer_iters - visits)
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
            dist = norm(x - p)
            if not dist <= bound:  # NaN included
                if not dist < math.inf and not np.isfinite(p).all():
                    raise ValueError(f"the projection onto set {index} has non-finite entries")
                moved = step(x, p, dist, index)
                if moved is not None:
                    clean = 0
                    run = 0
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
            screen.refresh(x)
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


def _bap(x0, sets: Sequence[ConvexSet], opts: SolverOptions, max_store: int | None,
         counts: dict) -> tuple[SolveReport, HalfspaceStore, STuple]:
    """The body of ``solve_bap`` and ``solve_haugazeau``, with the store cap
    ``max_store``: the report, the store and the last s-tuple."""
    x0 = _start(x0, sets)
    cold = _stop_bound(x0, opts.feas_tol)
    store = HalfspaceStore()
    store.x_star = x0
    s = _empty_s_tuple(x0)

    def step(x, p, dist, index):
        nonlocal s
        c, b = _cut(x, p, dist)
        if not _violated(c, b, x):
            return None
        idx = store.add(c, b, source=index)
        events = [f"H+{idx}"]
        s, proof = _settle(s, inner_gi_step(s, idx, store), store, events, counts)
        if proof is not None:
            return x, tuple(events), proof
        if max_store is not None and store.m > max_store:
            s = _aggregate(store, s, x0, cold, events)
            check_s_tuple(s, store, "bap-compaction")
        return s.x, tuple(events), None

    report = _cyclic(x0, s.x, sets, opts, counts, step)
    return report, store, s


def solve_bap(x0, sets: Sequence[ConvexSet], options: SolverOptions | None = None) -> SolveReport:
    """Best approximation: find the projection of x0 onto the intersection.

    ||x - x0|| is nondecreasing across outer iterations; an infeasibility
    certificate for the generated halfspaces certifies an empty
    intersection.  A store above ``max_store`` collapses to one aggregate
    halfspace (``_aggregate``).
    """
    opts = options or SolverOptions()
    counts = _gi_counts()
    report, store, s = _bap(x0, sets, opts, opts.max_store, counts)
    counts["outer_iterations"] = counts["inner_steps"]  # one engine step per cut
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

    def step(x, p, dist, index):
        nonlocal s
        c, b = _cut(x, p, dist)
        if not _violated(c, b, x):
            return None
        counts["outer_iterations"] += 1
        idx = store.add(c, b, source=index)
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

    def step(x, p, dist, l):
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
            moved = max(moved, norm(x - p))
            x = p
        rows.append(_trace_row(len(rows), x, ("project",), opts))
        if i == r - 1:
            counts["cycles"] += 1
            bound = _stop_bound(x, opts.feas_tol)
            if moved <= bound and _solved_status(x, sets, bound):
                status = "solved"
                break
    return SolveReport(status, x, rows, counts)


def solve_haugazeau(x0, sets: Sequence[ConvexSet], options: SolverOptions | None = None) -> SolveReport:
    """Haugazeau's best approximation: BAP whose store keeps one halfspace.

    Each iteration projects x0 onto the intersection of the halfspace
    generated at the current iterate x_i and the halfspace with normal
    x_i - x0 whose boundary passes through x_i.  That second halfspace
    aggregates the active halfspaces of the previous projection, which is
    what BAP's compaction keeps, so this is ``solve_bap`` with its store
    collapsed after every step.  The counts are ``projections`` and
    ``inner_steps``, and the report has no store extras.

    When the two halfspaces have no point in common the sets do not
    intersect, and the report ends ``infeasible`` with the engine's
    certificate for the [aggregate, cut] system.  A nonempty intersection
    would lie in both: the cut contains the set it was generated from, and
    the aggregate contains the intersection of the halfspaces it sums.
    """
    opts = options or SolverOptions()
    return _bap(x0, sets, opts, 0, {"projections": 0, "inner_steps": 0})[0]


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
