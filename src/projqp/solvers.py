"""Outer drivers: supporting-halfspace QP solvers and classical baselines.

``solve_bap`` projects x0 onto the intersection of convex sets by feeding
each newly generated supporting halfspace to the dual active-set engine,
keeping the active set (and its QR factors) warm across outer iterations.
``solve_sip`` looks the same but re-anchors at the current iterate every
outer iteration (multipliers reset to zero), so each step slides along the
kept active halfspaces via the degenerate inner step.  ``solve_map``,
``solve_dykstra`` and ``solve_haugazeau`` are the projection baselines the
benchmark compares against.

All solvers but Dykstra run on one cyclic driver, ``_cyclic``: it visits
the sets in turn and declares success once a full pass finds every set
satisfied within ``feas_tol * (1 + ||x||)``; each method supplies the step
it takes from a set that x violates.  Dykstra tests for a stop once per
full cycle instead, so it keeps its own loop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

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
    degenerate_inner_gi_step,
    inner_gi_step,
)
from .box_qp import BoxQp, box_infeasibility_system, solve_box_qp
from .convex_sets import Box, ConvexSet, Halfspace, Hyperslab, _project, project_set
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
    """

    def __init__(self):
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


class _StoreView:
    """Adapts (anchor point, halfspace store) to the engine's problem view."""

    def __init__(self, x_star: np.ndarray, store: HalfspaceStore):
        self.x_star = x_star
        self.store = store
        self.column = store.column
        self.rhs = store.rhs
        self.rows = store.rows
        self.rhs_at = store.rhs_at

    @property
    def m(self) -> int:
        return self.store.m


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


def _is_vector(v) -> bool:
    try:
        a = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        return False
    return a.ndim == 1 and bool(np.isfinite(a).all())


@dataclass(frozen=True)
class SolverOptions:
    """Options of the set solvers; every field is checked on construction.

    ``inner_steps_per_outer`` is a count or "to-optimality" (BAP and SIP
    then step into violated stored halfspaces after each new one), and
    ``set_visit_order`` is "cyclic" or "most-violated" (BAP and SIP only).
    ``max_store`` caps the halfspace store of BAP and SIP.  For SIP the cap
    is hard.  For BAP it is soft: compaction merges pairs of active
    halfspaces and evicts inactive ones, but an active halfspace it cannot
    merge stays, so the store may end above the cap.
    """

    feas_tol: float = 1e-9
    max_outer_iters: int = 1000
    inner_steps_per_outer: int | str = 1
    set_visit_order: str = "cyclic"
    max_store: int | None = None
    reference: np.ndarray | None = None
    record_iterates: bool = False
    sip_aplus_rounds: int = 0
    use_box_fast_path: bool = True

    def __post_init__(self):
        steps = self.inner_steps_per_outer
        _check_fields(self, (
            ("feas_tol", _is_tol(self.feas_tol), "a finite number >= 0"),
            ("max_outer_iters", _is_count(self.max_outer_iters, 1), "an integer >= 1"),
            ("inner_steps_per_outer", steps == "to-optimality" or _is_count(steps, 1),
             'an integer >= 1 or "to-optimality"'),
            ("set_visit_order", self.set_visit_order in ("cyclic", "most-violated"),
             '"cyclic" or "most-violated"'),
            ("max_store", self.max_store is None or _is_count(self.max_store, 0),
             "None or an integer >= 0"),
            ("reference", self.reference is None or _is_vector(self.reference),
             "None or a finite vector"),
            ("record_iterates", isinstance(self.record_iterates, bool), "a bool"),
            ("sip_aplus_rounds", _is_count(self.sip_aplus_rounds, 0), "an integer >= 0"),
            ("use_box_fast_path", isinstance(self.use_box_fast_path, bool), "a bool"),
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


def _trace_row(index: int, x: np.ndarray, events: tuple[str, ...], opts: SolverOptions) -> TraceRow:
    dist = None
    if opts.reference is not None:
        d = x - opts.reference
        dist = math.sqrt(float(d.dot(d)))
    return TraceRow(index, dist, None, None, events, x.copy() if opts.record_iterates else None)


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
    The result is NaN exactly when x has a non-finite entry.
    """
    sq = float(x.dot(x))
    if sq == math.inf:
        big = float(np.abs(x).max())
        if big == math.inf:
            return math.nan
        y = x / big
        return big * math.sqrt(float(y.dot(y)))
    return math.sqrt(sq)


def _solved_status(x, sets, tol) -> bool:
    return all(
        float(np.linalg.norm(x - project_set(k, x))) <= tol * (1.0 + _norm(x))
        for k in sets
    )


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


def _report(status, x, rows, counts, certificate=None, cert_system=None, extras=None):
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


def _bound(v) -> float | None:
    """v as a float when the conversion is exact (never for NaN), else None:
    ``project_set`` compares with the bound as given, an int included."""
    try:
        f = float(v)
    except (OverflowError, TypeError, ValueError):
        return None
    return f if f == v else None


class _LinearScreen:
    """One ``_RowScreen`` over the hyperslab and halfspace sets of a solve.

    ``flags(x)`` lists, per set, whether x is provably inside it: then
    ``project_set`` would return x itself, so the visit's distance is 0.
    Other sets, and sets whose bounds are not exact floats, read False.
    """

    def __init__(self, sets: Sequence[ConvexSet]):
        self.r = len(sets)
        self.pos: list[int] = []
        rows, lower, upper = [], [], []
        for i, k in enumerate(sets):
            if isinstance(k, Hyperslab):
                a, lo, up = k.a, _bound(k.lower), _bound(k.upper)
            elif isinstance(k, Halfspace):
                a, lo, up = k.c, _bound(k.b), math.inf
            else:
                continue
            if lo is not None and up is not None:
                self.pos.append(i)
                rows.append(a)
                lower.append(lo)
                upper.append(up)
        self.screen = _RowScreen(np.vstack(rows), np.array(lower), np.array(upper)) if rows else None

    def flags(self, x: np.ndarray) -> list[bool] | None:
        inside = None if self.screen is None else self.screen.inside(x)
        if inside is None:
            return None
        if len(self.pos) == self.r:
            return inside.tolist()
        full = np.zeros(self.r, dtype=bool)
        full[self.pos] = inside
        return full.tolist()


def _screen_due(run: int, exact_clean: int, r: int) -> bool:
    """Whether an exact clean visit refreshes the screen: at the second in a
    row since x moved, once the solve has made r of them.  Short clean
    runs, and solves that end within one pass, would not repay the gemv or
    the stacking of the rows."""
    return run == 2 and exact_clean >= r


# Near the overflow threshold a squared norm or a dot may overflow to inf;
# each such site tests for the inf, so the warning says nothing new
@np.errstate(over="ignore")
def _cyclic(x0, x, sets, opts: SolverOptions, counts: dict, step, most_violated: bool = False) -> SolveReport:
    """Visit ``sets`` from x until a full pass leaves x in every one of them.

    Each visit projects x onto one set, cyclically or, with
    ``most_violated``, onto the farthest.  A set x satisfies within
    ``feas_tol * (1 + ||x||)`` counts toward the clean pass; from any other
    ``step(x, p, dist, index, visit)`` moves x and returns the new iterate,
    the trace row's events and, when the sets are proven disjoint, the
    certificate and the system it certifies (x is then left where it was).
    A step that returns None instead finds x inside the set as far as it
    can tell, and the visit is clean.  Row 0 is x0, and every step that
    moves x adds a row.  ``counts["projections"]``
    counts set visits.

    The solvers build every iterate themselves from a validated start, so
    visits call ``_project``.  ||x|| is computed once per iterate, at the
    first visit from it, and a NaN norm (a non-finite x) raises there, as
    ``project_set`` would.  A projection with a non-finite entry, which
    overflow can make of a finite x, raises with the set's index.

    Cyclic visits skip the projection onto a hyperslab or halfspace that
    ``_LinearScreen`` shows x to be inside: its distance would be 0, and
    the exact visit that refreshed the screen at this x passed, so the
    threshold is a number >= 0 and the visit is clean, with the same
    counts.  ``_screen_due`` says when to refresh.
    """
    r = len(sets)
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
    x_norm = None  # ||x||, computed at the first visit from x
    while clean < r:
        if visits >= opts.max_outer_iters:
            break
        visits += 1
        if x_norm is None:
            x_norm = _norm(x)
            if math.isnan(x_norm):
                raise ValueError("x has non-finite entries")
        if most_violated:
            dists = [float(np.linalg.norm(x - _project(k, x))) for k in sets]
            counts["projections"] += r
            l = int(np.argmax(dists))
        index = l
        l = (l + 1) % r
        if inside is not None and inside[index]:
            counts["projections"] += 1
            clean += 1
            continue
        p = _project(sets[index], x)
        counts["projections"] += 1
        diff = x - p
        dist = math.sqrt(float(diff.dot(diff)))
        if not dist <= opts.feas_tol * (1.0 + x_norm):  # NaN included
            if not dist < math.inf and not np.isfinite(p).all():
                raise ValueError(f"the projection onto set {index} has non-finite entries")
            moved = step(x, p, dist, index, visits)
            if moved is not None:
                clean = 0
                run = 0
                inside = None
                x, events, proof = moved
                x_norm = None
                rows.append(_trace_row(len(rows), x, events, opts))
                if proof is not None:
                    status = "infeasible"
                    break
                continue
        clean += 1
        exact_clean += 1
        run += 1
        if not most_violated and _screen_due(run, exact_clean, r):
            if screen is None:
                screen = _LinearScreen(sets)
            inside = screen.flags(x)
    else:
        status = "solved"
    certificate, cert_system = proof or (None, None)
    return _report(status, x, rows, counts, certificate, cert_system)


def _gi_counts() -> dict:
    return {"projections": 0, "inner_steps": 0, "outer_iterations": 0}


def _settle(s: STuple, outcome, view: _StoreView, events: list[str], opts: SolverOptions, counts: dict):
    """The s-tuple after a new halfspace's engine step, and the proof of
    disjointness if the stored halfspaces have none in common.

    With ``inner_steps_per_outer`` above 1 (or "to-optimality"), further
    inner steps enter the most violated stored halfspace.
    """
    store = view.store
    counts["inner_steps"] += 1
    if isinstance(outcome, Infeasible):
        events.extend(outcome.events)
        return s, (outcome.certificate, (store.matrix(), store.rhs_vector()))
    s = outcome.s_tuple
    events.extend(outcome.events)
    extra = opts.inner_steps_per_outer
    budget = 10 * store.m if extra == "to-optimality" else extra - 1
    while budget > 0:
        resid = np.array([store.rhs(j) - float(store.column(j) @ s.x) for j in range(store.m)])
        resid[list(s.j_set)] = -np.inf
        pbest = int(np.argmax(resid))
        if resid[pbest] <= opts.feas_tol * (1.0 + _norm(s.x)):
            break
        outcome = inner_gi_step(s, pbest, view)
        counts["inner_steps"] += 1
        if isinstance(outcome, Infeasible):
            return s, (outcome.certificate, (store.matrix(), store.rhs_vector()))
        s = outcome.s_tuple
        events.extend(outcome.events)
        budget -= 1
    return s, None


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
    view = _StoreView(x0, store)
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
        s, proof = _settle(s, inner_gi_step(s, idx, view), view, events, opts, counts)
        if proof is not None:
            return x, tuple(events), proof
        if opts.max_store is not None and store.m > opts.max_store:
            s = _compact_bap(store, s, opts.max_store, events)
            check_s_tuple(s, view, "bap-compaction")
        return s.x, tuple(events), None

    report = _cyclic(x0, s.x, sets, opts, counts, step, opts.set_visit_order == "most-violated")
    report.extras = _store_extras(store, s)
    return report


def solve_sip(x0, sets: Sequence[ConvexSet], options: SolverOptions | None = None) -> SolveReport:
    """Set intersection: find any point in the intersection.

    Multipliers are reset each outer iteration, so steps are degenerate
    inner steps from the current iterate; with ``max_store=0`` the method
    coincides with alternating projections.  When exactly one set is a box
    the specialized box solver handles each (box, halfspace) subproblem to
    optimality.
    """
    opts = options or SolverOptions()
    x0 = _start(x0, sets)
    boxes = [k for k in sets if isinstance(k, Box)]
    if opts.use_box_fast_path and len(boxes) == 1 and len(sets) >= 2:
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
        view = _StoreView(x.copy(), store)
        s_zero = STuple(x, s.j_set, np.zeros(s.q), s.qr)
        outcome = degenerate_inner_gi_step(s_zero, idx, view, opts.sip_aplus_rounds)
        s, proof = _settle(s, outcome, view, events, opts, counts)
        if proof is not None:
            return x, tuple(events), proof
        if opts.max_store is not None and store.m > opts.max_store:
            s = _compact_sip(store, s, opts.max_store, events)
            # the next step re-anchors at s.x with zero multipliers: check that state
            s_next = STuple(s.x, s.j_set, np.zeros(s.q), s.qr)
            check_s_tuple(s_next, _StoreView(s.x, store), "sip-compaction")
        return s.x, tuple(events), None

    report = _cyclic(x0, s.x, sets, opts, counts, step, opts.set_visit_order == "most-violated")
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


@np.errstate(over="ignore")  # as in _cyclic
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
    rows = [_trace_row(0, x, (), opts)]
    counts = {"projections": 0, "cycles": 0}
    status = "iteration_limit"
    visits = 0
    moved = 0.0
    while visits < opts.max_outer_iters:
        i = visits % r
        if i == 0:
            moved = 0.0
        z = x + corrections[i]
        # z.z is finite unless z has a non-finite entry or its square overflows
        if not math.isfinite(float(z.dot(z))) and not np.isfinite(z).all():
            raise ValueError("x has non-finite entries")
        p = _project(sets[i], z)
        counts["projections"] += 1
        corrections[i] = z - p
        moved = max(moved, float(np.linalg.norm(x - p)))
        x = p
        visits += 1
        rows.append(_trace_row(len(rows), x, ("project",), opts))
        if i == r - 1:
            counts["cycles"] += 1
            if moved <= opts.feas_tol * (1.0 + _norm(x)) and _solved_status(
                x, sets, opts.feas_tol
            ):
                status = "solved"
                break
    return _report(status, x, rows, counts)


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
    halfspace, and the engine starts cold.

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

    def step(x, p, dist, index, visit):
        c1, b1 = _cut(x, p, dist)
        w = x0 - x
        wn = math.sqrt(float(w.dot(w)))
        if wn > opts.feas_tol * (1.0 + x0_norm):
            c2 = -w / wn
            c_mat, b_vec = np.column_stack([c1, c2]), np.array([b1, float(c2.dot(x))])
            start = _haugazeau_start(x, c2, wn)
        else:
            c_mat, b_vec = np.column_stack([c1]), np.array([b1])
            start = _empty_s_tuple(x0)
        res = _gi_from(_trusted_problem(x0, c_mat, b_vec), start)
        if isinstance(res, Infeasible):
            return x, ("qp", "infeasible"), (res.certificate, (c_mat, b_vec))
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
