"""ART3 and its active-set extension for hyperslab systems L <= Ax <= U.

``art3_solve`` is the classical reflection scheme: inside a slab nothing
happens, within half a width of a face the point is reflected across it,
and farther out it moves to the slab midplane; with a nonempty interior
the sweep terminates finitely.  ``extended_art_solve`` keeps the triple
(x_circ, x_times, x_plus): x_times is the projection of x_circ onto the
collected active slab faces (maintained as an s-tuple so the QP engine can
slide along them), and x_plus extrapolates that projection into the active
slabs.  Each slab visit classifies where x_plus and x_times sit relative
to the reflection bands and picks one of three updates: refine x_times in
place (P_circ, an inner GI step from x_circ), restart from x_times
(P_times, a degenerate step that keeps the active faces), or restart from
x_plus (P_plus, a fresh degenerate step, the reflection-like move).
Restart steps are the ones that advance the underlying Fejer-monotone
subsequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activeset_qp import (
    DEFAULT_TOLS,
    GiTolerances,
    Infeasible,
    STuple,
    degenerate_inner_gi_step,
    empty_s_tuple,
    inner_gi_step,
)
from .linalg import as_matrix, as_start, as_vector
from .solvers import HalfspaceStore, SolveReport, TraceRow, _StoreView, _dist_to, _report
from .solvers import _check_fields, _is_count, _is_tol

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)
# above this bound on |A||x| a partial sum of a row dot could overflow
_SCREEN_LIMIT = 2.0**1020


@dataclass(frozen=True)
class HyperslabSystem:
    """Rows a_j with bounds L_j <= a_j^T x <= U_j (bounds may be +-inf)."""

    a_mat: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a_mat, "a_mat")
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if lo.shape != (a.shape[0],) or up.shape != (a.shape[0],):
            raise ValueError("bounds must match the row count")
        if np.any(np.isnan(lo)) or np.any(np.isnan(up)):
            raise ValueError("bounds must not be NaN")
        if np.any(lo > up):
            raise ValueError("requires lower <= upper per row")
        norms = np.linalg.norm(a, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("rows must be nonzero")
        object.__setattr__(self, "a_mat", a)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        # the screen in ``contains``: slack = c ||a_j||_1 max|x| + t
        row_l1 = np.abs(a).sum(axis=1)
        n = a.shape[1]
        object.__setattr__(self, "_slack_rows", (4.0 * (n + 2) * _EPS) * row_l1)
        object.__setattr__(self, "_slack_t", 4.0 * (n + 2) * _TINY)
        object.__setattr__(self, "_row_l1_max", float(row_l1.max()))

    @property
    def m(self) -> int:
        return self.a_mat.shape[0]

    @property
    def n(self) -> int:
        return self.a_mat.shape[1]

    def contains(self, x: np.ndarray) -> bool:
        # Exact membership: L_j <= float(a_j @ x) <= U_j for every row j,
        # bit-for-bit as the update and classification rules compute it,
        # although a gemv may sum a row in another order.  Every order obeys
        # |fl(a.x) - a.x| <= gamma_n |a|.|x| <= gamma_n ||a||_1 max|x|, with
        # gamma_n = n u / (1 - n u) and u = eps / 2 (Higham, Accuracy and
        # Stability of Numerical Algorithms, sec. 3.1), plus n
        # half-subnormals when products underflow; the gemv value and the
        # per-row dot differ by at most twice that.  slack = c ||a_j||_1
        # max|x| + t, with c = 4 (n + 2) eps and t = 4 (n + 2) times the
        # smallest subnormal, covers it with room for the rounding of the
        # row norms, of the slack and of the margins, so a row whose gemv
        # margin min(ax - L, U - ax) is at least slack is inside by the
        # per-row dot too.  Every other row gets the per-row test, and so
        # does every row when |x| is so large that a partial sum could
        # overflow and void the bound.  Only row norms are kept: a copy of
        # |A| would double the system's memory.
        x = np.asarray(x, dtype=float)
        big = float(np.abs(x).max())
        if not math.isfinite(big):  # NaN would compare false on every face
            return False
        a_mat = self.a_mat
        if big * self._row_l1_max <= _SCREEN_LIMIT:
            ax = a_mat @ x
            slack = self._slack_rows * big
            slack += self._slack_t
            margin = np.minimum(ax - self.lower, self.upper - ax)
            rows = (margin < slack).nonzero()[0].tolist()
        else:
            rows = range(a_mat.shape[0])
        for j in rows:
            s = float(a_mat[j] @ x)
            if s < self.lower[j] or s > self.upper[j]:
                return False
        return True

    def to_text(self) -> str:
        def enc(v):
            if np.isposinf(v):
                return "inf"
            if np.isneginf(v):
                return "-inf"
            return repr(float(v))

        lines = [f"{self.m} {self.n}"]
        lines += [" ".join(repr(float(v)) for v in row) for row in self.a_mat]
        lines.append(" ".join(enc(v) for v in self.lower))
        lines.append(" ".join(enc(v) for v in self.upper))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "HyperslabSystem":
        """Parse ``to_text``'s format: a line "m n", m rows of n entries, then
        the m lower and the m upper bounds.  Malformed text raises ``ValueError``."""
        tokens = [ln for ln in (ln.strip() for ln in text.splitlines()) if ln and not ln.startswith("#")]
        if not tokens:
            raise ValueError("the hyperslab text is empty")
        header = tokens[0].split()
        if len(header) != 2 or not all(v.isdigit() and int(v) > 0 for v in header):
            raise ValueError(f"the first line must give the row and column counts m n, got {tokens[0]!r}")
        m, n = int(header[0]), int(header[1])
        if len(tokens) != 1 + m + 2:
            raise ValueError(f"expected {1 + m + 2} lines, got {len(tokens)}")

        def entries(i: int, count: int, what: str) -> list[float]:
            values = tokens[i].split()
            if len(values) != count:
                raise ValueError(f"{what} has {len(values)} entries, expected {count}")
            return [float(v) for v in values]

        rows = [entries(1 + i, n, f"row {i + 1}") for i in range(m)]
        lo = entries(1 + m, m, "the lower-bound line")
        up = entries(2 + m, m, "the upper-bound line")
        return cls(np.array(rows), np.array(lo), np.array(up))


def save_system(path, sys_: HyperslabSystem) -> None:
    with open(path, "w") as fh:
        fh.write(sys_.to_text())


def load_system(path) -> HyperslabSystem:
    with open(path) as fh:
        return HyperslabSystem.from_text(fh.read())


@dataclass(frozen=True)
class ArtTriple:
    x_circ: np.ndarray
    x_times: np.ndarray
    x_plus: np.ndarray
    active_slabs: tuple[int, ...]
    s_tuple: STuple | None = None


@dataclass(frozen=True)
class ArtPolicy:
    """Step choices per case plus the knobs the preference marks leave open.

    ``case2`` in {"circ", "plus"}, ``case4`` in {"times", "circ", "plus"},
    ``case5`` in {"times", "plus"}.  ``case2_close_frac`` switches case 2
    to P_plus when x_times violates its face by less than this fraction of
    the slab width; ``circ_cap_factor`` bounds consecutive P_circ steps at
    factor * (active set size + 1).
    """

    case2: str = "circ"
    case4: str = "times"
    case5: str = "times"
    case2_close_frac: float = 0.1
    circ_cap_factor: int = 3

    def __post_init__(self):
        _check_fields(self, (
            ("case2", self.case2 in ("circ", "plus"), '"circ" or "plus"'),
            ("case4", self.case4 in ("times", "circ", "plus"), '"times", "circ" or "plus"'),
            ("case5", self.case5 in ("times", "plus"), '"times" or "plus"'),
            ("case2_close_frac", _is_tol(self.case2_close_frac), "a finite number >= 0"),
            ("circ_cap_factor", _is_count(self.circ_cap_factor, 0), "an integer >= 0"),
        ))


def tilde_bounds(lower: float, upper: float) -> tuple[float, float]:
    """Reflection band edges L - w/2 and U + w/2 (w = U - L)."""
    if not (math.isfinite(lower) and math.isfinite(upper)):
        lo = -math.inf if not math.isfinite(lower) else lower - math.inf
        up = math.inf if not math.isfinite(upper) else upper + math.inf
        return lo, up
    w = upper - lower
    return lower - 0.5 * w, upper + 0.5 * w


def art3_update(x, a_j, lower: float, upper: float) -> np.ndarray:
    """One reflection update for a single hyperslab row.

    Inside [L, U] the point is unchanged; within half a slab width of the
    violated face it is reflected across that face; farther away it moves
    to the midplane.  Rows with an infinite or zero width fall back to the
    plain projection (no reflection band).
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a_j, dtype=float)
    s = float(a @ x)
    if lower <= s <= upper:
        return x.copy()
    aa = float(a @ a)
    finite = math.isfinite(lower) and math.isfinite(upper)
    w = (upper - lower) if finite else math.inf
    if not finite or w == 0.0:
        target = lower if s < lower else upper
        return x + ((target - s) / aa) * a
    if lower - 0.5 * w <= s < lower:
        return x + (2.0 * (lower - s) / aa) * a
    if upper < s <= upper + 0.5 * w:
        return x + (2.0 * (upper - s) / aa) * a
    return x + ((0.5 * (lower + upper) - s) / aa) * a


def art3_solve(
    x0,
    system: HyperslabSystem,
    max_iters: int = 100_000,
    reference=None,
    record_trace: bool = False,
) -> SolveReport:
    """Cyclic ART3 sweep; stops after a full pass without movement.

    The stop test keeps the last-change bookkeeping of the classical
    scheme but requires a complete clean pass over all m rows, which also
    covers the first pass (the literal j = k initialization could stop one
    row early before anything has been verified).
    """
    x = as_start(x0, system.n).copy()
    ref = None if reference is None else as_vector(reference, "reference")
    rows_trace: list[TraceRow] = []
    if record_trace or ref is not None:
        rows_trace.append(TraceRow(0, _dist_to(ref, x), None, None, ()))
    a_mat, lo, up = system.a_mat, system.lower, system.upper
    m = system.m
    clean = 0
    i = 0
    j = 0
    status = "iteration_limit"
    while i < max_iters:
        x_new = art3_update(x, a_mat[j], lo[j], up[j])
        changed = not np.array_equal(x_new, x)
        x = x_new
        clean = 0 if changed else clean + 1
        i += 1
        j = (j + 1) % m
        if record_trace or ref is not None:
            rows_trace.append(TraceRow(i, _dist_to(ref, x), None, None, ("update",) if changed else ()))
        if clean >= m:
            status = "solved"
            break
    membership = system.contains(x)
    if status == "solved" and not membership:
        status = "iteration_limit"  # cannot happen for clean passes; belt and braces
    return _report(status, x, rows_trace, {"iterations": i}, extras={"membership": membership})


def extrapolate_plus(x_circ, x_times, system: HyperslabSystem, active) -> np.ndarray:
    """Extrapolate the projection into the active slabs.

    x_plus = x_times + tbar (x_times - x_circ) with tbar = min(t/2, 1) and
    t the largest step keeping x_plus in every active slab (infinite when
    the direction is parallel to all active faces).
    """
    x_circ = np.asarray(x_circ, dtype=float)
    x_times = np.asarray(x_times, dtype=float)
    w = x_times - x_circ
    if float(w @ w) == 0.0:
        return x_times.copy()
    t = math.inf
    for jj in active:
        rho = float(system.a_mat[jj] @ w)
        v = float(system.a_mat[jj] @ x_times)
        if rho > 0.0 and math.isfinite(system.upper[jj]):
            t = min(t, (system.upper[jj] - v) / rho)
        elif rho < 0.0 and math.isfinite(system.lower[jj]):
            t = min(t, (system.lower[jj] - v) / rho)
    t = max(t, 0.0)
    tbar = min(0.5 * t, 1.0)
    return x_times + tbar * w


def classify_case(x_times, x_plus, a_j, lower: float, upper: float) -> int:
    """The five mutually exclusive positions of (x_plus, x_times) for a row."""
    vp = float(np.asarray(a_j, dtype=float) @ np.asarray(x_plus, dtype=float))
    vt = float(np.asarray(a_j, dtype=float) @ np.asarray(x_times, dtype=float))
    if lower <= vp <= upper:
        return 1
    lo_t, up_t = tilde_bounds(lower, upper)
    in_band = (lo_t <= vp < lower) or (upper < vp <= up_t)
    times_in = lower <= vt <= upper
    if in_band:
        return 3 if times_in else 2
    return 5 if times_in else 4


def _violated_face(system: HyperslabSystem, j: int, x: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Unit-normal face halfspace of slab j violated at x, if any."""
    a = system.a_mat[j]
    na = float(np.linalg.norm(a))
    s = float(a @ x)
    if s < system.lower[j]:
        return a / na, system.lower[j] / na
    if s > system.upper[j]:
        return -a / na, -system.upper[j] / na
    return None


def _tight_slabs(system: HyperslabSystem, x: np.ndarray, tol: float = 1e-9) -> tuple[int, ...]:
    # an infinite bound is never tight: for finite ax, |ax -+ inf| = inf
    ax = system.a_mat @ x
    scale = tol * (1.0 + np.abs(ax))
    tight = (np.abs(ax - system.lower) <= scale) | (np.abs(ax - system.upper) <= scale)
    return tuple(tight.nonzero()[0].tolist())


def extended_art_solve(
    x0,
    system: HyperslabSystem,
    policy: ArtPolicy | None = None,
    max_iters: int = 100_000,
    witness=None,
    reference=None,
    tols: GiTolerances = DEFAULT_TOLS,
) -> SolveReport:
    """Extended ART with QP-assisted steps; terminates when x_plus lands in S.

    P_times is never taken in cases 2 or 3 (that restriction protects the
    finite-convergence argument).  When case 5 offers P_times but x_times
    already satisfies the slab, the step re-anchors the triple at x_times
    and collapses the extrapolation; there is nothing to feed the QP there.
    The report tracks the restart subsequence and, given a ``witness``
    inside S, its worst Fejer-monotonicity violation.
    """
    pol = policy or ArtPolicy()
    x0 = as_start(x0, system.n)
    ref = None if reference is None else as_vector(reference, "reference")
    wit = None if witness is None else as_vector(witness, "witness")

    store = HalfspaceStore()
    s = empty_s_tuple(x0)
    x_circ = s.x
    x_times = s.x
    x_plus = s.x
    anchor = x0.copy()

    counts = {"iterations": 0, "p_circ": 0, "p_times": 0, "p_plus": 0, "inner_steps": 0,
              "reanchor": 0}
    rows: list[TraceRow] = [TraceRow(0, _dist_to(ref, x0), None, None, ())]
    fejer_max_increase = 0.0
    fejer_events = 0
    wit_dist = None if wit is None else float(np.linalg.norm(x_circ - wit))
    forbidden_times = 0  # P_times attempts in cases 2/3; must stay zero
    consecutive_circ = 0
    status = "iteration_limit"
    j = 0
    i = 0

    def fejer_step(new_tilde: np.ndarray) -> None:
        nonlocal wit_dist, fejer_max_increase, fejer_events
        if wit is None:
            return
        d = float(np.linalg.norm(new_tilde - wit))
        fejer_events += 1
        if d > wit_dist:
            fejer_max_increase = max(fejer_max_increase, d - wit_dist)
        wit_dist = d

    def rebuild_plus() -> np.ndarray:
        active = _tight_slabs(system, x_times)
        return extrapolate_plus(x_circ, x_times, system, active)

    def raw_violation(point: np.ndarray, jj: int) -> float:
        s_val = float(system.a_mat[jj] @ point)
        return max(system.lower[jj] - s_val, s_val - system.upper[jj])

    def face_step(step, s_from: STuple, face, anchor_pt: np.ndarray):
        """Store slab j's violated face and take the engine step onto it."""
        counts["inner_steps"] += 1
        return step(s_from, store.add(*face, source=j), _StoreView(anchor_pt, store), tols)

    nudge_tol = 1e-12
    # membership of x_plus is tested only when x_plus is a new array: every
    # update rebinds it, and the case-1 visits in between leave it alone
    tested = None
    in_s = False
    outcome = None

    while i < max_iters:
        if x_plus is not tested:
            tested = x_plus
            in_s = system.contains(x_plus)
            if in_s:
                status = "solved"
                break
        case = classify_case(x_times, x_plus, system.a_mat[j], system.lower[j], system.upper[j])
        events: list[str] = []
        if case != 1:
            choice = {2: pol.case2, 3: "plus", 4: pol.case4, 5: pol.case5}[case]
            if choice == "times" and case in (2, 3):
                forbidden_times += 1
                choice = "plus"
            # violations at round-off scale defeat the QP step's violated
            # precondition; fall back to the plain slab projection, whose
            # extrapolation is exactly the classical reflection
            feed = x_plus if choice == "plus" else x_times
            feed_viol = raw_violation(feed, j)
            if choice != "times" or case != 5:
                if feed_viol <= nudge_tol * (1.0 + abs(float(system.a_mat[j] @ feed))):
                    choice = "plus" if raw_violation(x_plus, j) > nudge_tol else "nudge"
            if choice == "circ":
                face = _violated_face(system, j, x_times)
                if face is None:
                    choice = "plus"  # P_circ needs x_times outside the slab
                else:
                    # reflect instead when x_times is nearly inside the slab,
                    # or when the slide refinement has run too long
                    width = system.upper[j] - system.lower[j]
                    resid = raw_violation(x_times, j) / float(np.linalg.norm(system.a_mat[j]))
                    if math.isfinite(width) and resid < pol.case2_close_frac * width and case == 2:
                        choice = "plus"
                    elif consecutive_circ >= pol.circ_cap_factor * (s.q + 1):
                        choice = "plus" if case == 2 else ("times" if case == 4 else "plus")

            if choice == "nudge":
                counts["p_plus"] += 1
                consecutive_circ = 0
                fejer_step(x_plus)
                anchor = x_plus.copy()
                x_circ = x_plus
                a = system.a_mat[j]
                s_val = float(a @ x_plus)
                # project onto the slab inset by eta: a round-off violation
                # needs an x-move large enough to register in the dot
                # product, and any interior point with a larger margin stays
                # closer afterwards
                lo, up = system.lower[j], system.upper[j]
                eta = nudge_tol * 10.0 * (1.0 + abs(s_val))
                if math.isfinite(lo) and math.isfinite(up) and up - lo < 2.0 * eta:
                    target = 0.5 * (lo + up)
                elif s_val < lo:
                    target = lo + eta
                else:
                    target = up - eta
                x_times = x_plus + ((target - s_val) / float(a @ a)) * a
                s = empty_s_tuple(x_times)
                x_plus = rebuild_plus()
                events.append(f"plus-nudge:{j}")
            elif choice == "circ":
                outcome = face_step(inner_gi_step, s, face, anchor)
                counts["p_circ"] += 1
                consecutive_circ += 1
                events.append(f"circ:{j}")
                if isinstance(outcome, Infeasible):
                    break
                s = outcome.s_tuple
                x_times = s.x
                x_plus = rebuild_plus()
            elif choice == "times":
                consecutive_circ = 0
                face = _violated_face(system, j, x_times)
                counts["p_times"] += 1
                if face is None:
                    # case 5: the slab holds at x_times; re-anchor the triple
                    counts["reanchor"] += 1
                    events.append(f"times-reanchor:{j}")
                    fejer_step(x_times)
                    anchor = x_times.copy()
                    s = STuple(s.x, s.j_set, np.zeros(s.q), s.qr)
                    x_circ = x_times
                    x_plus = x_times.copy()
                else:
                    s_zero = STuple(s.x, s.j_set, np.zeros(s.q), s.qr)
                    outcome = face_step(degenerate_inner_gi_step, s_zero, face, x_times.copy())
                    events.append(f"times:{j}")
                    if isinstance(outcome, Infeasible):
                        break
                    fejer_step(x_times)
                    anchor = x_times.copy()
                    x_circ = x_times
                    s = outcome.s_tuple
                    x_times = s.x
                    x_plus = rebuild_plus()
            else:  # P_plus
                consecutive_circ = 0
                counts["p_plus"] += 1
                face = _violated_face(system, j, x_plus)
                fejer_step(x_plus)
                anchor = x_plus.copy()
                x_circ = x_plus
                s = empty_s_tuple(x_plus)
                if face is not None:
                    outcome = face_step(degenerate_inner_gi_step, s, face, anchor)
                    events.append(f"plus:{j}")
                    if isinstance(outcome, Infeasible):
                        break
                    s = outcome.s_tuple
                    x_times = s.x
                else:
                    x_times = x_plus
                x_plus = rebuild_plus()
        i += 1
        counts["iterations"] = i
        j = (j + 1) % system.m
        if ref is not None or events:
            rows.append(TraceRow(len(rows), _dist_to(ref, x_plus), None, None, tuple(events)))

    certificate = cert_system = None
    if isinstance(outcome, Infeasible):
        status = "infeasible"
        certificate, cert_system = outcome.certificate, (store.matrix(), store.rhs_vector())
    triple = ArtTriple(
        x_circ=x_circ.copy(),
        x_times=x_times.copy(),
        x_plus=x_plus.copy(),
        active_slabs=_tight_slabs(system, x_times),
        s_tuple=s,
    )
    extras = {
        "membership": in_s if x_plus is tested else system.contains(x_plus),
        "fejer_events": fejer_events,
        "fejer_max_increase": fejer_max_increase,
        "forbidden_p_times": forbidden_times,
        "triple": triple,
    }
    return _report(status, x_plus, rows, counts, certificate, cert_system, extras)
