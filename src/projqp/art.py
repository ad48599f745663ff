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

Most visits of either sweep change nothing.  ``HyperslabSystem._screened``
proves a row clean with one gemv and ``linalg._RowScreen``'s rounding
slack.  A row it clears satisfies L_j <= float(a_j @ x) <= U_j, the exact
per-row test that ``art3_update`` and ``classify_case`` make.  Both sweeps
count a cleared row as a clean (case 1) visit without calling them, and
give every other row the exact test, so outputs are bit-identical to
visiting every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activeset_qp import (
    Infeasible,
    STuple,
    degenerate_inner_gi_step,
    empty_s_tuple,
    inner_gi_step,
)
from .linalg import _RowScreen, as_matrix, as_start, as_vector
from .solvers import HalfspaceStore, SolveReport, TraceRow, _StoreView, _report
from .solvers import _check_fields, _is_count

# P_circ turns into P_plus in case 2 when x_times violates its face by less
# than this fraction of the slab width
CASE2_CLOSE_FRAC = 0.1
# consecutive P_circ steps are capped at this factor * (active set size + 1)
CIRC_CAP_FACTOR = 3
# a face of slab j is tight at x, and joins the faces x_plus extrapolates
# along, when |a_j^T x - L_j| (or U_j) <= TIGHT_TOL (1 + |a_j^T x|)
TIGHT_TOL = 1e-9
# a violation of slab j by the point fed to the engine is round-off when it
# is <= NUDGE_TOL (1 + |a_j^T feed|); unless x_plus violates the slab by more
# than NUDGE_TOL (absolute, in a_j^T x), the visit then nudges: it projects
# x_plus onto the slab inset by 10 NUDGE_TOL (1 + |a_j^T x_plus|)
NUDGE_TOL = 1e-12


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
        object.__setattr__(self, "_screen", _RowScreen(a, lo, up))

    @property
    def m(self) -> int:
        return self.a_mat.shape[0]

    @property
    def n(self) -> int:
        return self.a_mat.shape[1]

    def contains(self, x: np.ndarray) -> bool:
        """Exact membership: L_j <= float(a_j @ x) <= U_j for every row j."""
        return self._screened(np.asarray(x, dtype=float))[1]

    def _screened(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        """(cleared, inside) at a float array x.

        ``cleared[j]`` is True for each row that ``_RowScreen`` proves x
        inside by a margin its rounding bound covers, so L_j <= float(a_j @ x)
        <= U_j holds for it bit for bit as the update and classification
        rules compute it; no row is cleared where the screen decides
        nothing.  ``inside`` is exact membership: every row not cleared gets
        that per-row test.
        """
        cleared = self._screen.inside(x)
        if cleared is not None:
            rows = (~cleared).nonzero()[0].tolist()
        else:
            cleared = np.zeros(self.m, dtype=bool)
            if not math.isfinite(float(np.abs(x).max())):  # NaN would compare false on every face
                return cleared, False
            rows = range(self.m)
        a_mat = self.a_mat
        for j in rows:
            s = float(a_mat[j] @ x)
            if s < self.lower[j] or s > self.upper[j]:
                return cleared, False
        return cleared, True

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
    """Step choices per case where the preference marks leave one open.

    ``case2`` in {"circ", "plus"}, ``case4`` in {"times", "circ", "plus"},
    ``case5`` in {"times", "plus"}.
    """

    case2: str = "circ"
    case4: str = "times"
    case5: str = "times"

    def __post_init__(self):
        _check_fields(self, (
            ("case2", self.case2 in ("circ", "plus"), '"circ" or "plus"'),
            ("case4", self.case4 in ("times", "circ", "plus"), '"times", "circ" or "plus"'),
            ("case5", self.case5 in ("times", "plus"), '"times" or "plus"'),
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


def _check_max_iters(max_iters) -> None:
    if not _is_count(max_iters, 1):
        raise ValueError(f"max_iters must be an integer >= 1, got {max_iters!r}")


def art3_solve(x0, system: HyperslabSystem, max_iters: int = 100_000) -> SolveReport:
    """Cyclic ART3 sweep; stops after a full pass without movement.

    The stop test keeps the last-change bookkeeping of the classical
    scheme but requires a complete clean pass over all m rows, which also
    covers the first pass (the literal j = k initialization could stop one
    row early before anything has been verified).  The report has no
    trace rows.

    At the first clean visit after x moves, the sweep screens x once;
    while x stays put, every row the screen clears is a clean visit
    without an ``art3_update`` call.  Those visits count toward the
    iterations, the clean pass and ``max_iters`` as visited rows do.
    """
    _check_max_iters(max_iters)
    x = as_start(x0, system.n).copy()
    a_mat, lo, up = system.a_mat, system.lower, system.upper
    m = system.m
    clean = 0
    i = 0
    j = 0
    status = "iteration_limit"
    cleared = None  # the screen of x, taken at the first exact clean visit since x moved
    while i < max_iters:
        if cleared is not None and cleared[j]:
            changed = False  # art3_update would return x unchanged
        else:
            x_new = art3_update(x, a_mat[j], lo[j], up[j])
            changed = not np.array_equal(x_new, x)
            x = x_new
            if changed:
                cleared = None
            elif cleared is None:
                cleared = system._screened(x)[0]
        clean = 0 if changed else clean + 1
        i += 1
        j = (j + 1) % m
        if clean >= m:
            status = "solved"
            break
    membership = system.contains(x)
    if status == "solved" and not membership:
        status = "iteration_limit"  # cannot happen for clean passes; belt and braces
    return _report(status, x, [], {"iterations": i}, extras={"membership": membership})


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


def _tight_slabs(system: HyperslabSystem, x: np.ndarray, tol: float = TIGHT_TOL) -> tuple[int, ...]:
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
) -> SolveReport:
    """Extended ART with QP-assisted steps; terminates when x_plus lands in S.

    P_times is never taken in cases 2 or 3 (that restriction protects the
    finite-convergence argument).  When case 5 offers P_times but x_times
    already satisfies the slab, the step re-anchors the triple at x_times
    and collapses the extrapolation; there is nothing to feed the QP there.
    The report tracks the restart subsequence and, given a ``witness``
    inside S, its worst Fejer-monotonicity violation.

    The membership test of each new x_plus also returns the screen's mask.
    A row the mask clears is case 1 without a ``classify_case`` call, so
    the case-1 visits between updates cost no extra matrix product.
    """
    _check_max_iters(max_iters)
    pol = policy or ArtPolicy()
    x0 = as_start(x0, system.n)
    wit = None if witness is None else as_vector(witness, "witness")

    store = HalfspaceStore()
    s = empty_s_tuple(x0)
    x_circ = s.x
    x_times = s.x
    x_plus = s.x
    anchor = x0.copy()

    counts = {"iterations": 0, "p_circ": 0, "p_times": 0, "p_plus": 0, "inner_steps": 0,
              "reanchor": 0}
    rows: list[TraceRow] = [TraceRow(0, None, None, None, ())]
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
        return step(s_from, store.add(*face, source=j), _StoreView(anchor_pt, store))

    # membership of x_plus is tested only when x_plus is a new array: every
    # update rebinds it, and the case-1 visits in between leave it alone
    tested = None
    in_s = False
    outcome = None

    while i < max_iters:
        if x_plus is not tested:
            tested = x_plus
            cleared, in_s = system._screened(x_plus)
            if in_s:
                status = "solved"
                break
        if cleared[j]:
            case = 1
        else:
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
                if feed_viol <= NUDGE_TOL * (1.0 + abs(float(system.a_mat[j] @ feed))):
                    choice = "plus" if raw_violation(x_plus, j) > NUDGE_TOL else "nudge"
            if choice == "circ":
                face = _violated_face(system, j, x_times)
                if face is None:
                    choice = "plus"  # P_circ needs x_times outside the slab
                else:
                    # reflect instead when x_times is nearly inside the slab,
                    # or when the slide refinement has run too long
                    width = system.upper[j] - system.lower[j]
                    resid = raw_violation(x_times, j) / float(np.linalg.norm(system.a_mat[j]))
                    if math.isfinite(width) and resid < CASE2_CLOSE_FRAC * width and case == 2:
                        choice = "plus"
                    elif consecutive_circ >= CIRC_CAP_FACTOR * (s.q + 1):
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
                eta = NUDGE_TOL * 10.0 * (1.0 + abs(s_val))
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
        if events:
            rows.append(TraceRow(len(rows), None, None, None, tuple(events)))

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
