"""ART3 and its active-set extension for hyperslab systems L <= Ax <= U.

``art3_solve`` is the classical reflection scheme: inside a slab nothing
happens, within half a width of a face the point is reflected across it,
and farther out it moves to the slab midplane; with a nonempty interior
the sweep terminates finitely.  ``extended_art_solve`` keeps the triple
(x_circ, x_times, x_plus): x_times is the projection of x_circ onto the
collected active slab faces (maintained as an s-tuple so the QP engine can
slide along them), and x_plus extrapolates that projection into the active
slabs.  Each slab visit reads a_j^T x_plus and a_j^T x_times once, and
the case rule ``_case`` places them relative to the slab and its
reflection bands; the case picks one of three updates: refine x_times in
place (P_circ, an inner GI step from x_circ), restart from x_times
(P_times, the inner step from zero multipliers on the kept active faces),
or restart from x_plus (P_plus, the inner step from an empty active set,
the reflection-like move).  Restart steps are the ones that advance the
underlying Fejer-monotone subsequence.

Most visits of either sweep change nothing.  ``linalg._RowScreen`` gives
each row a radius from one gemv, and a positive radius at x clears the
row: it satisfies L_j <= float(a_j @ x) <= U_j, the exact per-row test
that ``art3_update`` and ``_case`` make.  Both sweeps count a cleared row
as a clean (case 1) visit without calling them, and give every other row
the exact test, so outputs are bit-identical to visiting every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activeset_qp import (
    Infeasible,
    STuple,
    empty_s_tuple,
    inner_gi_step,
)
from .convex_sets import _encode_value
from .linalg import _RowScreen, as_1d, as_bounds, as_matrix, as_start, as_vector, norm, step_along, unit_row
from .solvers import HalfspaceStore, SolveReport, TraceRow, _is_count

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
# the one step each case prefers (case 1, x_plus inside the slab, takes none);
# P_times never in the band cases 2 and 3 keeps the convergence finite
STEP_BY_CASE = {2: "circ", 3: "plus", 4: "times", 5: "times"}


@dataclass(frozen=True)
class HyperslabSystem:
    """Rows a_j with bounds L_j <= a_j^T x <= U_j (bounds may be +-inf)."""

    a_mat: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a_mat, "a_mat")
        lo, up = as_bounds(self.lower, self.upper, a.shape[:1], "hyperslab system")
        # a row is zero when its square is, as ``Hyperslab`` tests its normal:
        # a sum of squares is 0 in any order only when every square is
        if 0.0 in np.einsum("ij,ij->i", a, a).tolist():  # inf, with no warning, where it overflows
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
        x = as_1d(x, "x")
        if x.shape[0] != self.n:
            raise ValueError(f"x has dimension {x.shape[0]}, but the set has dimension {self.n}")
        return self._screened(x)[1]

    def _screened(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        """(cleared, inside) at a float array x.

        ``cleared[j]`` is True for each row whose ``_RowScreen`` radius at
        x is positive, so L_j <= float(a_j @ x) <= U_j holds for it bit for
        bit as the update and classification rules compute it; no row is
        cleared where the screen decides nothing.  ``inside`` is exact
        membership: every row not cleared gets that per-row test.
        """
        rho = self._screen.radii(x)
        if rho is not None:
            cleared = rho > 0.0
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
        lines = [f"{self.m} {self.n}"]
        lines += [" ".join(repr(float(v)) for v in row) for row in self.a_mat]
        lines += [" ".join(str(_encode_value(v)) for v in bounds) for bounds in (self.lower, self.upper)]
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
    plain projection (no reflection band).  Each move is
    ``linalg.step_along``, so a row whose square overflows still moves a.x
    where the rule sends it.
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a_j, dtype=float)
    s = float(a @ x)
    if lower <= s <= upper:
        return x.copy()
    if not math.isfinite(s):  # a.x overflowed: the same rule on the row over max|a|
        a, lower, upper, s = unit_row(a, lower, upper, x)
        if lower <= s <= upper:
            return x.copy()
    aa = float(np.vdot(a, a))  # inf, with no warning, where it overflows
    finite = math.isfinite(lower) and math.isfinite(upper)
    w = (upper - lower) if finite else math.inf
    if not finite or w == 0.0:
        target = lower if s < lower else upper
        return step_along(x, a, target - s, aa)
    if lower - 0.5 * w <= s < lower:
        return step_along(x, a, 2.0 * (lower - s), aa)
    if upper < s <= upper + 0.5 * w:
        return step_along(x, a, 2.0 * (upper - s), aa)
    return step_along(x, a, 0.5 * (lower + upper) - s, aa)


def _check_max_iters(max_iters) -> None:
    if not _is_count(max_iters, 1):
        raise ValueError(f"max_iters must be an integer >= 1, got {max_iters!r}")


# a far x's dot with a large row may overflow; art3_update rescales the row
@np.errstate(over="ignore")
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
                rho = system._screen.radii(x)  # None: the screen decides nothing
                cleared = np.zeros(m, dtype=bool) if rho is None else rho > 0.0
        clean = 0 if changed else clean + 1
        i += 1
        j = (j + 1) % m
        if clean >= m:
            status = "solved"
            break
    membership = system.contains(x)
    if status == "solved" and not membership:
        status = "iteration_limit"  # cannot happen for clean passes; belt and braces
    return SolveReport(status, x, [], {"iterations": i}, extras={"membership": membership})


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


def _case(vp: float, vt: float, lower: float, upper: float) -> int:
    """The five mutually exclusive positions of a_j^T x_plus = vp and
    a_j^T x_times = vt against the slab [lower, upper] and its bands."""
    if lower <= vp <= upper:
        return 1
    lo_t, up_t = tilde_bounds(lower, upper)
    in_band = (lo_t <= vp < lower) or (upper < vp <= up_t)
    times_in = lower <= vt <= upper
    if in_band:
        return 3 if times_in else 2
    return 5 if times_in else 4


def _tight_slabs(system: HyperslabSystem, x: np.ndarray) -> tuple[int, ...]:
    # an infinite bound is never tight: for finite ax, |ax -+ inf| = inf
    ax = system.a_mat @ x
    scale = TIGHT_TOL * (1.0 + np.abs(ax))
    tight = (np.abs(ax - system.lower) <= scale) | (np.abs(ax - system.upper) <= scale)
    return tuple(tight.nonzero()[0].tolist())


def _inset_projection(x: np.ndarray, a: np.ndarray, s_val: float, lo: float, up: float) -> np.ndarray:
    """Projection of x onto the slab lo <= a^T x <= up inset by
    eta = 10 NUDGE_TOL (1 + |s_val|), where s_val = a^T x.

    A round-off violation needs an x-move large enough to register in the
    dot product, and any interior point with a larger margin stays closer
    afterwards.  A slab narrower than 2 eta maps x to its midplane.
    """
    eta = NUDGE_TOL * 10.0 * (1.0 + abs(s_val))
    if math.isfinite(lo) and math.isfinite(up) and up - lo < 2.0 * eta:
        target = 0.5 * (lo + up)
    elif s_val < lo:
        target = lo + eta
    else:
        target = up - eta
    return step_along(x, a, target - s_val, float(np.vdot(a, a)))


# a row's square may overflow; ``norm`` measures the row scaled there, so
# the warning says nothing new (as in ``solvers._cyclic``)
@np.errstate(over="ignore")
def extended_art_solve(x0, system: HyperslabSystem, max_iters: int = 100_000, witness=None) -> SolveReport:
    """Extended ART with QP-assisted steps; terminates when x_plus lands in S.

    Each case takes the one step ``STEP_BY_CASE`` names, so P_times is never
    taken in cases 2 or 3 (that restriction protects the finite-convergence
    argument); the report's ``forbidden_p_times`` counts the visits that
    would break it, and stays 0.  A step whose engine feed violates the
    slab only by round-off falls back to P_plus, or nudges x_plus into an
    inset of the slab; P_circ falls back to P_plus when x_times is nearly
    inside the slab or the slide refinement has run too long.  When case 5
    offers P_times but x_times already satisfies the slab, the step
    re-anchors the triple at x_times and collapses the extrapolation; there
    is nothing to feed the QP there.  The report tracks the restart
    subsequence and, given a ``witness`` inside S, its worst
    Fejer-monotonicity violation.

    A visit reads slab j once: vp = a_j^T x_plus and vt = a_j^T x_times
    give the case (``_case``), the round-off and P_circ fallbacks and the
    violated face, and the row norm scales that face.  Each step then picks
    its start s-tuple, its engine anchor and its feed, and one
    ``inner_gi_step`` call serves P_circ, P_times and P_plus.  The membership
    test of each new x_plus also returns the screen's mask; a row the mask
    clears is case 1 without a read, so the case-1 visits between updates
    cost no extra matrix product.
    """
    _check_max_iters(max_iters)
    x0 = as_start(x0, system.n)
    wit = None if witness is None else as_vector(witness, "witness")
    if wit is not None and wit.shape != x0.shape:
        raise ValueError(f"witness has dimension {wit.shape[0]}, but the system has dimension {system.n}")

    store = HalfspaceStore()
    s = empty_s_tuple(x0)
    x_circ = x_times = x_plus = s.x
    anchor = x0  # the engine anchor of P_circ steps: the last restart point

    counts = {"iterations": 0, "p_circ": 0, "p_times": 0, "p_plus": 0, "inner_steps": 0, "reanchor": 0}
    rows: list[TraceRow] = [TraceRow(0, None, None, None, ())]
    fejer_max_increase = 0.0
    fejer_events = 0
    wit_dist = None if wit is None else norm(x_circ - wit)
    forbidden_times = 0  # P_times steps in cases 2/3; must stay zero
    consecutive_circ = 0
    status = "iteration_limit"
    i = j = 0

    def restart(point: np.ndarray) -> None:
        """Restart the triple from ``point``, the next member of the
        Fejer-monotone restart subsequence."""
        nonlocal consecutive_circ, anchor, x_circ, wit_dist, fejer_max_increase, fejer_events
        consecutive_circ = 0
        anchor = x_circ = point
        if wit is None:
            return
        d = norm(point - wit)
        fejer_events += 1
        if d > wit_dist:
            fejer_max_increase = max(fejer_max_increase, d - wit_dist)
        wit_dist = d

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
        case = 1
        if not cleared[j]:
            a_j, lo, up = system.a_mat[j], system.lower[j], system.upper[j]
            vp, vt = float(a_j @ x_plus), float(a_j @ x_times)
            case = _case(vp, vt, lo, up)
        events: list[str] = []
        if case != 1:
            choice = STEP_BY_CASE[case]
            # violations at round-off scale defeat the QP step's violated
            # precondition; fall back to the plain slab projection, whose
            # extrapolation is exactly the classical reflection
            v = vp if choice == "plus" else vt  # a_j^T of the engine's feed
            if case != 5 and max(lo - v, v - up) <= NUDGE_TOL * (1.0 + abs(v)):
                choice = "plus" if max(lo - vp, vp - up) > NUDGE_TOL else "nudge"
            na = norm(a_j)
            # P_circ needs x_times outside the slab; reflect instead when
            # x_times is nearly inside it, or when the slide refinement has
            # run too long
            width = up - lo
            if choice == "circ" and (not (vt < lo or vt > up)
                                     or math.isfinite(width) and max(lo - vt, vt - up) / na < CASE2_CLOSE_FRAC * width
                                     or consecutive_circ >= CIRC_CAP_FACTOR * (s.q + 1)):
                choice = "plus"
            if choice == "times" and case in (2, 3):
                forbidden_times += 1

            # each step picks its start s-tuple, its engine anchor and its
            # feed v, whose violated face of slab j the engine enters
            if choice == "circ":
                counts["p_circ"] += 1
                consecutive_circ += 1
                start, anchor_pt, v = s, anchor, vt
            elif choice == "times":
                counts["p_times"] += 1
                start, anchor_pt, v = STuple(s.x, s.j_set, np.zeros(s.q), s.qr), x_times, vt
            else:  # P_plus restarts, and resets s, before its step from the reflection-like point
                counts["p_plus"] += 1
                restart(x_plus)
                nudged = _inset_projection(x_plus, a_j, vp, lo, up) if choice == "nudge" else x_plus
                s = start = empty_s_tuple(nudged)
                anchor_pt, v = x_plus, vp
            if choice == "nudge":
                events.append(f"plus-nudge:{j}")
            elif v < lo or v > up:
                events.append(f"{choice}:{j}")
                counts["inner_steps"] += 1
                store.x_star = anchor_pt
                face = (a_j / na, lo / na) if v < lo else (-a_j / na, -up / na)
                step = inner_gi_step(start, store.add(*face, source=j), store)
                if isinstance(step, Infeasible):
                    outcome = step
                    break
                start = step.s_tuple
            elif choice == "times":  # case 5: the slab holds at x_times; re-anchor the triple
                counts["reanchor"] += 1
                events.append(f"times-reanchor:{j}")
            if choice == "times":  # P_times restarts once its step succeeds
                restart(x_times)
            s = start
            x_times = s.x
            x_plus = extrapolate_plus(x_circ, x_times, system, _tight_slabs(system, x_times))
        i += 1
        counts["iterations"] = i
        j = (j + 1) % system.m
        if events:
            rows.append(TraceRow(len(rows), None, None, None, tuple(events)))

    certificate = cert_system = None
    if outcome is not None:
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
    return SolveReport(status, x_plus, rows, counts, certificate, cert_system, extras)
