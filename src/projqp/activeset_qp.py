"""Dual active-set engine for least-distance quadratic programs.

Solves min (1/2)||x - x*||^2 subject to C^T x >= b by maintaining an
*s-tuple* ``(x, J, u, N, Q, R, q)``: ``x`` is the projection of ``x*``
onto the constraints indexed by the ordered active set ``J``, all of which
are tight at ``x``; ``u >= 0`` are the KKT multipliers with
``x* - x = -N u``; and ``(Q, R)`` is the economy QR factorization of the
active-normal matrix ``N`` whose i-th column is constraint column J(i).
``N`` itself is the shadow matrix ``qr.mat`` that the QR updates maintain.

The building blocks are the inner step (add one violated constraint,
possibly dropping active ones, so that the objective strictly increases or
infeasibility is certified), its degenerate variant for the all-zero
multiplier state, a primal refinement of the degenerate step direction,
and two dimension reductions through the QR factors.

At the active-set sizes of the outer solvers (one or two columns most of
the time, up to about fifty on n = 50 hyperslab systems) numpy's per-call
overhead dwarfs the arithmetic of the engine's scans.  The ratio test, the
multiplier update and the degenerate step's drop scan therefore run on
Python floats at every size.  They are elementwise IEEE operations
(divides, products, sums and compares), so for finite operands they give
the numpy expressions' results bit for bit.  The violation scan over at
most ``SMALL_SIZE`` constraints runs on Python floats too; only the
invariant residuals (for ``q <= SMALL_Q``) and ``solve_upper`` keep
size-2 branches.  Every product that feeds the iterates goes through the
same numpy call on every path, and a full step hands ``_qr_append`` the
first orthogonalization pass (Q^T c_p and z) it has already formed.  The
invariant check gathers the active columns and right-hand sides with one
``rows`` and one ``rhs_at`` call on the problem view.

The engine runs on ten fixed thresholds, ``FEAS_TOL`` to ``ENTER_WARN_TOL``
below.  Each multiplies a scale of at least 1 where it is applied, so it
bounds operands of norm below 1 absolutely and larger ones relatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence, Union

import numpy as np

from .linalg import (
    SMALL_SIZE,
    DependentColumn,
    QrFactors,
    _project_out,
    _qr_append,
    as_matrix,
    as_vector,
    qr_delete_column,
    qr_factorize,
    solve_upper,
)

INF = math.inf
SMALL_Q = 2

# primal feasibility: gi_solve enters constraint j when (c_j^T x - b_j) / ||c_j||
# < -FEAS_TOL (1 + ||x||); the invariant checks pass an active residual up to
# FEAS_TOL (1 + ||x||) and a KKT residual up to FEAS_TOL (1 + ||x*||)
FEAS_TOL = 1e-9
# multipliers in [-DUAL_TOL, 0) are round-off and clipped to 0; the degenerate
# step takes |u_i| <= DUAL_TOL as zero, and the checks pass u_i >= -DUAL_TOL
DUAL_TOL = 1e-10
# a Farkas certificate needs ||C lam|| <= CERT_TOL (1 + sum lam), lam^T b > CERT_TOL
CERT_TOL = 1e-10
# a step may lower v = ||x - x*||^2 / 2 by at most STEP_TOL (1 + |v|)
STEP_TOL = 1e-12
# z, the part of c_p outside the active span, is zero when ||z|| <= Z_TOL (1 + ||c_p||)
Z_TOL = 1e-10
# with ||z|| <= COND_TOL (1 + ||c_p||) and a blocking multiplier, the step drops
# that column rather than divide by the tiny z^T c_p, which amplifies round-off;
# unless z is zero it still moves x by t1 z, which keeps x* - x + N u as it was
COND_TOL = 1e-8
# r_i counts as positive (it blocks the dual step, or the degenerate step
# drops its column) when r_i > R_POS_TOL (1 + max |r|)
R_POS_TOL = 1e-13
# the invariant checks pass Q^T Q within QR_DRIFT_TOL of I entrywise, and
# Q R within QR_DRIFT_TOL (1 + max |N|) of N
QR_DRIFT_TOL = 1e-10
# the direction refinement enters a dropped column j when its gain
# -c_j^T (c_p - y) exceeds ENTER_TOL (1 + ||c_p||)
ENTER_TOL = 1e-12
# and warns when the entering column's coefficient exceeds
# ENTER_WARN_TOL (1 + max |r|), where it should be <= 0
ENTER_WARN_TOL = 1e-10


class PreconditionViolated(ValueError):
    """A step was invoked outside its contract (constraint already active,
    not violated, zero normal, or nonzero multipliers in the degenerate step)."""


class IterationLimitError(RuntimeError):
    """Step or solve budget exhausted; distinct from an infeasibility verdict."""

    def __init__(self, message: str, x: np.ndarray | None = None):
        super().__init__(message)
        self.x = x


class NumericalError(RuntimeError):
    """Internal consistency failure that indicates numerical breakdown."""


@dataclass
class InvariantMonitor:
    """Counts s-tuple/step invariant checks and violations.

    Enabled by default; the acceptance suite asserts ``violations == 0``
    after running every solver path.  ``fail`` keeps message construction
    off the hot path.
    """

    checks: int = 0
    violations: int = 0
    messages: list[str] = field(default_factory=list)
    enabled: bool = True

    def record(self, ok: bool, message: str) -> None:
        if not self.enabled:
            return
        self.checks += 1
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.violations += 1
        if len(self.messages) < 64:
            self.messages.append(message)

    def reset(self) -> None:
        self.checks = 0
        self.violations = 0
        self.messages.clear()


MONITOR = InvariantMonitor()


class ConstraintView(Protocol):
    """Anything that exposes a point to project from and constraint columns.

    ``rows(js)`` and ``rhs_at(js)`` gather the columns ``js`` (as the rows
    of a q x n matrix) and their right-hand sides in one call each.
    """

    x_star: np.ndarray

    def column(self, p: int) -> np.ndarray: ...

    def rhs(self, p: int) -> float: ...

    def rows(self, js: Sequence[int]) -> np.ndarray: ...

    def rhs_at(self, js: Sequence[int]) -> np.ndarray: ...

    @property
    def m(self) -> int: ...


@dataclass(frozen=True)
class QpProblem:
    """Least-distance QP data: project ``x_star`` onto {x : C^T x >= b}."""

    x_star: np.ndarray
    c_mat: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_star", as_vector(self.x_star, "x_star"))
        object.__setattr__(self, "c_mat", as_matrix(self.c_mat, "c_mat"))
        object.__setattr__(self, "b", as_vector(self.b, "b"))
        n, m = self.c_mat.shape
        if self.x_star.shape[0] != n:
            raise ValueError(f"x_star has length {self.x_star.shape[0]}, C has {n} rows")
        if self.b.shape[0] != m:
            raise ValueError(f"b has length {self.b.shape[0]}, C has {m} columns")

    @property
    def n(self) -> int:
        return self.c_mat.shape[0]

    @property
    def m(self) -> int:
        return self.c_mat.shape[1]

    def column(self, p: int) -> np.ndarray:
        return self.c_mat[:, p]

    def rhs(self, p: int) -> float:
        return float(self.b[p])

    def rows(self, js: Sequence[int]) -> np.ndarray:
        return self.c_mat.T.take(js, axis=0)

    def rhs_at(self, js: Sequence[int]) -> np.ndarray:
        return self.b.take(js)


def _trusted_problem(x_star: np.ndarray, c_mat: np.ndarray, b: np.ndarray) -> QpProblem:
    """``QpProblem(x_star, c_mat, b)`` without its checks, for finite float
    arrays of matching shapes that the caller built itself."""
    qp = object.__new__(QpProblem)
    object.__setattr__(qp, "x_star", x_star)
    object.__setattr__(qp, "c_mat", c_mat)
    object.__setattr__(qp, "b", b)
    return qp


@dataclass(frozen=True)
class STuple:
    """Active-set state; see module docstring for the invariants."""

    x: np.ndarray
    j_set: tuple[int, ...]
    u: np.ndarray
    qr: QrFactors

    @property
    def q(self) -> int:
        return len(self.j_set)


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Farkas witness: lam >= 0, C_{J'} lam = 0 and lam^T b_{J'} > 0."""

    j_prime: tuple[int, ...]
    lam: np.ndarray


@dataclass(frozen=True)
class Advanced:
    s_tuple: STuple
    events: tuple[str, ...] = ()


@dataclass(frozen=True)
class Infeasible:
    certificate: InfeasibilityCertificate
    events: tuple[str, ...] = ()


StepOutcome = Union[Advanced, Infeasible]


@dataclass(frozen=True)
class Solution:
    """Feasible optimum returned by ``gi_solve``."""

    x: np.ndarray
    j_set: tuple[int, ...]
    u: np.ndarray
    s_tuple: STuple
    inner_steps: int


def v_value(x: np.ndarray, x_star: np.ndarray) -> float:
    d = x - x_star
    return 0.5 * float(d.dot(d))


_EMPTY_QR_CACHE: dict[int, QrFactors] = {}
_EMPTY_U = np.zeros(0)


def _empty_qr(n: int) -> QrFactors:
    """The factors of the empty n x 0 matrix, shared between calls."""
    qr = _EMPTY_QR_CACHE.get(n)
    if qr is None:
        qr = qr_factorize(np.zeros((n, 0)))
        _EMPTY_QR_CACHE[n] = qr
    return qr


def empty_s_tuple(x_star) -> STuple:
    """Initial s-tuple: x = x*, empty active set."""
    return _empty_s_tuple(as_vector(x_star, "x_star"))


def _empty_s_tuple(x: np.ndarray) -> STuple:
    """``empty_s_tuple`` for a finite float vector the caller built itself."""
    return STuple(x.copy(), (), _EMPTY_U, _empty_qr(x.shape[0]))


def _nrm(v: np.ndarray) -> float:
    return math.sqrt(float(v.dot(v)))


_EYE_CACHE: dict[int, np.ndarray] = {}


def _eye(q: int) -> np.ndarray:
    e = _EYE_CACHE.get(q)
    if e is None:
        e = np.eye(q)
        _EYE_CACHE[q] = e
    return e


def _appended(vec: np.ndarray, tail: float) -> np.ndarray:
    out = np.empty(vec.shape[0] + 1)
    out[:-1] = vec
    out[-1] = tail
    return out


def _invariant_residuals(s: STuple, qp: ConstraintView) -> tuple:
    """``(mismatched column positions, tightness, min multiplier, KKT
    residual, Q orthogonality, QR reconstruction)`` for ``s``.

    Empty active sets report 0 (and +inf for the multiplier minimum) for
    the quantities that do not apply.
    """
    if s.q > SMALL_Q:
        return _invariant_residuals_general(s, qp)
    n_mat, q_mat = s.qr.mat, s.qr.q_mat
    cols = n_mat.T.tolist()
    bad = [i for i, j in enumerate(s.j_set) if cols[i] != qp.column(j).tolist()]
    kkt = _nrm((qp.x_star - s.x) + n_mat.dot(s.u))
    if not s.q:
        return bad, 0.0, INF, kkt, 0.0, 0.0
    ax = n_mat.T.dot(s.x).tolist()
    gram = q_mat.T.dot(q_mat).tolist()
    if s.q == 1:
        tight = abs(ax[0] - qp.rhs(s.j_set[0]))
        orth = abs(gram[0][0] - 1.0)
    else:
        j0, j1 = s.j_set
        tight = max(abs(ax[0] - qp.rhs(j0)), abs(ax[1] - qp.rhs(j1)))
        (g00, g01), (g10, g11) = gram
        orth = max(abs(g00 - 1.0), abs(g01), abs(g10), abs(g11 - 1.0))
    recon = max(map(abs, (q_mat.dot(s.qr.r_mat) - n_mat).ravel().tolist()))
    return bad, tight, min(s.u.tolist()), kkt, orth, recon


def _abs_max(a: np.ndarray) -> float:
    """max |a_ij|, overwriting a with |a|."""
    return float(np.abs(a, out=a).max())


def _invariant_residuals_general(s: STuple, qp: ConstraintView) -> tuple:
    n_mat, q_mat = s.qr.mat, s.qr.q_mat
    kkt = _nrm((qp.x_star - s.x) + n_mat @ s.u)
    if not s.q:
        return [], 0.0, INF, kkt, 0.0, 0.0
    # one exact compare for all columns: as in np.array_equal, a NaN
    # mismatches and -0.0 equals 0.0
    differ = n_mat.T != qp.rows(s.j_set)
    bad = np.flatnonzero(differ.any(axis=1)).tolist() if differ.any() else []
    ax = n_mat.T @ s.x
    ax -= qp.rhs_at(s.j_set)
    gram = q_mat.T @ q_mat
    gram -= _eye(s.q)
    qr_n = q_mat @ s.qr.r_mat
    qr_n -= n_mat
    return bad, _abs_max(ax), float(s.u.min()), kkt, _abs_max(gram), _abs_max(qr_n)


def check_s_tuple(
    s: STuple,
    qp: ConstraintView,
    where: str = "",
    monitor: InvariantMonitor | None = None,
) -> bool:
    """Verify the testable s-tuple invariants, recording to the monitor.

    The projection property itself (that x projects x* onto the active
    polyhedron) follows from tightness + nonnegative multipliers + the KKT
    residual, since those are sufficient optimality conditions here; the
    brute-force cross-check lives in the test suite.
    """
    mon = MONITOR if monitor is None else monitor
    if not mon.enabled:
        return True
    ok = True
    bad, tight, u_min, kkt, orth, recon = _invariant_residuals(s, qp)
    for i in bad:
        mon.fail(f"{where}: column {i} differs from store column {s.j_set[i]}")
        ok = False
    mon.checks += 1
    # each scale factor below is >= 1, so the unscaled comparison settles
    # most calls without computing the norm
    if tight > FEAS_TOL and tight > FEAS_TOL * (1.0 + _nrm(s.x)):
        mon.fail(f"{where}: active residual {tight:.3e}")
        ok = False
    mon.checks += 1
    if u_min < -DUAL_TOL:
        mon.fail(f"{where}: negative multiplier {u_min:.3e}")
        ok = False
    mon.checks += 1
    if kkt > FEAS_TOL and kkt > FEAS_TOL * (1.0 + _nrm(qp.x_star)):
        mon.fail(f"{where}: KKT residual {kkt:.3e}")
        ok = False
    mon.checks += 1
    if orth > QR_DRIFT_TOL or (
        recon > QR_DRIFT_TOL and recon > QR_DRIFT_TOL * (1.0 + float(np.abs(s.qr.mat).max()))
    ):
        mon.fail(f"{where}: QR drift orth={orth:.3e} recon={recon:.3e}")
        ok = False
    mon.checks += 1
    return ok


def _check_v_increase(
    v_before: float,
    v_after: float,
    where: str,
    monitor: InvariantMonitor | None = None,
) -> None:
    mon = MONITOR if monitor is None else monitor
    if not mon.enabled:
        return
    mon.checks += 1
    if not v_after > v_before - STEP_TOL * (1.0 + abs(v_before)):
        mon.fail(f"{where}: v did not increase ({v_before:.6e} -> {v_after:.6e})")


def _violated(c_p: np.ndarray, b_p: float, x: np.ndarray) -> bool:
    """False exactly when ``_require_violated`` refuses c_p^T y >= b_p as
    satisfied at x (a zero normal reads True and is refused there).

    A driver asks before it hands the steps a cut: at a distance within
    round-off of the set the computed residual can come out >= 0.
    """
    nrm = _nrm(c_p)
    return nrm == 0.0 or not (float(c_p.dot(x)) - b_p) / nrm >= 0.0


def _require_violated(c_p: np.ndarray, b_p: float, x: np.ndarray) -> tuple[float, float]:
    """Refuse a zero normal or a constraint satisfied at x; returns
    ``(||c_p||, c_p^T x)``.

    Callers decide what counts as violated under their own feas_tol; the
    step itself only refuses constraints that are satisfied outright.
    """
    nrm = _nrm(c_p)
    if nrm == 0.0:
        raise PreconditionViolated("constraint normal is zero")
    cx = float(c_p.dot(x))
    if (cx - b_p) / nrm >= 0.0:
        raise PreconditionViolated("constraint is not violated at x")
    return nrm, cx


def _clip_dual(u: np.ndarray) -> np.ndarray:
    # round-off can leave multipliers at -1e-17; exact zeros keep t1 ratios sane
    if u.size == 0 or min(u.tolist()) >= 0.0:
        return u
    mask = (u < 0.0) & (u >= -DUAL_TOL)
    u = u.copy()
    u[mask] = 0.0
    return u


def _dual_update(u_plus: list[float], t: float, r: list[float]) -> list[float]:
    """Multipliers after a step of length t: ``u_plus + t * (-r, 1)``, with
    those in [-DUAL_TOL, 0) set to 0 as ``_clip_dual`` does."""
    u = [u_i + t * -r_i for u_i, r_i in zip(u_plus, r)]
    u.append(u_plus[-1] + t)
    if min(u) < 0.0:
        u = [0.0 if -DUAL_TOL <= u_i < 0.0 else u_i for u_i in u]
    return u


def _positive_tol(r: list[float]) -> float:
    """The bound above which an entry of r counts as positive."""
    return R_POS_TOL * (1.0 + max(map(abs, r), default=0.0))


def _ratio_test(u_plus: list[float], r: list[float]) -> tuple[float, int]:
    """Dual step bound ``t1 = min u_i / r_i`` over the clearly positive
    ``r_i``, with the position attaining it (first minimum, i.e. the lowest
    position in J); ``(inf, -1)`` when no ``r_i`` is positive."""
    thresh = _positive_tol(r)
    t1, l = INF, -1
    for i, (u_i, r_i) in enumerate(zip(u_plus, r)):
        if r_i > thresh:
            ratio = u_i / r_i
            if l < 0 or ratio < t1:
                t1, l = ratio, i
    return t1, l


def _first_positive(r: list[float]) -> int:
    """The lowest position of a clearly positive ``r_i``, or -1."""
    thresh = _positive_tol(r)
    return next((i for i, r_i in enumerate(r) if r_i > thresh), -1)


def inner_gi_step(
    s: STuple,
    p: int,
    qp: ConstraintView,
    monitor: InvariantMonitor | None = None,
) -> StepOutcome:
    """One dual active-set step: make constraint ``p`` feasible.

    Alternates partial steps (dropping the active constraint whose
    multiplier hits zero first) with a final full step that adds ``p``;
    when no step is possible in either space the accumulated coefficients
    form an infeasibility certificate.  Multipliers at zero are handled by
    zero-length partial steps, which is exactly the degenerate-drop rule.
    """
    if p in s.j_set:
        raise PreconditionViolated(f"constraint {p} already active")
    c_p = qp.column(p)
    b_p = qp.rhs(p)
    c_norm, cx = _require_violated(c_p, b_p, s.x)
    scale = 1.0 + c_norm

    x = s.x
    j_work = list(s.j_set)
    u_plus = s.u.tolist() + [0.0]
    qr = s.qr
    events: list[str] = []
    v0 = v_value(x, qp.x_star)
    max_cycles = len(j_work) + qp.m + 2

    for _ in range(max_cycles):
        if j_work:
            # also the first orthogonalization pass of a full step's append
            first = _project_out(qr.q_mat, c_p)
            qtc, z = first
            r = solve_upper(qr.r_mat, qtc)
            r_list = r.tolist()
            z_norm = _nrm(z)
            t1, l = _ratio_test(u_plus, r_list)
        else:  # no active normals: z = c_p and no multiplier can block
            first = None
            r, r_list = _EMPTY_U, []
            z, z_norm = c_p, c_norm
            t1, l = INF, -1
        z_zero = z_norm <= Z_TOL * scale

        if z_zero or (z_norm <= COND_TOL * scale and t1 < INF):
            # the second case: c_p is nearly dependent on the active normals,
            # so replace a blocking column instead of stepping along z
            t2 = INF
        else:
            # z^T c_p = ||z||^2 > 0 in exact arithmetic; just above COND_TOL its
            # round-off can flip the sign, and then c_p is dependent as computed
            zc = float(z.dot(c_p))
            t2 = (b_p - cx) / zc if zc > 0.0 else INF

        if t1 == INF and t2 == INF:
            lam = np.append(np.maximum(-r, 0.0), 1.0)
            cert = InfeasibilityCertificate(tuple(j_work) + (p,), lam)
            events.append("infeasible")
            mon = MONITOR if monitor is None else monitor
            mon.record(
                verify_certificate(cert, qp),
                "inner_gi_step: invalid infeasibility certificate",
            )
            return Infeasible(cert, tuple(events))

        if t2 <= t1:  # full step; ties resolve to the full step
            x = x + t2 * z
            u_new = np.array(_dual_update(u_plus, t2, r_list))
            try:
                qr2 = _qr_append(qr, c_p, first)
            except DependentColumn as exc:  # z != 0 should preclude this
                raise NumericalError(f"dependent column on full step: {exc}") from exc
            s2 = STuple(x, tuple(j_work) + (p,), u_new, qr2)
            events += ["full", f"add:{p}"]
            check_s_tuple(s2, qp, "inner_gi_step", monitor)
            _check_v_increase(v0, v_value(x, qp.x_star), "inner_gi_step", monitor)
            return Advanced(s2, tuple(events))

        # dual-only step when z = 0, otherwise partial step in both spaces
        if z_zero:
            events.append("dual")
        else:
            x = x + t1 * z
            cx = float(c_p.dot(x))
            events.append("partial")
        u_plus = _dual_update(u_plus, t1, r_list)
        del u_plus[l]
        events.append(f"drop:{j_work[l]}")
        del j_work[l]
        qr = qr_delete_column(qr, l)

    raise IterationLimitError("anti-cycling cap exceeded in inner GI step", x)


def _refine_direction(
    j_work: list[int],
    qr: QrFactors,
    r: np.ndarray,
    c_p: np.ndarray,
    qp: ConstraintView,
    pool: list[int],
    max_rounds: int,
) -> tuple[list[int], QrFactors, np.ndarray, list[str]]:
    events: list[str] = []
    n = c_p.shape[0]
    y = qr.mat @ r if r.size else np.zeros(n)
    enter_tol = ENTER_TOL * (1.0 + float(np.linalg.norm(c_p)))
    pool_left = list(pool)
    rounds = 0

    while rounds < max_rounds:
        gains = [(j, float(-(qp.column(j) @ (c_p - y)))) for j in pool_left]
        eligible = [(j, g) for j, g in gains if g > enter_tol]
        if not eligible:
            break  # y is the cone projection over the full candidate set
        j_in = min(j for j, _ in eligible)
        c_in = qp.column(j_in)
        try:
            qr_plus = _qr_append(qr, c_in)
        except DependentColumn:
            pool_left.remove(j_in)
            events.append(f"skip-dependent:{j_in}")
            continue
        r_ext = np.append(r, 0.0)
        r_plus = solve_upper(qr_plus.r_mat, qr_plus.q_mat.T @ c_p)
        guard = 0
        while True:
            q_cur = qr.ncols
            scale = 1.0 + float(np.max(np.abs(r_plus))) if r_plus.size else 1.0
            pos = np.flatnonzero(r_plus[:q_cur] > R_POS_TOL * scale)
            if pos.size == 0:
                break
            t3_vals = -r_ext[pos] / r_plus[pos]
            k = int(np.argmin(t3_vals))
            t3, l = float(t3_vals[k]), int(pos[k])
            r_ext = r_ext + t3 * r_plus
            removed = j_work.pop(l)
            pool_left.append(removed)  # dropped columns rejoin the candidates
            events.append(f"drop:{removed}")
            qr = qr_delete_column(qr, l)
            qr_plus = qr_delete_column(qr_plus, l)
            r_ext = np.delete(r_ext, l)
            r_plus = solve_upper(qr_plus.r_mat, qr_plus.q_mat.T @ c_p)
            guard += 1
            if guard > q_cur + len(pool) + 2:
                raise NumericalError("direction refinement failed to settle")
        j_work.append(j_in)
        pool_left.remove(j_in)
        events.append(f"enter:{j_in}")
        qr, r = qr_plus, r_plus
        if r.size and r[-1] > ENTER_WARN_TOL * (1.0 + float(np.max(np.abs(r)))):
            events.append("warn-positive-entering-coefficient")
        y = qr.mat @ r
        rounds += 1
    return j_work, qr, r, events


def degenerate_inner_gi_step(
    s: STuple,
    p: int,
    qp: ConstraintView,
    aplus_rounds: int = 0,
    monitor: InvariantMonitor | None = None,
) -> StepOutcome:
    """The inner step variant for all-zero multipliers.

    Drops active columns while the span coefficients of ``c_p`` have a
    positive entry (lowest index first), refines the direction against the
    dropped candidates for ``aplus_rounds`` rounds, then takes a single full
    step onto the remaining tight system plus ``p``.  With |z| = 0 the
    coefficients give an infeasibility certificate.  The refinement's
    stopping criterion is not prescribed, so it is a round budget; each
    round enters the lowest eligible index among the dropped candidates.
    """
    if p in s.j_set:
        raise PreconditionViolated(f"constraint {p} already active")
    if max(map(abs, s.u.tolist()), default=0.0) > DUAL_TOL:
        raise PreconditionViolated("multipliers are not zero; use inner_gi_step")
    c_p = qp.column(p)
    b_p = qp.rhs(p)
    _, cx = _require_violated(c_p, b_p, s.x)

    x = s.x
    j0 = list(s.j_set)
    j_work = list(s.j_set)
    qr = s.qr
    events: list[str] = []

    while True:
        r = solve_upper(qr.r_mat, qr.q_mat.T @ c_p)
        l = _first_positive(r.tolist())
        if l < 0:
            break
        events.append(f"drop:{j_work[l]}")
        del j_work[l]
        qr = qr_delete_column(qr, l)

    if aplus_rounds:
        pool = [j for j in j0 if j not in j_work]
        j_work, qr, r, ev = _refine_direction(j_work, qr, r, c_p, qp, pool, aplus_rounds)
        events += ev

    # also the first orthogonalization pass of the append below
    first = _project_out(qr.q_mat, c_p)
    z = first[1]
    if _nrm(z) <= Z_TOL * (1.0 + _nrm(c_p)):
        lam = np.append(np.maximum(-r, 0.0), 1.0)
        cert = InfeasibilityCertificate(tuple(j_work) + (p,), lam)
        events.append("infeasible")
        mon = MONITOR if monitor is None else monitor
        mon.record(
            verify_certificate(cert, qp),
            "degenerate_inner_gi_step: invalid infeasibility certificate",
        )
        return Infeasible(cert, tuple(events))

    t2 = (b_p - cx) / float(z.dot(c_p))
    x2 = x + t2 * z
    u2 = _clip_dual(_appended(-t2 * r, t2))
    try:
        qr2 = _qr_append(qr, c_p, first)
    except DependentColumn as exc:
        raise NumericalError(f"dependent column on degenerate step: {exc}") from exc
    s2 = STuple(x2, tuple(j_work) + (p,), u2, qr2)
    events += ["full", f"add:{p}"]
    check_s_tuple(s2, qp, "degenerate_inner_gi_step", monitor)
    _check_v_increase(
        v_value(x, qp.x_star), v_value(x2, qp.x_star), "degenerate_inner_gi_step", monitor
    )
    return Advanced(s2, tuple(events))


def _pick_violated(resid: np.ndarray, thresh: float) -> int:
    """The most violated constraint (first minimum) among those with
    ``resid < thresh``; -1 when none is violated."""
    if resid.shape[0] > SMALL_SIZE:
        return _pick_violated_general(resid, thresh)
    p, worst = -1, thresh
    for j, r_j in enumerate(resid.tolist()):
        if r_j < worst:
            p, worst = j, r_j
    return p


def _pick_violated_general(resid: np.ndarray, thresh: float) -> int:
    violated = np.flatnonzero(resid < thresh)
    if violated.size == 0:
        return -1
    return int(violated[np.argmin(resid[violated])])


def gi_solve(qp: QpProblem) -> Solution | Infeasible:
    """Project ``x*`` onto {x : C^T x >= b} by repeated inner steps, each
    entering the most violated constraint.

    Raises ``IterationLimitError`` after ``100 + 20 m`` steps, which is a
    different outcome from a certified ``Infeasible``.
    """
    return _gi_from(qp, empty_s_tuple(qp.x_star))


def _gi_from(qp: QpProblem, s: STuple) -> Solution | Infeasible:
    """``gi_solve`` from the s-tuple ``s`` of ``qp`` in place of the empty one.

    A start whose active constraints are already among the answer's leaves
    the engine fewer inner steps to take.
    """
    cap = 100 + 20 * qp.m
    col_norms = np.linalg.norm(qp.c_mat, axis=0)
    if 0.0 in col_norms.tolist():
        raise PreconditionViolated("zero constraint normal in problem")
    inner = 0
    while True:
        resid = (qp.c_mat.T.dot(s.x) - qp.b) / col_norms
        thresh = -FEAS_TOL * (1.0 + _nrm(s.x))
        p = _pick_violated(resid, thresh)
        if p < 0:
            return Solution(s.x, s.j_set, s.u, s, inner)
        if inner >= cap:
            raise IterationLimitError(f"inner step budget {cap} exhausted", s.x)
        outcome = inner_gi_step(s, p, qp)
        inner += 1
        if isinstance(outcome, Infeasible):
            return outcome
        s = outcome.s_tuple


def verify_certificate(
    cert: InfeasibilityCertificate,
    qp_or_c_mat,
    b=None,
) -> bool:
    """Farkas check: lam >= 0, ||C_{J'} lam|| small, lam^T b_{J'} > cert_tol."""
    if b is None:
        cols = np.column_stack([qp_or_c_mat.column(j) for j in cert.j_prime])
        b_j = np.array([qp_or_c_mat.rhs(j) for j in cert.j_prime])
    else:
        c_mat = as_matrix(qp_or_c_mat, "c_mat")
        b_all = as_vector(b, "b")
        cols = c_mat[:, list(cert.j_prime)]
        b_j = b_all[list(cert.j_prime)]
    lam = cert.lam
    if lam.shape[0] != len(cert.j_prime) or np.any(lam < 0.0):
        return False
    scale = 1.0 + float(np.sum(lam))
    if float(np.linalg.norm(cols @ lam)) > CERT_TOL * scale:
        return False
    return float(lam @ b_j) > CERT_TOL


def project_polyhedron_reduced(x, c_mat, b) -> np.ndarray:
    """Projection onto {x : C^T x >= b} through the QR of C.

    With C = QR (full column rank d), solving the d-dimensional problem
    z = P_{R^T z >= b}(Q^T x) gives the projection as Qz + (I - QQ^T)x.
    Falls back to the direct solve when C is rank deficient.
    """
    x = as_vector(x, "x")
    try:
        f = qr_factorize(c_mat)
    except Exception:
        res = gi_solve(QpProblem(x, c_mat, b))
        if isinstance(res, Infeasible):
            raise ValueError("polyhedron is empty") from None
        return res.x
    qtx = f.q_mat.T @ x
    res = gi_solve(QpProblem(qtx, f.r_mat, b))
    if isinstance(res, Infeasible):
        raise ValueError("polyhedron is empty")
    return f.q_mat @ res.x + (x - f.q_mat @ qtx)


def cone_project_reduced(n0_mat, c_p) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """Projection of ``c_p`` onto cone(-N0) computed in the reduced space.

    Factor N0 = Q0 R0 and project w = Q0^T c_p onto cone(-R0) there; the
    lift Q0 y~ is the full-space cone projection.  The reduced projection
    is obtained through the polar identity: P_cone(w) = w - P_polar(w) with
    polar(cone(-R0)) = {v : R0^T v >= 0}, a least-distance QP.

    Returns ``(y, J, r)`` with y = Q0 y~, supporting columns J of N0 and
    strictly negative coefficients r with y~ = (R0)_J r.
    """
    f = qr_factorize(n0_mat)  # RankDeficient propagates
    c_p = as_vector(c_p, "c_p")
    w = f.q_mat.T @ c_p
    res = gi_solve(QpProblem(w, f.r_mat, np.zeros(f.ncols)))
    if isinstance(res, Infeasible):  # 0 is always feasible for the polar QP
        raise NumericalError("polar projection reported infeasible")
    y_tilde = w - res.x
    y = f.q_mat @ y_tilde
    support = [(j, -float(res.u[i])) for i, j in enumerate(res.j_set) if res.u[i] > DUAL_TOL]
    j_idx = tuple(j for j, _ in support)
    r = np.array([c for _, c in support])
    return y, j_idx, r
