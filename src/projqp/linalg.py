"""Dense vector/matrix validation and incremental economy QR factorizations.

Vectors and matrices are plain float ndarrays; ``as_vector``/``as_matrix``
are the entry points that enforce finiteness and shape, and ``as_1d``
enforces the shape of a vector alone.  ``as_bounds`` is the one check of
a pair of bound arrays (a box's, a slab system's, the box QP's): no NaN,
lower <= upper, lower < inf and upper > -inf.  Valid bounds cost it three
comparisons; it works out which rule failed only when one does.

Arrays of at most ``SMALL_SIZE`` entries (up to a 2x2 matrix) are checked
for finiteness on Python floats: at that size numpy's per-call overhead
dwarfs the work.  One seed-0 round of the benchmark makes 921, 192 and
54 such checks on ``two-circles``, ``random-sets`` and ``hyperslabs``,
and one takes 0.39-0.70 us at n = 2 against 1.72-2.55 us for
``np.isfinite(a).all()`` (best of 9 x 100,000 calls, two runs, one BLAS
thread, a shared 2-CPU host).

``QrFactors`` maintains an economy QR factorization of a tall matrix under
two update operations: appending a column (one orthogonalization pass plus
a re-orthogonalization, the Householder-grade alternative) and deleting a
column.  Deleting the last column is a slice of the leading blocks; any
other delete is a sweep of Givens rotations (Daniel, Gragg, Kaufman and
Stewart, Math. Comp. 30, 1976), run by ``scipy.linalg.qr_delete``'s
compiled code at q >= 3 (called past scipy's batching wrapper) and as one
numpy rotation at q = 2, where the compiled call is no faster and numpy
keeps the rounding of the outputs in the plane (the paper's Table 1).
Updates never refactorize from scratch, but a shadow copy of the factored
matrix is kept so that the factors can be refreshed every
``REFRESH_EVERY`` updates to bound drift; a delete counts as one update
whether it slices or sweeps.  Signs are canonicalized so the diagonal of R
is nonnegative, which makes factors deterministic for tests.

Every update returns C-contiguous factors, slices included: BLAS kernels
may sum in a different order for another memory layout, so a strided view
of Q would change the rounding of every product the engine forms with it.

``solve_upper`` calls LAPACK's ``dtrtrs`` directly for systems of three or
more unknowns, with the arguments ``scipy.linalg.solve_triangular`` passes
for each memory order of R, and keeps that function's two checks: a
``ValueError`` for a non-finite operand and ``LinAlgError`` for a zero
diagonal.  So the result is bit for bit that of ``solve_triangular``,
without the wrapper's argument handling, which cost more than the solve
at the active-set sizes of the outer solvers.  One and two unknowns are
solved on Python floats, bit for bit as ``solve_triangular`` solves them
for a C-ordered R, with the same two checks on those floats.  Larger
systems, and the compiled delete, test their operands for finiteness with
one sum of squares each (``_sum_finite``).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtrtrs

RANK_TOL = 1e-12
REFRESH_EVERY = 64
SMALL_SIZE = 4

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)
# above this bound on ||a_j||_1 max|x| a partial sum of a row dot could overflow
_SCREEN_LIMIT = 2.0**1020
# scipy.linalg.solve_triangular's message for a non-finite operand
_NON_FINITE = "array must not contain infs or NaNs"
# scipy's compiled Givens sweep without its batching wrapper, which costs
# more than the sweep itself at the engine's sizes (the wrapper passes an
# unbatched call straight through)
qr_delete = inspect.unwrap(scipy.linalg.qr_delete)


class LinalgError(Exception):
    """Base class for factorization failures."""


class RankDeficient(LinalgError):
    """A diagonal entry of R fell below the rank tolerance."""


class DependentColumn(LinalgError):
    """The appended column lies in the span of the existing columns."""


def _all_finite(a: np.ndarray) -> bool:
    if a.size > SMALL_SIZE:
        return bool(np.isfinite(a).all())
    return all(map(math.isfinite, a.tolist() if a.ndim == 1 else a.ravel().tolist()))


def _sum_finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite, mostly from one sum.

    A NaN or inf entry makes the sum of squares ``np.vdot(a, a)`` NaN or
    inf, so a finite sum proves every entry finite; only a sum that
    overflowed from finite entries needs the entrywise test.  Unlike
    ``a.sum()``, vdot raises no overflow warning.
    """
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def norm(v: np.ndarray) -> float:
    """||v|| for a float vector: the one length rule of the program.

    While v.v is finite this is sqrt(v.v), bit for bit ``np.linalg.norm``.
    Past about 1.3e154 v.v overflows, and ||v|| is big * sqrt(y.y) with
    big = max|v| and y = v / big (Blue, ACM TOMS 4, 1978).  The result is
    inf only where ||v|| exceeds the largest float or v has an inf entry,
    and NaN where v has a NaN entry.  The overflow warning of v.v is the
    caller's to silence.
    """
    sq = float(v.dot(v))
    if sq < math.inf:
        return math.sqrt(sq)
    big = float(np.abs(v).max())  # NaN where v has a NaN entry
    # v / big has entries of at most 1, so its square is finite
    return big * norm(v / big) if big < math.inf else big


def step_along(x: np.ndarray, a: np.ndarray, t: float, a_sq: float) -> np.ndarray:
    """x + (t / a.a) a, the point on the line through x along a whose dot
    with a exceeds a.x by t; ``a_sq`` is a.a, inf where it overflows.

    There the step goes along y = a / big with big = max|a| instead, as
    x + ((t / big) / y.y) y: y.y lies in [1, n], so the step stays finite
    and still lands where the dot with a exceeds a.x by t.
    """
    if a_sq < math.inf:
        return x + (t / a_sq) * a
    big = float(np.abs(a).max())
    y = a / big
    return x + ((t / big) / np.vdot(y, y)) * y


def unit_row(a: np.ndarray, lower: float, upper: float, x: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """The slab lower <= a.x <= upper divided by max|a|, the same set, and
    the new row's dot with x: finite where a.x overflows, unless x is huge."""
    big = float(np.abs(a).max())
    y = a / big
    return y, lower / big, upper / big, float(y @ x)


def as_1d(x, name: str = "vector") -> np.ndarray:
    """x as a one-dimensional float array, its entries unchecked."""
    try:
        v = np.asarray(x, dtype=float)
    except (OverflowError, TypeError) as exc:  # a huge int, a dict, another non-number
        raise ValueError(f"{name}: {exc}") from None
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    return v


def as_vector(x, name: str = "vector") -> np.ndarray:
    v = as_1d(x, name)
    if not _all_finite(v):
        raise ValueError(f"{name} has non-finite entries")
    return v


def as_start(x, dim: int) -> np.ndarray:
    """``as_vector`` for a solver's start point x0 in R^dim.

    A start whose squared norm overflows is rejected: the solvers' vector
    arithmetic on it (projections, constraint normals) would overflow too.
    """
    v = as_vector(x, "x0")
    if v.shape[0] != dim:
        raise ValueError(f"x0 has dimension {v.shape[0]}, but the problem has dimension {dim}")
    with np.errstate(over="ignore"):
        sq = float(v.dot(v))
    if not math.isfinite(sq):
        raise ValueError("x0 is too large: the square of its norm overflows")
    return v


def as_bounds(lower, upper, shape: tuple, what: str) -> tuple[np.ndarray, np.ndarray]:
    """lower and upper as float arrays of ``shape`` bounding a nonempty set;
    a bound that breaks a rule raises a ``ValueError`` naming ``what``."""
    lo = np.asarray(lower, dtype=float)
    up = np.asarray(upper, dtype=float)
    if lo.shape != shape or up.shape != shape:
        raise ValueError(f"{what} bounds must have shape {shape}, got {lo.shape} and {up.shape}")
    # a NaN fails the first comparison
    if not ((lo <= up).all() and (lo < math.inf).all() and (up > -math.inf).all()):
        if np.isnan(lo).any() or np.isnan(up).any():
            raise ValueError(f"{what} bounds must not be NaN")
        if (lo > up).any():
            raise ValueError(f"{what} requires lower <= upper")
        raise ValueError(f"{what} requires lower < inf and upper > -inf")
    return lo, up


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    m = np.asarray(x, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {m.shape}")
    if not _all_finite(m):
        raise ValueError(f"{name} has non-finite entries")
    return m


class _RowScreen:
    """For each row, a radius around x_r within which every x satisfies
    L_j <= float(a_j @ x) <= U_j, the exact per-row test, from one gemv.

    A dot in any summation order obeys |fl(a.x) - a.x| <= gamma_n |a|.|x|
    <= gamma_n ||a||_1 max|x|, with gamma_n = n u / (1 - n u) and u = eps / 2
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1),
    plus n half-subnormals when products underflow.  Let big = max|x_r|,
    g = fl(A x_r), and D = ||x - x_r|| <= big, so max|x| <= 2 big.  Then
    the per-row dot at x differs from g_j by at most that bound at big (the
    gemv) and at 2 big (the dot), plus ||a_j||_2 D (Cauchy-Schwarz).  The
    slack s_j = c ||a_j||_1 big + t, with c = 4 (n + 2) eps and t = 4 (n + 2)
    times the smallest subnormal, covers the rounding terms with room for
    the rounding of ||a_j||_1 and of s_j.  The margin m_j = min(g_j - L_j,
    U_j - g_j) is rounded by at most u of itself, so row j holds at x if
    ||a_j||_2 D < (m_j - s_j)(1 - 5 u).

    ``radii(x)`` returns rho_j = (m_j - s_j) / ||a_j||_2 at x_r = x: the row
    norm adds t to its sum of squares, which covers their underflow, and
    is at most ||a_j||_1, where that sum overflows; rho_j is shrunk by
    4 (n + 3) eps, which covers the factor 1 - 5 u and the rounding of the
    norm, the difference and the quotient.  ``distance`` rounds D up the
    same way, and returns inf where D > big.  So D < rho_j proves row j at
    x, and at x_r (D = 0) rho_j > 0 does.  An overflowed margin exceeds every other
    term (each at most 2**1021); a NaN proves nothing.  Where a partial sum
    at 2 big could overflow, and for a non-finite x_r, the screen decides
    nothing.  Only row norms are kept: a copy of |A| would double the rows'
    memory.
    """

    def __init__(self, a_mat: np.ndarray, lower: np.ndarray, upper: np.ndarray):
        self.a_mat = a_mat
        self.lower = lower
        self.upper = upper
        row_l1 = np.abs(a_mat).sum(axis=1)
        n = a_mat.shape[1]
        self._slack_rows = (4.0 * (n + 2) * _EPS) * row_l1
        self._slack_t = 4.0 * (n + 2) * _TINY
        self._row_l1_max = float(row_l1.max())
        row_l2 = np.minimum(np.sqrt(np.einsum("ij,ij->i", a_mat, a_mat) + self._slack_t), row_l1)
        self._scale = (1.0 - 4.0 * (n + 3) * _EPS) / row_l2
        self._d_up = 1.0 + 4.0 * (n + 3) * _EPS

    def radii(self, x: np.ndarray) -> np.ndarray | None:
        """rho at x_r = x, or None where the screen decides nothing (x
        non-finite or too large for the bound)."""
        big = float(np.abs(x).max())
        if not big * self._row_l1_max <= _SCREEN_LIMIT:  # NaN and inf fail too
            return None
        ax = self.a_mat @ x
        slack = self._slack_rows * big
        slack += self._slack_t
        rho = np.minimum(ax - self.lower, self.upper - ax)
        rho -= slack
        rho *= self._scale
        return rho

    def distance(self, x: np.ndarray, x_r: np.ndarray, big: float) -> float:
        """||x - x_r|| rounded up, or inf where it exceeds big = max|x_r|."""
        diff = x - x_r
        d = math.sqrt(float(diff.dot(diff)) + self._slack_t) * self._d_up
        return d if d <= big else math.inf


@dataclass(frozen=True)
class QrFactors:
    """Economy QR factors of ``mat`` with Q orthonormal and R upper triangular.

    ``mat`` is the shadow copy of the factored matrix, maintained exactly
    under appends/deletes; ``updates`` counts incremental updates since the
    last full refactorization.
    """

    q_mat: np.ndarray
    r_mat: np.ndarray
    mat: np.ndarray
    updates: int = 0

    @property
    def n(self) -> int:
        return self.q_mat.shape[0]

    @property
    def ncols(self) -> int:
        return self.q_mat.shape[1]


def _canonicalize(q: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = np.sign(np.diag(r))
    d[d == 0.0] = 1.0
    return q * d, d[:, None] * r


def qr_factorize(m) -> QrFactors:
    """Economy QR of a tall (n >= q) matrix; raises ``RankDeficient`` if any
    R diagonal falls below ``RANK_TOL`` relative to its column norm."""
    mat = as_matrix(m)
    n, q = mat.shape
    if n < q:
        raise ValueError(f"matrix must be tall or square, got {n}x{q}")
    if q == 0:
        return QrFactors(np.zeros((n, 0)), np.zeros((0, 0)), mat.copy(), 0)
    qf, rf = np.linalg.qr(mat)
    qf, rf = _canonicalize(qf, rf)
    for i in range(q):
        scale = 1.0 + float(np.linalg.norm(mat[:, i]))
        if abs(rf[i, i]) <= RANK_TOL * scale:
            raise RankDeficient(f"column {i}: |R_ii|={abs(rf[i, i]):.3e}")
    return QrFactors(qf, np.triu(rf), mat.copy(), 0)


def _maybe_refresh(f: QrFactors) -> QrFactors:
    if f.updates < REFRESH_EVERY:
        return f
    return qr_factorize(f.mat)


def qr_append_column(f: QrFactors, v) -> QrFactors:
    """QR of ``[mat v]`` from the factors of ``mat``.

    Raises ``DependentColumn`` when v lies in span(Q) within the rank
    tolerance; callers in the active-set code treat that as |z| = 0.
    Existing entries of R are untouched.
    """
    v = as_vector(v, "appended column")
    if v.shape[0] != f.n:
        raise ValueError(f"column has length {v.shape[0]}, expected {f.n}")
    return _qr_append(f, v)


def _qr_append(
    f: QrFactors, v: np.ndarray, first: tuple | None = None, v_norm: float | None = None
) -> QrFactors:
    """``qr_append_column`` for a finite float column of length ``f.n``.

    The active-set engine appends only columns it already holds in that
    form (stored halfspace normals, columns of a validated problem), so it
    calls this directly and skips the checks.  A step that has already
    formed ``_project_out(f.q_mat, v)`` passes it as ``first``, the first
    of the two orthogonalization passes, and one that has formed
    ``norm(v)`` passes it as ``v_norm``.
    """
    if v_norm is None:
        v_norm = norm(v)
    qn = f.ncols
    if qn == 0:
        # nothing to orthogonalize against: v is its own residual
        if v_norm <= RANK_TOL * (1.0 + v_norm):
            raise DependentColumn(f"residual norm {v_norm:.3e}")
        col = v.reshape(-1, 1)
        return _maybe_refresh(QrFactors(col / v_norm, np.array(v_norm, ndmin=2), col.copy(), f.updates + 1))
    w, v_perp = _project_out(f.q_mat, v) if first is None else first
    # one re-orthogonalization pass keeps Q orthonormal to working precision
    w2, v_perp = _project_out(f.q_mat, v_perp)
    w = w + w2
    rho = norm(v_perp)
    if rho <= RANK_TOL * (1.0 + v_norm):
        raise DependentColumn(f"residual norm {rho:.3e}")
    q_new = _append_col(f.q_mat, v_perp / rho)
    r_new = np.zeros((qn + 1, qn + 1))
    r_new[:qn, :qn] = f.r_mat
    r_new[:qn, qn] = w
    r_new[qn, qn] = rho
    return _maybe_refresh(QrFactors(q_new, r_new, _append_col(f.mat, v), f.updates + 1))


def _project_out(q_mat: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w = q_mat.T.dot(v)
    return w, v - q_mat.dot(w)


def _append_col(mat: np.ndarray, col: np.ndarray) -> np.ndarray:
    n, q = mat.shape
    out = np.empty((n, q + 1))
    out[:, :q] = mat
    out[:, q] = col
    return out


def _givens(a: float, b: float) -> tuple[float, float]:
    # returns (c, s) with [[c, s], [-s, c]] @ (a, b) = (hypot, 0)
    if b == 0.0:
        return 1.0, 0.0
    h = float(np.hypot(a, b))
    return a / h, b / h


def qr_delete_column(f: QrFactors, l: int) -> QrFactors:
    """QR of ``mat`` with column ``l`` removed (O(nq)).

    The last column is a slice, the first of two is one numpy rotation, and
    any other goes to ``scipy.linalg.qr_delete`` (see the module docstring)
    after a ``ValueError`` for a non-finite factor.  Short of a refresh,
    Q's columns below l and R's leading l x l block keep their bytes.  Every
    result is
    C-contiguous with a nonnegative diagonal of R, and counts one update.
    """
    q = f.ncols
    if not 0 <= l < q:
        raise IndexError(f"column index {l} out of range for {q} columns")
    if l == q - 1:
        q_new = f.q_mat[:, :l].copy()
        r_new = f.r_mat[:l, :l].copy()
        mat_new = f.mat[:, :l].copy()
    elif q == 2:
        c, s = _givens(f.r_mat[0, 1], f.r_mat[1, 1])
        g = np.array([[c, s], [-s, c]])
        r_new = (g @ f.r_mat[:, 1:])[:1]
        q_new = (f.q_mat @ g.T)[:, :1].copy()
        mat_new = f.mat[:, 1:].copy()
    else:
        if not (_sum_finite(f.q_mat) and _sum_finite(f.r_mat)):
            raise ValueError("QR factors have non-finite entries")
        # overwrite_qr stays off: the caller may still hold f.  At n == q
        # scipy takes Q as the full factor and returns R with q rows.
        q_full, r_full = qr_delete(f.q_mat, f.r_mat, l, 1, "col", check_finite=False)
        # LAPACK gives a rotated diagonal entry its pivot's sign: negate the
        # rows of R and columns of Q from l on where that sign is negative
        sign = np.copysign(1.0, r_full.diagonal()[:q - 1])
        sign[:l] = 1.0
        q_new = np.multiply(q_full[:, :q - 1], sign, order="C")
        r_new = np.multiply(r_full[:q - 1, :q - 1], sign[:, None], order="C")
        r_new[l:] += 0.0  # turns the -0.0 that negation left below the diagonal to +0.0
        mat_new = np.concatenate((f.mat[:, :l], f.mat[:, l + 1:]), axis=1)
    # each path leaves its new diagonal entries >= 0 and exact zeros below
    # them, so signs need fixing only where R had a negative entry
    if not all(d >= 0.0 for d in r_new.diagonal().tolist()):  # NaN included
        q_new, r_new = _canonicalize(q_new, np.triu(r_new))
    return _maybe_refresh(QrFactors(q_new, r_new, mat_new, f.updates + 1))


def solve_upper(r_mat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Back-substitution R x = w for upper triangular R (empty-safe).

    Sizes one and two are unrolled on Python floats; the active sets of
    the outer solvers sit there most of the time and the library call
    overhead dominates.  A non-finite entry raises ``ValueError`` there
    too, before a zero diagonal raises ``LinAlgError``, with the messages
    ``solve_triangular`` gives.
    Larger systems go to ``dtrtrs`` as ``scipy.linalg.solve_triangular``
    would send them (see the module docstring).
    """
    q = r_mat.shape[0]
    if q == 0:
        return np.zeros(0)
    if q <= 2:
        # the IEEE operations dtrtrs takes on a C-ordered R (the engine's
        # layout), on Python floats
        isfinite = math.isfinite
        try:
            if q == 1:
                r00, w0 = r_mat.item(0), w.item(0)
                if not (isfinite(r00) and isfinite(w0)):
                    raise ValueError(_NON_FINITE)
                return np.array([w0 / r00])
            (r00, r01), (r10, r11) = r_mat.tolist()
            w0, w1 = w.tolist()
            if not (isfinite(r00) and isfinite(r01) and isfinite(r10) and isfinite(r11)
                    and isfinite(w0) and isfinite(w1)):
                raise ValueError(_NON_FINITE)
            x1 = w1 / r11
            return np.array([(w0 - r01 * x1) / r00, x1])
        except ZeroDivisionError:
            zero = r_mat.diagonal().tolist().index(0.0)
            raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {zero}") from None
    if not (_sum_finite(r_mat) and _sum_finite(w)):
        raise ValueError(_NON_FINITE)
    if r_mat.flags.f_contiguous:
        x, info = dtrtrs(r_mat, w)
    else:  # dtrtrs expects Fortran order: solve R^T's transposed lower system
        x, info = dtrtrs(r_mat.T, w, lower=1, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x
