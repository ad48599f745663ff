"""Dense vector/matrix validation and incremental economy QR factorizations.

Vectors and matrices are plain float ndarrays; ``as_vector``/``as_matrix``
are the entry points that enforce finiteness and shape.

Arrays of at most ``SMALL_SIZE`` entries (a 2x2 matrix, the largest array
of the two-constraint projections in the plane) are checked for finiteness
on Python floats: at that size numpy's per-call overhead dwarfs the work.

``QrFactors`` maintains an economy QR factorization of a tall matrix under
two update operations: appending a column (one orthogonalization pass plus
a re-orthogonalization, the Householder-grade alternative) and deleting a
column (a sweep of at most q Givens rotations).  Updates never refactorize
from scratch, but a shadow copy of the factored matrix is kept so that the
factors can be refreshed every ``REFRESH_EVERY`` updates to bound drift.
Signs are canonicalized so the diagonal of R is nonnegative, which makes
factors deterministic for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

RANK_TOL = 1e-12
REFRESH_EVERY = 64
SMALL_SIZE = 4


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


def as_vector(x, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
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


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    m = np.asarray(x, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {m.shape}")
    if not _all_finite(m):
        raise ValueError(f"{name} has non-finite entries")
    return m


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
    qn = f.ncols
    if qn == 0:
        # nothing to orthogonalize against: v is its own residual
        rho = math.sqrt(float(v.dot(v)))
        if rho <= RANK_TOL * (1.0 + rho):
            raise DependentColumn(f"residual norm {rho:.3e}")
        col = v.reshape(-1, 1)
        return _maybe_refresh(QrFactors(col / rho, np.array([[rho]]), col.copy(), f.updates + 1))
    w, v_perp = _project_out(f.q_mat, v)
    # one re-orthogonalization pass keeps Q orthonormal to working precision
    w2, v_perp = _project_out(f.q_mat, v_perp)
    w = w + w2
    rho = math.sqrt(float(v_perp.dot(v_perp)))
    if rho <= RANK_TOL * (1.0 + math.sqrt(float(v.dot(v)))):
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
    """QR of ``mat`` with column ``l`` removed, via a Givens sweep (O(nq))."""
    q = f.ncols
    if not 0 <= l < q:
        raise IndexError(f"column index {l} out of range for {q} columns")
    r1 = np.delete(f.r_mat, l, axis=1)
    q1 = f.q_mat.copy()
    for i in range(l, q - 1):
        c, s = _givens(r1[i, i], r1[i + 1, i])
        g = np.array([[c, s], [-s, c]])
        r1[i:i + 2, i:] = g @ r1[i:i + 2, i:]
        r1[i + 1, i] = 0.0
        q1[:, i:i + 2] = q1[:, i:i + 2] @ g.T
    r_new = np.triu(r1[:q - 1, :])
    q_new = q1[:, :q - 1]
    q_new, r_new = _canonicalize(q_new, r_new)
    mat_new = np.delete(f.mat, l, axis=1)
    return _maybe_refresh(QrFactors(q_new, r_new, mat_new, f.updates + 1))


def solve_upper(r_mat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Back-substitution R x = w for upper triangular R (empty-safe).

    Sizes one and two are unrolled; the active sets of the outer solvers
    sit there most of the time and the library call overhead dominates.
    """
    q = r_mat.shape[0]
    if q == 0:
        return np.zeros(0)
    if q == 1:
        return np.array([w[0] / r_mat[0, 0]])
    if q == 2:
        x1 = w[1] / r_mat[1, 1]
        return np.array([(w[0] - r_mat[0, 1] * x1) / r_mat[0, 0], x1])
    return solve_triangular(r_mat, w, lower=False)
