"""Correctness checks the benchmark computes on its own.

Nothing here calls into ``projqp``: problems are read from their JSON
documents, distances and Farkas residuals are computed with numpy, and the
published Table 1 is copied below.  Every check raises ``CheckFailed`` with
a message naming what is wrong, so a wrong answer is never counted as a
correct one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import nnls


class CheckFailed(Exception):
    """A solver output that the benchmark's own computation rejects."""


# Table 1 of the paper: distance to the solution per outer iteration on
# the two-circles instance, rows 0-11.
TABLE1 = {
    "bap-gi": [9.23e0, 2.95e0, 1.48e0, 2.16e-1, 1.54e-1, 1.60e-2,
               5.22e-3, 7.91e-5, 6.91e-6, 1.67e-9, 1.21e-11, 9.44e-16],
    "sip-gi": [9.23e0, 2.95e0, 7.98e-1, 1.70e-1, 7.57e-2, 8.04e-3,
               1.38e-3, 1.79e-5, 4.84e-7, 8.28e-11, 5.93e-14, 7.86e-16],
}

TWO_CIRCLES_X0 = (0.0, 10.0)
TWO_CIRCLES_XBAR = (0.0, math.sqrt(0.59))

STATUS_EXIT = {"solved": 0, "infeasible": 2, "iteration_limit": 3}

# relative slack on a feasibility threshold, for the rounding of the
# benchmark's own distance against the solver's
ROUNDING_SLACK = 1e-6
# Farkas residual allowed in a certificate, relative to its weights
CERT_TOL = 1e-8
# a face is tight when a^T x is this close to its bound, relative to |a^T x|
TIGHT_TOL = 1e-7
# largest relative nnls residual of x0 - x in the normal cone
MAX_CONE_RESID = 1e-8
# Dykstra iterate against the benchmark's own replay, relative to 1 + ||x0||
DYKSTRA_REPLAY_TOL = 1e-9


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def norm(v) -> float:
    return float(np.linalg.norm(np.asarray(v, dtype=float)))


def agrees_2sf(value: float, table: float) -> bool:
    """Within half a unit of the table entry's second significant digit."""
    unit = 10.0 ** (math.floor(math.log10(abs(table))) - 1)
    return abs(value - table) <= 0.5 * unit * (1.0 + 1e-9)


def check_table1(method: str, dists) -> None:
    """Rows 1-9 of the distance trace agree with Table 1 to two figures."""
    table = TABLE1[method]
    require(len(dists) > 9, f"{method}: trace has {len(dists)} rows, Table 1 needs 10")
    for i in range(1, 10):
        require(agrees_2sf(dists[i], table[i]),
                f"{method}: row {i} distance {dists[i]:.4e}, Table 1 has {table[i]:.2e}")


def check_exit_code(code: int, status: str, what: str) -> None:
    require(code == STATUS_EXIT.get(status), f"{what}: exit code {code} for status {status}")


def check_close(x, target, tol: float, what: str) -> None:
    d = norm(np.asarray(x, dtype=float) - np.asarray(target, dtype=float))
    require(d <= tol, f"{what}: distance {d:.3e} exceeds {tol:.1e}")


def check_nearest(x, x0, rivals: dict, tol: float, what: str) -> None:
    """No rival answer is closer to x0 than x, by more than tol."""
    d = norm(np.asarray(x, dtype=float) - np.asarray(x0, dtype=float))
    for name, y in rivals.items():
        d_y = norm(np.asarray(y, dtype=float) - np.asarray(x0, dtype=float))
        require(d <= d_y + tol, f"{what}: ||x - x0|| = {d:.9e} exceeds {name}'s {d_y:.9e}")


def check_haugazeau(x, x0, xbar, rel_tol: float = 1e-9) -> None:
    """x_K is the projection of x0 onto a set that contains C, and x-bar lies
    in the halfspace through x_K with normal x0 - x_K:
    ||x_K - x0|| <= ||x-bar - x0|| and
    ||x_K - x-bar||^2 <= ||x-bar - x0||^2 - ||x_K - x0||^2."""
    x, x0, xbar = (np.asarray(v, dtype=float) for v in (x, x0, xbar))
    a = norm(x - x0)
    d = norm(xbar - x0)
    slack = rel_tol * (1.0 + d * d)
    require(a <= d + slack, f"haugazeau: ||x_K - x0|| = {a:.9e} exceeds ||x-bar - x0|| = {d:.9e}")
    gap = norm(x - xbar) ** 2 - (d * d - a * a)
    require(gap <= slack, f"haugazeau: obtuse-angle inequality fails by {gap:.3e}")


# ---------------------------------------------------------------------------
# Sets, read from problem documents


def bound(v) -> float:
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return float(v)


def set_distance(doc: dict, x: np.ndarray) -> float:
    """Euclidean distance from x to one set of a problem document."""
    kind = doc["type"]
    if kind == "ball":
        center = np.asarray(doc["center"], dtype=float)
        return max(0.0, norm(x - center) - float(doc["radius"]))
    if kind == "box":
        lower = np.array([bound(v) for v in doc["lower"]])
        upper = np.array([bound(v) for v in doc["upper"]])
        return norm(x - np.minimum(np.maximum(x, lower), upper))
    if kind == "hyperslab":
        a = np.asarray(doc["a"], dtype=float)
        s = float(a @ x)
        gap = max(0.0, bound(doc["lower"]) - s, s - bound(doc["upper"]))
        return gap / norm(a)
    raise CheckFailed(f"no distance code for set type {kind!r}")


def check_feasible(x, set_docs, feas_tol: float, what: str) -> None:
    """x lies within feas_tol * (1 + ||x||) of every set."""
    x = np.asarray(x, dtype=float)
    tol = feas_tol * (1.0 + norm(x)) * (1.0 + ROUNDING_SLACK)
    for i, doc in enumerate(set_docs):
        d = set_distance(doc, x)
        require(d <= tol, f"{what}: distance {d:.3e} to set {i} ({doc['type']}) exceeds {tol:.3e}")


def check_in_slabs_exact(x, a_mat, lower, upper, what: str) -> None:
    """L_j <= a_j^T x <= U_j for every row, with no tolerance."""
    x = np.asarray(x, dtype=float)
    for j in range(a_mat.shape[0]):
        s = float(a_mat[j] @ x)
        require(lower[j] <= s <= upper[j],
                f"{what}: row {j} gives {s!r}, outside [{lower[j]!r}, {upper[j]!r}]")


def check_certificate(lam, j_idx, normals, rhs, balls) -> None:
    """Farkas re-verification of an infeasibility certificate.

    Halfspaces are {y : c^T y >= b} with columns c of ``normals``.  With
    lam >= 0, C_J lam = 0 and lam^T b_J > 0 no point satisfies all of them;
    when each halfspace also contains one of the balls, the balls cannot
    intersect either.
    """
    lam = np.asarray(lam, dtype=float)
    c_mat = np.asarray(normals, dtype=float)
    b = np.asarray(rhs, dtype=float)
    j_idx = list(j_idx)
    require(len(j_idx) == lam.shape[0] and len(j_idx) > 0, "certificate: index and weight counts differ")
    require(bool(np.all(lam >= 0.0)), f"certificate: negative weight {float(lam.min()):.3e}")
    cols = c_mat[:, j_idx]
    resid = norm(cols @ lam)
    require(resid <= CERT_TOL * (1.0 + float(lam.sum())), f"certificate: ||C_J lam|| = {resid:.3e}")
    gap = float(lam @ b[j_idx])
    require(gap > 0.0, f"certificate: lam^T b_J = {gap:.3e} is not positive")
    for pos, j in enumerate(j_idx):
        c = cols[:, pos]
        margins = [float(c @ np.asarray(k["center"], dtype=float)) - float(k["radius"]) * norm(c) - b[j]
                   for k in balls]
        require(max(margins) >= -CERT_TOL * (1.0 + abs(b[j])),
                f"certificate: halfspace {j} contains neither ball (margin {max(margins):.3e})")


def check_cone(x, x0, a_mat, lower, upper, feas_tol: float, what: str) -> float:
    """x0 - x lies in the cone of the outward normals of the faces tight at x.

    Together with feasibility this is the optimality condition for the
    projection of x0 onto the slabs.  Returns the relative nnls residual.
    """
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    ax = a_mat @ x
    cols = []
    for j in range(a_mat.shape[0]):
        scale = TIGHT_TOL * (1.0 + abs(ax[j]))
        if math.isfinite(lower[j]) and abs(ax[j] - lower[j]) <= scale:
            cols.append(-a_mat[j])
        if math.isfinite(upper[j]) and abs(ax[j] - upper[j]) <= scale:
            cols.append(a_mat[j])
    w = x0 - x
    nw = norm(w)
    if nw <= feas_tol * (1.0 + norm(x0)):
        return 0.0  # x0 was already feasible
    require(bool(cols), f"{what}: x moved from x0 but no face is tight")
    _, resid = nnls(np.column_stack(cols), w)
    rel = resid / nw
    require(rel <= MAX_CONE_RESID, f"{what}: x0 - x leaves the normal cone (relative residual {rel:.3e})")
    return rel


def dykstra_slabs(x0, a_mat, lower, upper, projections: int) -> np.ndarray:
    """The iterate of cyclic Dykstra on the slabs after ``projections``
    projections, rows taken in order, one correction vector per row."""
    x = np.asarray(x0, dtype=float).copy()
    corrections = np.zeros_like(a_mat)
    norms2 = np.einsum("ij,ij->i", a_mat, a_mat)
    for k in range(projections):
        i = k % a_mat.shape[0]
        z = x + corrections[i]
        s = float(a_mat[i] @ z)
        target = min(max(s, lower[i]), upper[i])
        p = z + ((target - s) / norms2[i]) * a_mat[i]
        corrections[i] = z - p
        x = p
    return x


def check_dykstra(x, replay, x0, what: str) -> None:
    """x is the Dykstra iterate ``replay`` that ``dykstra_slabs`` computes
    for the same number of projections."""
    check_close(x, replay, DYKSTRA_REPLAY_TOL * (1.0 + norm(x0)), f"{what} against its replay")
