"""Exact solver for one box plus one violated halfspace.

Projects x* (already inside the box) onto {L <= x <= U, c_p^T x >= b_hat}.
Because box normals are orthogonal, the optimal step direction is read off
componentwise: coordinates pressed against the bound they would leave stay
put, everything else moves along c_p.  Each pass either reaches the
halfspace or makes at least one new bound tight, so the loop ends after at
most n+1 passes, with d = 0 certifying infeasibility (c_p is then in the
normal cone of the box where c_p^T x is maximal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_bounds, as_vector, norm

FEAS_TOL = 1e-9


@dataclass(frozen=True)
class BoxQp:
    """Problem data; bounds may be +-inf, x* must satisfy them."""

    x_star: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    c_p: np.ndarray
    b_hat: float

    def __post_init__(self):
        x = as_vector(self.x_star, "x_star")
        c = as_vector(self.c_p, "c_p")
        lo, up = as_bounds(self.lower, self.upper, x.shape, "box QP")
        if c.shape != x.shape:
            raise ValueError(f"c_p has dimension {c.shape[0]}, but x_star has dimension {x.shape[0]}")
        if np.any(x < lo - FEAS_TOL * (1.0 + np.abs(lo))) or np.any(
            x > up + FEAS_TOL * (1.0 + np.abs(up))
        ):
            raise ValueError("x_star must lie in the box")
        object.__setattr__(self, "x_star", x)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "c_p", c)
        object.__setattr__(self, "b_hat", float(self.b_hat))


@dataclass(frozen=True)
class BoxQpResult:
    feasible: bool
    x: np.ndarray | None
    trace: tuple[tuple[np.ndarray, np.ndarray | None], ...]
    """Pairs (x_tilde_j, y_j); y_0 pairs with x_tilde_1 and so on."""


def _tight(x, bound, pushing, upper: bool) -> np.ndarray:
    """Mask of the coordinates where ``pushing`` holds and x sits at its
    finite upper (or lower) ``bound`` within FEAS_TOL.  Infinite bounds are
    never tight."""
    out = np.zeros(x.shape, dtype=bool)
    finite = np.isfinite(bound)
    if np.any(finite):
        bf = bound[finite]
        slack = FEAS_TOL * (1.0 + np.abs(bf))
        out[finite] = pushing[finite] & (x[finite] >= bf - slack if upper else x[finite] <= bf + slack)
    return out


def box_step_direction(x_tilde, c_p, lower, upper) -> np.ndarray:
    """Componentwise step direction: d_i = 0 where moving along (c_p)_i
    would leave the box, else d_i = (c_p)_i (zero components stay zero)."""
    x = np.asarray(x_tilde, dtype=float)
    c = np.asarray(c_p, dtype=float)
    lo = np.asarray(lower, dtype=float)
    up = np.asarray(upper, dtype=float)
    d = c.copy()
    d[_tight(x, up, c > 0.0, True) | _tight(x, lo, c < 0.0, False)] = 0.0
    return d


def solve_box_qp(p: BoxQp) -> BoxQpResult:
    """Run the box algorithm to optimality, keeping the (x~, y) trace."""
    x = p.x_star.copy()
    trace: list[tuple[np.ndarray, np.ndarray | None]] = [(x.copy(), None)]
    cap = p.x_star.shape[0] + 1
    scale = 1.0 + abs(p.b_hat)
    passes = 0
    while float(p.c_p @ x) < p.b_hat - FEAS_TOL * scale:
        if passes > cap:
            raise RuntimeError("box solver exceeded its finite pass bound")
        d = box_step_direction(x, p.c_p, p.lower, p.upper)
        nd = norm(d)
        if nd <= FEAS_TOL * (1.0 + norm(p.c_p)):
            return BoxQpResult(False, None, tuple(trace))
        t2 = (p.b_hat - float(p.c_p @ x)) / float(p.c_p @ d)
        y = x + t2 * d
        x = np.clip(y, p.lower, p.upper)
        trace.append((x.copy(), y))
        passes += 1
    return BoxQpResult(True, x, tuple(trace))


def box_infeasibility_system(p: BoxQp, x_tilde) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Farkas witness over the finite box faces plus c_p at a d = 0 point.

    Returns (C, b, lam): columns are the active face normals (e_i for lower
    faces, -e_i for upper) and c_p, with lam >= 0, C lam = 0 and
    lam^T b > 0 whenever c_p^T x_tilde < b_hat.
    """
    n = np.asarray(x_tilde).shape[0]
    c = p.c_p
    pushes_up = c > 0.0
    faces = np.flatnonzero(pushes_up | (c < 0.0))
    at_upper = pushes_up[faces]
    cols = np.eye(n)[:, faces] * np.where(at_upper, -1.0, 1.0)
    rhs = np.where(at_upper, -p.upper[faces], p.lower[faces])
    return np.column_stack([cols, c]), np.append(rhs, p.b_hat), np.append(np.abs(c[faces]), 1.0)
