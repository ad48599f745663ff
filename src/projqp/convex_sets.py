"""Projectable convex sets and supporting-halfspace generation.

Each descriptor is an immutable dataclass with a cheap exact projection,
except ``Polyhedron`` which delegates to the active-set engine (through the
dimension reduction when the constraint count is small relative to the
ambient dimension).  Projecting an outside point yields a supporting
halfspace {y : c^T y >= b} that contains the set but not the point; the
outer solvers (``projqp.solvers``) accumulate those halfspaces.

Bounds use IEEE infinities for unbounded sides; arithmetic paths mask
non-finite bounds explicitly rather than computing with them.

The JSON problem schema is::

    {"sets": [{"type": "ball", "center": [...], "radius": r},
              {"type": "halfspace", "c": [...], "b": v},
              {"type": "box", "lower": [...], "upper": [...]},
              {"type": "hyperslab", "a": [...], "lower": l, "upper": u},
              {"type": "polyhedron", "c_mat": [[...]], "b": [...]}],
     "x0": [...]}

with infinities encoded as the strings "inf"/"-inf".  Everything here is
finite dimensional.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .activeset_qp import GiOptions, Infeasible, QpProblem, gi_solve, project_polyhedron_reduced
from .linalg import as_matrix, as_vector


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center, "center"))
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True)
class Halfspace:
    """{x : c^T x >= b}"""

    c: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "c", as_vector(self.c, "c"))
        if float(np.linalg.norm(self.c)) == 0.0:
            raise ValueError("halfspace normal must be nonzero")

    @property
    def dim(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class Box:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if lo.shape != up.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-d of equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(up)):
            raise ValueError("box bounds must not be NaN")
        if np.any(lo > up):
            raise ValueError("box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True)
class Hyperslab:
    """{x : lower <= a^T x <= upper}"""

    a: np.ndarray
    lower: float
    upper: float

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a, "a"))
        if float(np.linalg.norm(self.a)) == 0.0:
            raise ValueError("hyperslab normal must be nonzero")
        if not self.lower <= self.upper:
            raise ValueError("hyperslab requires lower <= upper")

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class Polyhedron:
    """{x : C^T x >= b}"""

    c_mat: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c_mat", as_matrix(self.c_mat, "c_mat"))
        object.__setattr__(self, "b", as_vector(self.b, "b"))
        if self.c_mat.shape[1] != self.b.shape[0]:
            raise ValueError("C and b sizes disagree")

    @property
    def dim(self) -> int:
        return self.c_mat.shape[0]


ConvexSet = Union[Ball, Halfspace, Box, Hyperslab, Polyhedron]


def project_set(k: ConvexSet, x) -> np.ndarray:
    """Projection of x onto k; idempotent and nonexpansive."""
    x = as_vector(x, "x")
    if isinstance(k, Ball):
        d = x - k.center
        nd = math.sqrt(float(d.dot(d)))
        if nd <= k.radius:
            return x.copy()
        return k.center + (k.radius / nd) * d
    if isinstance(k, Halfspace):
        gap = k.b - float(k.c @ x)
        if gap <= 0.0:
            return x.copy()
        return x + (gap / float(k.c @ k.c)) * k.c
    if isinstance(k, Box):
        return np.clip(x, k.lower, k.upper)
    if isinstance(k, Hyperslab):
        s = float(k.a @ x)
        target = min(max(s, k.lower), k.upper)
        if target == s:
            return x.copy()
        return x + ((target - s) / float(k.a @ k.a)) * k.a
    if isinstance(k, Polyhedron):
        n, cols = k.c_mat.shape
        if cols < n / 2:
            return project_polyhedron_reduced(x, k.c_mat, k.b)
        res = gi_solve(QpProblem(x, k.c_mat, k.b), GiOptions())
        if isinstance(res, Infeasible):
            raise ValueError("polyhedron is empty")
        return res.x
    raise TypeError(f"unknown set descriptor {type(k)!r}")


def contains(k: ConvexSet, x, tol: float = 1e-9) -> bool:
    x = as_vector(x, "x")
    return float(np.linalg.norm(x - project_set(k, x))) <= tol


# ---------------------------------------------------------------------------
# JSON problem files


def _encode_value(v: float):
    if np.isposinf(v):
        return "inf"
    if np.isneginf(v):
        return "-inf"
    return float(v)


def _decode_value(v) -> float:
    if v == "inf":
        return np.inf
    if v == "-inf":
        return -np.inf
    return float(v)


def set_to_dict(k: ConvexSet) -> dict:
    if isinstance(k, Ball):
        return {"type": "ball", "center": [float(v) for v in k.center], "radius": float(k.radius)}
    if isinstance(k, Halfspace):
        return {"type": "halfspace", "c": [float(v) for v in k.c], "b": float(k.b)}
    if isinstance(k, Box):
        return {
            "type": "box",
            "lower": [_encode_value(v) for v in k.lower],
            "upper": [_encode_value(v) for v in k.upper],
        }
    if isinstance(k, Hyperslab):
        return {
            "type": "hyperslab",
            "a": [float(v) for v in k.a],
            "lower": _encode_value(k.lower),
            "upper": _encode_value(k.upper),
        }
    if isinstance(k, Polyhedron):
        return {
            "type": "polyhedron",
            "c_mat": [[float(v) for v in row] for row in k.c_mat],
            "b": [float(v) for v in k.b],
        }
    raise TypeError(f"unknown set descriptor {type(k)!r}")


def set_from_dict(d: dict) -> ConvexSet:
    kind = d.get("type")
    if kind == "ball":
        return Ball(np.asarray(d["center"], dtype=float), float(d["radius"]))
    if kind == "halfspace":
        return Halfspace(np.asarray(d["c"], dtype=float), float(d["b"]))
    if kind == "box":
        return Box(
            np.array([_decode_value(v) for v in d["lower"]]),
            np.array([_decode_value(v) for v in d["upper"]]),
        )
    if kind == "hyperslab":
        return Hyperslab(
            np.asarray(d["a"], dtype=float),
            _decode_value(d["lower"]),
            _decode_value(d["upper"]),
        )
    if kind == "polyhedron":
        return Polyhedron(np.asarray(d["c_mat"], dtype=float), np.asarray(d["b"], dtype=float))
    raise ValueError(f"unknown set type {kind!r}")


def problem_to_dict(sets, x0, **extras) -> dict:
    doc = {"sets": [set_to_dict(k) for k in sets], "x0": [float(v) for v in x0]}
    for key, value in extras.items():
        if value is None:
            doc[key] = None
        elif isinstance(value, (list, tuple, np.ndarray)):
            doc[key] = [float(v) for v in value]
        else:
            doc[key] = value
    return doc


def problem_from_dict(doc: dict) -> tuple[list[ConvexSet], np.ndarray, dict]:
    sets = [set_from_dict(d) for d in doc["sets"]]
    x0 = np.asarray(doc["x0"], dtype=float)
    extras = {k: v for k, v in doc.items() if k not in ("sets", "x0")}
    return sets, x0, extras


def save_problem(path, sets, x0, **extras) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_dict(sets, x0, **extras), fh, indent=2)
        fh.write("\n")


def load_problem(path) -> tuple[list[ConvexSet], np.ndarray, dict]:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))
