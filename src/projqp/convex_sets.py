"""Projectable convex sets and supporting-halfspace generation.

Each descriptor is an immutable dataclass with a cheap exact projection,
except ``Polyhedron`` which delegates to the active-set engine (through the
dimension reduction when the constraint count is small relative to the
ambient dimension).  Projecting an outside point yields a supporting
halfspace {y : c^T y >= b} that contains the set but not the point; the
outer solvers (``projqp.solvers``) accumulate those halfspaces.

Bounds use IEEE infinities for unbounded sides; arithmetic paths mask
non-finite bounds explicitly rather than computing with them.  A bound
that empties its set (a lower bound of +inf, an upper bound of -inf, a
halfspace b of +inf or NaN) is rejected at construction.

A halfspace or hyperslab checks its normal with one dot product,
``np.vdot(a, a)`` in ``_as_normal``.  A finite square proves every entry
finite.  A square of 0 rejects the normal as zero, as its root
``np.linalg.norm`` would, so [1e-200, 0], whose square underflows, is
rejected too.  Only a square that is not finite falls back to
``as_vector``, which tells an overflowed square (accepted; vdot, unlike
dot, raises no overflow warning) from a NaN or inf entry (rejected).
The projection onto such a set steps along the normal divided by its
largest entry (``linalg.step_along``, which ART's updates take too), so
it still lands on the set's face.

``project_set`` validates x and calls ``_project``, which trusts it; the
outer solvers validate their start once and call ``_project`` on the
iterates they build themselves.  ``_linear_project`` holds the one rule
of hyperslabs and halfspaces (a halfspace reads as the slab b <= c^T x <=
inf), exact membership test included, for ``_project`` and for the
solvers that skip a visit x does not need.  Where a^T x overflows, it
runs on the row over max|a| (``linalg.unit_row``, as ART3's update does).

The JSON problem schema is::

    {"sets": [{"type": "ball", "center": [...], "radius": r},
              {"type": "halfspace", "c": [...], "b": v},
              {"type": "box", "lower": [...], "upper": [...]},
              {"type": "hyperslab", "a": [...], "lower": l, "upper": u},
              {"type": "polyhedron", "c_mat": [[...]], "b": [...]}],
     "x0": [...]}

One table, ``_SCHEMA``, gives each set type's class and its fields in
document order, each with a writer and a reader: an array, one bound, or
an array of bounds.  ``set_to_dict`` and ``set_from_dict`` both read it,
and so does ``sets_to_dicts``, which writes many sets of one type from
their fields stacked column-wise, each field in one call.
Every bound (a ball's radius, a halfspace's b, a box's or hyperslab's
lower and upper) is written with infinities as the strings "inf"/"-inf",
so every document is strict JSON.  Everything here is finite dimensional.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat
from typing import Union

import numpy as np

from .activeset_qp import Infeasible, QpProblem, gi_solve, project_polyhedron_reduced
from .linalg import as_1d, as_bounds, as_matrix, as_vector, norm, step_along, unit_row


def _as_normal(x, name: str, kind: str) -> np.ndarray:
    """``as_vector`` for a nonzero normal, checked with one dot."""
    v = as_1d(x, name)
    sq = np.vdot(v, v)  # unlike dot, vdot raises no overflow warning
    if not math.isfinite(sq):
        as_vector(v, name)  # raises on a NaN or inf entry; an overflowed square passes
    elif sq == 0.0:
        raise ValueError(f"{kind} normal must be nonzero")
    return v


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center, "center"))
        radius = float(self.radius)
        if not radius > 0.0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "radius", radius)

    @property
    def dim(self) -> int:
        return self.center.shape[0]


class _LinearSet:
    """A set lower <= a^T x <= upper, the one form that ``_linear_project``
    and the solvers' screen read: a hyperslab, or a halfspace as a slab."""

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @cached_property
    def _a_sq(self) -> float:
        return float(np.vdot(self.a, self.a))  # inf, with no warning, where it overflows


@dataclass(frozen=True)
class Halfspace(_LinearSet):
    """{x : c^T x >= b}, read as the slab b <= c^T x <= inf: ``a`` is c
    and ``lower`` is b (attributes, not fields), and ``upper`` is inf"""

    c: np.ndarray
    b: float
    upper = math.inf

    def __post_init__(self):
        object.__setattr__(self, "c", _as_normal(self.c, "c", "halfspace"))
        b = float(self.b)
        if not b < math.inf:
            raise ValueError(f"halfspace requires b < inf, got {b}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", self.c)
        object.__setattr__(self, "lower", b)


@dataclass(frozen=True)
class Box:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_1d(self.lower, "lower")
        lo, up = as_bounds(lo, self.upper, lo.shape, "box")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True)
class Hyperslab(_LinearSet):
    """{x : lower <= a^T x <= upper}"""

    a: np.ndarray
    lower: float
    upper: float

    def __post_init__(self):
        object.__setattr__(self, "a", _as_normal(self.a, "a", "hyperslab"))
        lo, up = float(self.lower), float(self.upper)
        if not lo <= up:
            raise ValueError("hyperslab requires lower <= upper")
        if lo == math.inf or up == -math.inf:
            raise ValueError("hyperslab requires lower < inf and upper > -inf")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)


@dataclass(frozen=True)
class Polyhedron:
    """{x : C^T x >= b}, nonempty, with a nonzero normal in each column of C.

    A column is zero when its ``np.linalg.norm`` is 0.0, the test
    ``gi_solve`` makes, and one ``gi_solve`` from the origin decides
    emptiness.
    """

    c_mat: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c_mat", as_matrix(self.c_mat, "c_mat"))
        object.__setattr__(self, "b", as_vector(self.b, "b"))
        if self.c_mat.shape[1] != self.b.shape[0]:
            raise ValueError("C and b sizes disagree")
        if 0.0 in np.linalg.norm(self.c_mat, axis=0).tolist():
            raise ValueError("polyhedron normals (the columns of c_mat) must be nonzero")
        if isinstance(gi_solve(QpProblem(np.zeros(self.dim), self.c_mat, self.b)), Infeasible):
            raise ValueError("polyhedron is empty")

    @property
    def dim(self) -> int:
        return self.c_mat.shape[0]


ConvexSet = Union[Ball, Halfspace, Box, Hyperslab, Polyhedron]


# a far x's squared norm may overflow; ``norm`` measures it scaled
@np.errstate(over="ignore")
def project_set(k: ConvexSet, x) -> np.ndarray:
    """Projection of x onto k; idempotent and nonexpansive."""
    x = as_vector(x, "x")
    if x.shape[0] != k.dim:
        raise ValueError(f"x has dimension {x.shape[0]}, but the set has dimension {k.dim}")
    return _project(k, x)


def _project(k: ConvexSet, x: np.ndarray) -> np.ndarray:
    """``project_set`` for an x already validated: a finite 1-d float array."""
    if isinstance(k, Ball):
        d = x - k.center
        nd = norm(d)
        if nd <= k.radius:
            return x.copy()
        return k.center + (k.radius / nd) * d
    if isinstance(k, (Halfspace, Hyperslab)):
        p = _linear_project(k, x)
        return x.copy() if p is None else p
    if isinstance(k, Box):
        return np.clip(x, k.lower, k.upper)
    if isinstance(k, Polyhedron):
        n, cols = k.c_mat.shape
        if cols < n / 2:
            return project_polyhedron_reduced(x, k.c_mat, k.b)
        res = gi_solve(QpProblem(x, k.c_mat, k.b))
        if isinstance(res, Infeasible):
            raise ValueError("polyhedron is empty")
        return res.x
    raise TypeError(f"unknown set descriptor {type(k)!r}")


def _linear_project(k: Halfspace | Hyperslab, x: np.ndarray) -> np.ndarray | None:
    """The projection of x onto the slab lower <= a.x <= upper k, or None
    when x is inside k and ``_project`` returns a copy of x.

    The test is exact: x is inside when lower <= s <= upper, s = a.x;
    else the step moves s to the bound it violates.  Where s is not
    finite, the rule runs on the row and bounds over max|a|
    (``linalg.unit_row``); where that dot is still not finite and outside
    the bounds, the projection is not finite.
    """
    s = float(k.a.dot(x))
    if k.lower <= s <= k.upper:
        return None
    if math.isfinite(s):
        return step_along(x, k.a, (k.lower if s < k.lower else k.upper) - s, k._a_sq)
    a, lo, up, s = unit_row(k.a, k.lower, k.upper, x)
    return None if lo <= s <= up else step_along(x, a, (lo if s < lo else up) - s, float(np.vdot(a, a)))


# ---------------------------------------------------------------------------
# JSON problem files


def _encode_value(v: float):
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return float(v)


def _encode_bounds(a: np.ndarray) -> list:
    return [_encode_value(v) for v in a.tolist()]


# a field's (writer, reader, column writer): an array, one bound, or an array
# of bounds.  The column writer writes the field of many sets, their values
# stacked along a new first axis, as a list of what the writer writes for
# each; ``float`` reads "inf" and "-inf" as the infinities
_ARRAY = (np.ndarray.tolist, partial(np.asarray, dtype=float), np.ndarray.tolist)
_BOUND = (_encode_value, float, _encode_bounds)
_BOUNDS = (_encode_bounds, lambda v: np.array([float(u) for u in v]),
           lambda col: [_encode_bounds(row) for row in col])

# each set type's class and fields, in document order
_SCHEMA = {
    "ball": (Ball, (("center", _ARRAY), ("radius", _BOUND))),
    "halfspace": (Halfspace, (("c", _ARRAY), ("b", _BOUND))),
    "box": (Box, (("lower", _BOUNDS), ("upper", _BOUNDS))),
    "hyperslab": (Hyperslab, (("a", _ARRAY), ("lower", _BOUND), ("upper", _BOUND))),
    "polyhedron": (Polyhedron, (("c_mat", _ARRAY), ("b", _ARRAY))),
}
_TYPE_NAME = {cls: name for name, (cls, _) in _SCHEMA.items()}


def set_to_dict(k: ConvexSet) -> dict:
    name = _TYPE_NAME.get(type(k))
    if name is None:
        raise TypeError(f"unknown set descriptor {type(k)!r}")
    doc = {"type": name}
    for key, (write, _, _) in _SCHEMA[name][1]:
        doc[key] = write(getattr(k, key))
    return doc


def sets_to_dicts(name: str, columns: dict) -> list[dict]:
    """``set_to_dict`` of each of several sets of type ``name``, given by
    their fields stacked column-wise: ``columns[key][i]`` is field ``key``
    of set i.  The sets are not checked; the caller checks the columns."""
    fields = _SCHEMA[name][1]
    keys = ("type",) + tuple(key for key, _ in fields)
    values = [write_column(columns[key]) for key, (_, _, write_column) in fields]
    return [dict(zip(keys, row)) for row in zip(repeat(name), *values)]


def set_from_dict(d: dict) -> ConvexSet:
    kind = d.get("type")
    if not (isinstance(kind, str) and kind in _SCHEMA):
        raise ValueError(f"unknown set type {kind!r}")
    cls, fields = _SCHEMA[kind]
    return cls(*[read(d[key]) for key, (_, read, _) in fields])


def problem_to_dict(sets, x0, **extras) -> dict:
    return problem_document([set_to_dict(k) for k in sets], x0, **extras)


def problem_document(set_dicts: list[dict], x0, **extras) -> dict:
    """``problem_to_dict`` of sets already written as dicts."""
    doc = {"sets": set_dicts, "x0": np.asarray(x0, dtype=float).tolist()}
    for key, value in extras.items():
        if value is None:
            doc[key] = None
        elif isinstance(value, (list, tuple, np.ndarray)):
            doc[key] = np.asarray(value, dtype=float).tolist()
        else:
            doc[key] = value
    return doc


def _document_fault(doc) -> str | None:
    """Where a problem document that failed to load goes wrong; None if only x0 can."""
    if not isinstance(doc, dict):
        return "a problem document must be a JSON object"
    for key in ("sets", "x0"):
        if key not in doc:
            return f'missing "{key}"'
    if not isinstance(doc["sets"], (list, tuple)):
        return '"sets" must be a list'
    for i, d in enumerate(doc["sets"]):
        if not isinstance(d, dict):
            return f"sets[{i}]: a set must be a JSON object"
        try:
            set_from_dict(d)
        except KeyError as exc:
            return f'sets[{i}]: missing "{exc.args[0]}"'
        except (OverflowError, TypeError, ValueError) as exc:
            return f"sets[{i}]: {exc}"
    return None


def problem_from_dict(doc: dict) -> tuple[list[ConvexSet], np.ndarray, dict]:
    """The sets, x0 and other entries of a problem document; a malformed one
    raises a ``ValueError`` that says where, as ``sets[0]: missing "radius"``."""
    try:
        sets = [set_from_dict(d) for d in doc["sets"]]
        x0 = np.asarray(doc["x0"], dtype=float)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(_document_fault(doc) or f"x0: {exc}") from None
    extras = {k: v for k, v in doc.items() if k not in ("sets", "x0")}
    return sets, x0, extras


def save_problem(path, sets, x0, **extras) -> None:
    save_problem_dict(path, problem_to_dict(sets, x0, **extras))


def save_problem_dict(path, doc: dict) -> None:
    """Write a problem document as ``save_problem`` does, in one write."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def load_problem(path) -> tuple[list[ConvexSet], np.ndarray, dict]:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))
