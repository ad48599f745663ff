"""Contracts that code outside the solvers relies on.

The benchmark (``perfbench/``) traces 26 functions by name and sums the
``outer_iterations``, ``inner_steps`` and ``projections`` counts of every
report; the CLI offers the registered methods.  These tests keep a rename
or a dropped count key from passing tier-1 unnoticed.  The settable values
of the options objects and of the engine and ART entry points are pinned
too, so a change that adds a knob has to edit this file in plain view.
The generator's documents rely on numpy drawing uniform(lo, hi) as
lo + (hi - lo) * random(); a numpy that draws otherwise fails here by name.
"""

import argparse
import dataclasses
import importlib.util
import inspect
import json
import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

# the tracer resolves its names in these modules, so each must be imported
from projqp import activeset_qp, art, bench, box_qp, cli, convex_sets, linalg, solvers  # noqa: F401
from projqp.bench import generate_problem, hyperslab_system_from_sets, two_circles_sets
from projqp.convex_sets import Ball, Box, Halfspace, problem_from_dict, set_to_dict
from projqp.solvers import _METHODS, SolveReport, SolverOptions, TraceRow, solve

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

GI_KEYS = ["projections", "inner_steps", "outer_iterations"]
COUNT_KEYS = {
    "bap-gi": GI_KEYS,
    "sip-gi": GI_KEYS,
    "map": ["projections"],
    "dykstra": ["projections", "cycles"],
    "haugazeau": ["projections", "inner_steps"],
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_resolves_every_traced_name():
    tracer = load_tracer()
    assert len(tracer.traced_names()) == 26
    built = tracer.Tracer()  # resolves each traced name and finds where it is looked up
    assert built.names == tracer.traced_names()


@pytest.mark.parametrize("method", sorted(COUNT_KEYS))
def test_report_count_keys(method):
    x0 = np.array([0.0, 10.0])
    rep = solve(method, x0, two_circles_sets(), SolverOptions(max_outer_iters=50))
    assert list(rep.counts) == COUNT_KEYS[method]


@pytest.mark.parametrize("method", ["bap-gi", "sip-gi"])
def test_infeasible_report_count_keys(method):
    sets = [Ball(np.array([3.0, 0.0]), 1.0), Ball(np.array([-3.0, 0.0]), 1.0)]
    rep = solve(method, np.array([0.0, 10.0]), sets, SolverOptions(max_outer_iters=200))
    assert rep.status == "infeasible"
    assert list(rep.counts) == GI_KEYS


# the benchmark reads store sizes from any report that has "store_rhs":
# Haugazeau's report keeps to its own keys, with no store extras
HAUGAZEAU_CASES = {
    "iteration_limit": (np.array([0.0, 10.0]), two_circles_sets()),
    "infeasible": (np.zeros(2), [Ball(np.array([3.0, 0.0]), 1.0), Ball(np.array([-3.0, 0.0]), 1.0)]),
}


@pytest.mark.parametrize("status", sorted(HAUGAZEAU_CASES))
def test_haugazeau_json_keys(status):
    x0, sets = HAUGAZEAU_CASES[status]
    doc = solve("haugazeau", x0, sets, SolverOptions(max_outer_iters=50)).to_json_dict()
    assert doc["status"] == status
    assert list(doc) == ["status", "x", "counts", "rows"] + (["certificate"] if status == "infeasible" else [])
    assert list(doc["counts"]) == COUNT_KEYS["haugazeau"]


def test_sip_box_path_count_keys():
    sets = [Box(np.zeros(2), np.ones(2)), Ball(np.array([1.5, 1.5]), 1.0)]
    rep = solve("sip-gi", np.array([3.0, -1.0]), sets)
    assert list(rep.counts) == GI_KEYS + ["box_solves"]


def test_art_count_keys():
    sets, x0, extras = problem_from_dict(generate_problem("hyperslabs-with-interior", 3, 5, 2))
    system = hyperslab_system_from_sets(sets)
    assert list(art.art3_solve(x0, system).counts) == ["iterations"]
    rep = art.extended_art_solve(x0, system, witness=extras["witness"])
    assert list(rep.counts) == ["iterations", "p_circ", "p_times", "p_plus", "inner_steps", "reanchor"]


TWO_BALLS = [Ball(np.array([3.0, 0.0]), 1.0), Ball(np.array([-3.0, 0.0]), 1.0)]


def art_report(solver):
    sets, x0, extras = problem_from_dict(generate_problem("hyperslabs-with-interior", 3, 5, 2))
    system = hyperslab_system_from_sets(sets)
    return solver(x0, system) if solver is art.art3_solve else solver(x0, system, witness=extras["witness"])


# one report of each method and path, each with the extras it writes
JSON_REPORTS = {
    **{method: partial(solve, method, np.array([0.0, 10.0]), two_circles_sets(), SolverOptions(max_outer_iters=50))
       for method in _METHODS},
    "sip-gi box": partial(solve, "sip-gi", np.array([3.0, -1.0]),
                          [Box(np.zeros(2), np.ones(2)), Ball(np.array([1.5, 1.5]), 1.0)]),
    "art3": partial(art_report, art.art3_solve),
    "ext-art": partial(art_report, art.extended_art_solve),
    **{f"{method} infeasible": partial(solve, method, np.zeros(2), TWO_BALLS, SolverOptions(max_outer_iters=200))
       for method in ("bap-gi", "sip-gi", "haugazeau")},
}


@pytest.mark.parametrize("name", list(JSON_REPORTS))
def test_json_writes_every_extra(name):
    # an extra json cannot write fails in json.dumps rather than vanishing
    rep = JSON_REPORTS[name]()
    assert (rep.status == "infeasible") == name.endswith("infeasible")
    doc = rep.to_json_dict()
    assert set(rep.extras) <= set(doc)
    assert json.loads(rep.to_json()) == doc


def method_choices(command: str) -> list[str]:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(next(a.choices for a in sub.choices[command]._actions if a.dest == "method"))


def test_cli_methods_are_the_registry():
    assert method_choices("solve") == [*_METHODS, "art3", "ext-art"]
    assert method_choices("two-circles") == list(_METHODS)


def test_two_circles_caps_cover_the_registry():
    assert set(bench.METHOD_DEFAULT_ITERS) == set(_METHODS)


def test_option_fields_are_pinned():
    assert list(SolverOptions.__dataclass_fields__) == [
        "feas_tol", "max_outer_iters", "max_store", "record_iterates",
    ]
    assert art.STEP_BY_CASE == {2: "circ", 3: "plus", 4: "times", 5: "times"}


def test_halfspace_keeps_its_fields_and_document():
    # the projection and the screen read a halfspace as the slab b <= c.x <= inf
    # through attributes that are not fields; its fields, document and
    # messages stay its own
    assert [f.name for f in dataclasses.fields(Halfspace)] == ["c", "b"]
    h = Halfspace([1.0, -2.0], -math.inf)
    assert (h.a is h.c, h.lower, h.upper) == (True, -math.inf, math.inf)
    assert set_to_dict(h) == {"type": "halfspace", "c": [1.0, -2.0], "b": "-inf"}
    with pytest.raises(ValueError, match="halfspace requires b < inf, got inf"):
        Halfspace([1.0, 0.0], math.inf)
    with pytest.raises(ValueError, match="halfspace normal must be nonzero"):
        Halfspace([0.0, 0.0], 0.0)


@pytest.mark.parametrize("cls", [TraceRow, SolveReport])
def test_reports_are_slotted(cls):
    # a trace keeps one row per visit: each row stores its fields inline
    assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))
    rep = solve("map", np.array([0.0, 10.0]), two_circles_sets())
    for obj in (rep, *rep.rows):
        assert not hasattr(obj, "__dict__")


def test_trace_row_fields_are_pinned():
    # the JSON and CSV writers and run_two_circles read these, in this order
    fields = [(f.name, f.default) for f in dataclasses.fields(TraceRow)]
    assert fields == [("iteration", dataclasses.MISSING), ("dist", dataclasses.MISSING),
                      ("measure1", dataclasses.MISSING), ("measure2", dataclasses.MISSING),
                      ("events", ()), ("x", None)]


PINNED_PARAMETERS = [
    (activeset_qp.gi_solve, ["qp"]),
    (activeset_qp.inner_gi_step, ["s", "p", "qp", "monitor"]),
    (activeset_qp.degenerate_inner_gi_step, ["s", "p", "qp"]),
    (activeset_qp.check_s_tuple, ["s", "qp", "where", "monitor"]),
    (activeset_qp.verify_certificate, ["cert", "qp_or_c_mat", "b"]),
    (art.art3_solve, ["x0", "system", "max_iters"]),
    (art.extended_art_solve, ["x0", "system", "max_iters", "witness"]),
    (box_qp.solve_box_qp, ["p"]),
    (solvers._cyclic, ["x0", "x", "sets", "opts", "counts", "step"]),
]


@pytest.mark.parametrize("fn, params", PINNED_PARAMETERS, ids=[fn.__name__ for fn, _ in PINNED_PARAMETERS])
def test_entry_point_parameters_are_pinned(fn, params):
    assert list(inspect.signature(fn).parameters) == params


# every vector length of these modules is ``linalg.norm``; column norms
# (``axis=``) are another rule, and the suites in ``bench`` and ``oracles``
# are independent references that measure their own
LENGTH_MODULES = [activeset_qp, art, box_qp, convex_sets, solvers]


@pytest.mark.parametrize("module", LENGTH_MODULES, ids=[m.__name__ for m in LENGTH_MODULES])
def test_vector_lengths_go_through_linalg_norm(module):
    hand = [line.strip() for line in inspect.getsource(module).splitlines()
            if "np.linalg.norm(" in line and "axis=" not in line or re.search(r"sqrt\(.*\.dot\(", line)]
    assert hand == []


@pytest.mark.parametrize("lo, hi", [(0.5, 2.0), (0.0, 1.0)])
def test_uniform_is_the_affine_map_of_random(lo, hi):
    # ``generate_problem`` draws a slab's three uniforms with one random(3)
    # and maps them as numpy maps uniform(lo, hi), keeping every document
    drawn, mapped = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(20_000):
        assert float(drawn.uniform(lo, hi)) == lo + (hi - lo) * float(mapped.random())
