"""Contracts that code outside the solvers relies on.

The benchmark (``perfbench/``) traces 26 functions by name and sums the
``outer_iterations``, ``inner_steps`` and ``projections`` counts of every
report; the CLI offers the registered methods.  These tests keep a rename
or a dropped count key from passing tier-1 unnoticed.
"""

import argparse
import importlib.util
from pathlib import Path

import numpy as np
import pytest

# the tracer resolves its names in these modules, so each must be imported
from projqp import activeset_qp, art, bench, box_qp, cli, convex_sets, linalg, solvers  # noqa: F401
from projqp.bench import generate_problem, hyperslab_system_from_sets, two_circles_sets
from projqp.convex_sets import Ball, Box, problem_from_dict
from projqp.solvers import _METHODS, SolverOptions, solve

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


def method_choices(command: str) -> list[str]:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(next(a.choices for a in sub.choices[command]._actions if a.dest == "method"))


def test_cli_methods_are_the_registry():
    assert method_choices("solve") == [*_METHODS, "art3", "ext-art"]
    assert method_choices("two-circles") == list(_METHODS)


def test_two_circles_caps_cover_the_registry():
    assert set(bench.METHOD_DEFAULT_ITERS) == set(_METHODS)
