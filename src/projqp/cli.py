"""Command line interface.

Subcommands: ``two-circles`` (benchmark table for one method), ``solve``
(run a method on a problem file), ``gen`` (write a random problem), and
``oracle-suite`` (randomized equivalence suites).  Exit codes: 0 solved or
suites passed, 2 infeasible, 3 iteration limit, 1 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench
from .art import HyperslabSystem, extended_art_solve, art3_solve, load_system
from .convex_sets import load_problem, save_problem, problem_from_dict
from .solvers import _METHODS, SolveReport, SolverOptions, solve as solve_dispatch

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_ITERATION_LIMIT = 3

STATUS_EXIT = {"solved": EXIT_OK, "infeasible": EXIT_INFEASIBLE, "iteration_limit": EXIT_ITERATION_LIMIT}

ART_METHODS = ("art3", "ext-art")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="projqp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_tc = sub.add_parser("two-circles", help="reproduce the two-circles benchmark")
    p_tc.add_argument("--method", required=True, choices=list(_METHODS))
    p_tc.add_argument("--max-iter", type=int, default=None)
    p_tc.add_argument("--out", default=None, help="write the measure table as CSV")
    p_tc.add_argument("--json", dest="json_out", default=None, help="write the full report as JSON")

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--method", required=True, choices=[*_METHODS, *ART_METHODS])
    p_solve.add_argument("--tol", type=float, default=1e-9)
    p_solve.add_argument("--max-iter", type=int, default=None)
    p_solve.add_argument("--out", default=None, help="write the trace as CSV")
    p_solve.add_argument("--json", dest="json_out", default=None, help="write the report as JSON")

    p_gen = sub.add_parser("gen", help="generate a random problem file")
    p_gen.add_argument("--kind", required=True, choices=bench.GENERATOR_KINDS)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)

    p_suite = sub.add_parser("oracle-suite", help="run the randomized equivalence suites")
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--suite", action="append", choices=list(bench.ALL_SUITES), default=None)
    return parser


def _emit_report(report: SolveReport, out, json_out) -> None:
    if out:
        report.write_csv(out)
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(report.to_json() + "\n")


def _cmd_two_circles(args) -> int:
    report, rows = bench.run_two_circles(args.method, max_iter=args.max_iter)
    print(f"method={args.method} status={report.status}")
    print("iter  dist         measure1   measure2")
    show = rows if len(rows) <= 14 else rows[:12] + rows[-2:]
    for r in show:
        m1 = "" if r.measure1 is None else f"{r.measure1:+.3f}"
        m2 = "" if r.measure2 is None else f"{r.measure2:+.3f}"
        print(f"{r.iteration:5d} {r.dist:.5e} {m1:>9s} {m2:>9s}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(bench.measure_rows_to_csv(rows)) + "\n")
    _emit_report(report, None, args.json_out)
    return STATUS_EXIT[report.status]


def _load_any_problem(path: str):
    if path.endswith(".json"):
        return load_problem(path)
    system = load_system(path)
    return system, None, {}


def _cmd_solve(args) -> int:
    loaded, x0, extras = _load_any_problem(args.problem)
    max_iter = args.max_iter
    if args.method in ART_METHODS:
        if isinstance(loaded, HyperslabSystem):
            system = loaded
        else:
            system = bench.hyperslab_system_from_sets(loaded)
        if x0 is None:
            x0 = np.zeros(system.n)
        cap = max_iter if max_iter is not None else 100_000
        witness = extras.get("witness")
        if args.method == "art3":
            report = art3_solve(x0, system, max_iters=cap)
        else:
            report = extended_art_solve(x0, system, max_iters=cap, witness=witness)
    else:
        if isinstance(loaded, HyperslabSystem):
            print("set-based methods need a JSON problem file", file=sys.stderr)
            return EXIT_USAGE
        if x0 is None:
            print("problem file lacks x0", file=sys.stderr)
            return EXIT_USAGE
        opts = SolverOptions(
            feas_tol=args.tol,
            max_outer_iters=max_iter if max_iter is not None else 1000,
        )
        report = solve_dispatch(args.method, x0, loaded, opts)
    # the ART solvers count their iterations; a set solver's trace has a row per step
    iters = report.counts.get("iterations", len(report.rows) - 1)
    print(f"method={args.method} status={report.status} iters={iters}")
    print("x =", np.array2string(np.asarray(report.x), precision=9))
    _emit_report(report, args.out, args.json_out)
    return STATUS_EXIT[report.status]


def _cmd_gen(args) -> int:
    doc = bench.generate_problem(args.kind, args.n, args.count, args.seed)
    sets, x0, extras = problem_from_dict(doc)
    save_problem(args.out, sets, x0, **extras)
    print(f"wrote {args.out} ({args.kind}, n={args.n}, count={args.count}, seed={args.seed})")
    return EXIT_OK


def _cmd_oracle_suite(args) -> int:
    results = bench.run_oracle_suites(seed=args.seed, names=args.suite)
    all_pass = True
    for res in results:
        print(res.line())
        all_pass &= res.passed
    print("oracle-suite:", "PASS" if all_pass else "FAIL")
    return EXIT_OK if all_pass else EXIT_USAGE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "two-circles":
            return _cmd_two_circles(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "oracle-suite":
            return _cmd_oracle_suite(args)
    except (ValueError, OSError) as exc:
        print(f"projqp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
