"""Command line interface.

Subcommands: ``two-circles`` (benchmark table for one method), ``solve``
(run a method on a problem file), ``gen`` (write a random problem), and
``oracle-suite`` (randomized equivalence suites).  Exit codes: 0 solved or
suites passed, 2 infeasible, 3 iteration limit, 4 numerical breakdown,
1 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import bench
from .activeset_qp import IterationLimitError, NumericalError, PreconditionViolated
from .art import HyperslabSystem, extended_art_solve, art3_solve, load_system
from .convex_sets import load_problem, save_problem_dict
from .solvers import _METHODS, SolveReport, SolverOptions, _is_tol, solve as solve_dispatch

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_ITERATION_LIMIT = 3
EXIT_BREAKDOWN = 4

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
    p_solve.add_argument("--tol", type=float, default=1e-9,
                         help="feasibility tolerance of the set methods; art3 and ext-art ignore it")
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


# numpy's default print options: under them format_x prints as array2string
_PRINT_DEFAULTS = {"linewidth": 75, "threshold": 1000, "suppress": False, "sign": "-",
                   "floatmode": "maxprec", "legacy": False, "formatter": None}


def format_x(x: np.ndarray) -> str:
    """``np.array2string(x, precision=9)``, formatting each entry once.

    ``array2string`` runs numpy's Dragon4 formatter twice per entry inside
    per-element recursion.  For a 1-D float64 x of finite entries under the
    default print options, this takes ``FloatingFormat``'s steps in one
    loop: numpy's rule picks the exponential mode, a positional entry is
    formatted once and padded with spaces to the widest integer and
    fraction parts, an exponential one gets numpy's second pass at the
    widest fraction, and the words wrap at 75 columns as ``_formatArray``
    wraps one axis.  Any other x goes to ``array2string``.
    """
    opts = np.get_printoptions()
    vals = x.tolist() if x.ndim == 1 and x.dtype == np.float64 and 0 < x.size <= 1000 else []
    if not (vals and all(map(math.isfinite, vals))
            and all(opts[k] == v for k, v in _PRINT_DEFAULTS.items())):
        return np.array2string(x, precision=9)
    mags = [abs(v) for v in vals if v]
    hi, lo = (max(mags), min(mags)) if mags else (0.0, 1.0)
    if hi >= 1e8 or lo < 1e-4 or hi / lo > 1000.0:
        parts = [np.format_float_scientific(v, precision=9, unique=True, trim=".").partition("e")
                 for v in vals]
        digits = max(len(m) - m.index(".") - 1 for m, _, _ in parts)
        left = max(m.index(".") for m, _, _ in parts)
        exp = max(len(e) for _, _, e in parts) - 1
        words = [np.format_float_scientific(v, precision=digits, min_digits=digits, unique=True,
                                            trim="k", pad_left=left, exp_digits=exp) for v in vals]
    else:
        # precision 9, unique, fractional, trim "." (positional arguments
        # parse faster than keywords)
        strs = [np.format_float_positional(v, 9, True, True, ".") for v in vals]
        dots = [s.index(".") for s in strs]
        left = max(dots)
        width = left + max(len(s) - d for s, d in zip(strs, dots))
        words = [(" " * (left - d) + s).ljust(width) for s, d in zip(strs, dots)]
    lines, line = [], "["
    for w in words:  # a line holds 74 columns before its separator or "]"
        if len(line) + len(w) > 74 and len(line) > 1:
            lines.append(line.rstrip())
            line = " "
        line += w + " "
    lines.append(line[:-1] + "]")
    return "\n".join(lines)


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
    if not _is_tol(args.tol):
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol}")
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
            raise ValueError("set-based methods need a JSON problem file")
        opts = SolverOptions(
            feas_tol=args.tol,
            max_outer_iters=max_iter if max_iter is not None else 1000,
        )
        report = solve_dispatch(args.method, x0, loaded, opts)
    # the ART solvers count their iterations; a set solver's trace has a row per step
    iters = report.counts.get("iterations", len(report.rows) - 1)
    print(f"method={args.method} status={report.status} iters={iters}")
    print("x =", format_x(np.asarray(report.x)))
    _emit_report(report, args.out, args.json_out)
    return STATUS_EXIT[report.status]


def _cmd_gen(args) -> int:
    # the generator built and checked every set; its document is the file
    doc = bench.generate_problem(args.kind, args.n, args.count, args.seed)
    save_problem_dict(args.out, doc)
    print(f"wrote {args.out} ({args.kind}, n={args.n}, count={len(doc['sets'])}, seed={args.seed})")
    return EXIT_OK


def _cmd_oracle_suite(args) -> int:
    results = bench.run_oracle_suites(seed=args.seed, names=args.suite)
    all_pass = True
    for res in results:
        print(res.line())
        all_pass &= res.passed
    print("oracle-suite:", "PASS" if all_pass else "FAIL")
    return EXIT_OK if all_pass else EXIT_USAGE


# built on first use; parse_args leaves a parser as it found it
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
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
    # the engine's breakdowns; PreconditionViolated is a ValueError, so this
    # clause comes before the usage errors
    except (PreconditionViolated, NumericalError, IterationLimitError) as exc:
        print(f"projqp: error: numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except (ValueError, OSError) as exc:
        print(f"projqp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
