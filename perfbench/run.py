"""projqp benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload two-circles --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Set-up (a fresh import of ``projqp`` plus building the
inputs) runs ``SETUP_REPEATS`` times.  Then whole rounds of the workload's
operations run until the next round would overrun ``--seconds``, at least
one round.  Every round's outputs are checked.  Each timing is scaled by a
reference computation timed just before it (see ``speed.py``).  The last
line of standard output is the JSON result; the full record, raw times
included, goes to ``perfbench/out/``.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
each operation runs twice, untraced and then traced, and the per-layer
metrics are reported, with the traced round's extra wall time over the
untraced one as ``tracing.overhead``.
"""

from __future__ import annotations

import os

# one BLAS thread: load comes from this process alone
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import scipy.linalg  # noqa: F401  (numpy and scipy load before set-up is timed)
import scipy.optimize  # noqa: F401

import checks
import tracer as tracing
import workloads
from metrics import end_to_end, per_layer
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
MODULES = ("activeset_qp", "linalg", "convex_sets", "box_qp", "solvers", "art", "bench", "cli")


def fresh_import():
    """Import projqp as a first import would, numpy and scipy aside."""
    for name in [n for n in sys.modules if n == "projqp" or n.startswith("projqp.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("projqp")
    return SimpleNamespace(**{m: importlib.import_module(f"projqp.{m}") for m in MODULES})


def setup_steps(built, workload_cls, seed: int, out_dir: Path):
    """The set-up, in steps: the import, then each input the workload builds."""
    built.mods = fresh_import()
    yield
    built.wl = workload_cls(built.mods, seed, out_dir)
    yield from built.wl.build()


def timed_steps(probe, steps) -> float:
    """Scaled time of a sequence of steps, probing the host speed between
    steps and leaving the probes out of the total."""
    total = 0.0
    it = iter(steps)
    while True:
        probe.refresh()
        t0 = time.perf_counter()
        done = next(it, StopIteration) is StopIteration
        total += probe.scale_wall(time.perf_counter() - t0)
        if done:
            return total


def run_op(op, outputs, errors):
    try:
        out = op.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        errors.append(f"{op.method} #{op.instance}: {type(exc).__name__}: {exc}")
        out = None
    outputs.append(out)


def run_rounds(wl, probe, tracer, monitor, seconds: float):
    """Whole rounds of the workload's operations, each round checked, until
    the next round would overrun ``seconds``; at least one round."""
    rounds = []
    errors: list[str] = []
    problems: list[str] = []
    attempted = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        r = {"wall": [], "cpu": [], "raw_wall": [], "speed": [], "outputs": []}
        if tracer:
            r.update(traced_wall=[], before=tracer.snapshot(), checks=0)
        for op in wl.ops:
            probe.refresh()
            c0, t0 = time.process_time(), time.perf_counter()
            run_op(op, r["outputs"], errors)
            t1, c1 = time.perf_counter(), time.process_time()
            r["wall"].append(probe.scale_wall(t1 - t0))
            r["cpu"].append(probe.scale_cpu(c1 - c0))
            r["raw_wall"].append(t1 - t0)
            r["speed"].append(probe.scale_wall(1.0))
            attempted += 1
            if tracer:  # the same operation again, traced; its answer is not kept
                checks_before = monitor.checks
                tracer.op_id += 1
                tracer.install()
                t0 = time.perf_counter()
                try:
                    run_op(op, [], errors)
                finally:
                    t1 = time.perf_counter()
                    tracer.uninstall()
                r["traced_wall"].append(probe.scale_wall(t1 - t0))
                r["checks"] += monitor.checks - checks_before
                attempted += 1
        if tracer:
            r["after"] = tracer.snapshot()
        try:
            r["info"] = wl.check_round(r.pop("outputs"))
        except Exception as exc:  # a check that cannot run rejects the round too
            problems.append(str(exc) if isinstance(exc, checks.CheckFailed)
                            else f"check raised {type(exc).__name__}: {exc}")
        else:
            if rounds and r["info"].counts != rounds[0]["info"].counts:
                problems.append("work counts differ between rounds of the same inputs")
            rounds.append(r)
        elapsed = time.perf_counter() - start
        if problems or elapsed + elapsed / max(len(rounds), 1) > seconds:
            return rounds, attempted, errors, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "projqp" / "__init__.py").is_file():
        print(f"benchmark: no projqp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"

    probe = SpeedProbe()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        built = SimpleNamespace()
        setup_s.append(timed_steps(probe, setup_steps(built, workloads.WORKLOADS[args.workload],
                                                      args.seed, OUT / tag)))
    mods, wl = built.mods, built.wl

    tracer = tracing.Tracer() if args.trace else None
    rounds, attempted, errors, problems = run_rounds(wl, probe, tracer, mods.activeset_qp.MONITOR,
                                                     args.seconds)

    shutil.rmtree(OUT / tag, ignore_errors=True)  # generated problem files and reports
    for msg in errors[:10] + problems:
        print(f"benchmark: {msg}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = wl.ops
    if tracer:
        metrics, detail = per_layer(tracer, rounds)
        tracer.write(OUT / f"trace-{tag}.json", {"workload": args.workload, "seed": args.seed,
                                                  "ops": [f"{op.method}#{op.instance}" for op in ops]})
    else:
        metrics, detail = end_to_end(ops, rounds, setup_s, peak_rss_mb)
    detail["reference_s"] = probe.samples
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  rounds=len(rounds), errors=errors, problems=problems, detail=detail)
    with open(OUT / f"result-{tag}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for line in detail.get("summary", []):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
