"""The three workloads: their inputs, their operations and their checks.

An operation is one solve.  A workload builds its inputs from the seed in
``build`` (this is the set-up the benchmark times; it yields after each input
so the benchmark can probe the host speed in between), lists its operations in
a fixed order, and checks a whole round of outputs in ``check_round``, which
returns the round's work counts.  Checks use ``checks.py`` only: they read
the problems from the JSON documents the generator wrote and never ask the
program whether its answer is right.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import checks
from checks import require

COUNT_KEYS = ("outer_iterations", "inner_steps", "projections")
METHODS = ("bap-gi", "sip-gi", "map", "dykstra", "haugazeau", "art3", "ext-art")
FEAS_TOL = 1e-9
UNCAPPED = 100_000  # iteration cap for methods that must end solved
# two-circles runs Haugazeau far short of the published 90,000 iterations
TWO_CIRCLES_HAUGAZEAU_CAP = 2_000
# Haugazeau and Dykstra run to a fixed cap where they do not finish
HAUGAZEAU_CAP = 100
DYKSTRA_CAP = 1_000
# BAP against Dykstra on the same file: both stop at feas_tol, so their
# answers agree to O(sqrt(feas_tol)) only
DYKSTRA_GAP = 100.0 * math.sqrt(FEAS_TOL)


@dataclass
class Op:
    method: str
    instance: int
    run: Callable[[], object]


@dataclass
class RoundInfo:
    """Work counts and layer facts read from one round's outputs."""

    counts: dict = field(default_factory=lambda: dict.fromkeys(COUNT_KEYS, 0))
    store_max: int = 0
    active_ratios: list = field(default_factory=list)

    def add_counts(self, counts: dict) -> None:
        for key in COUNT_KEYS:
            self.counts[key] += int(counts.get(key, 0))

    def add_store(self, active: int, store: int) -> None:
        self.store_max = max(self.store_max, store)
        if store:
            self.active_ratios.append(active / store)


def instance_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=count)]


@dataclass(frozen=True)
class SlabRows:
    """Rows and bounds of a hyperslab system, read from its document."""

    a_mat: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def from_doc(cls, doc: dict) -> "SlabRows":
        slabs = doc["sets"]
        return cls(np.array([k["a"] for k in slabs], dtype=float),
                   np.array([checks.bound(k["lower"]) for k in slabs]),
                   np.array([checks.bound(k["upper"]) for k in slabs]))


@dataclass
class SlabInstance:
    """A hyperslab problem: the generator's document plus solver inputs."""

    doc: dict
    sets: list
    x0: np.ndarray
    witness: np.ndarray
    system: object
    rows: SlabRows


def slab_instance(mods, n: int, count: int, seed: int) -> SlabInstance:
    doc = mods.bench.generate_problem("hyperslabs-with-interior", n, count, seed)
    sets, x0, extras = mods.convex_sets.problem_from_dict(doc)
    system = mods.bench.hyperslab_system_from_sets(sets)
    return SlabInstance(doc, sets, x0, np.asarray(extras["witness"]), system, SlabRows.from_doc(doc))


def art_ops(mods, instances, first_index: int) -> list[Op]:
    ops = []
    for i, inst in enumerate(instances, start=first_index):
        ops.append(Op("art3", i, lambda inst=inst: mods.art.art3_solve(inst.x0, inst.system)))
        ops.append(Op("ext-art", i, lambda inst=inst: mods.art.extended_art_solve(
            inst.x0, inst.system, witness=inst.witness)))
    return ops


def check_art(report_status: str, x, rows: SlabRows, what: str) -> None:
    require(report_status == "solved", f"{what}: status {report_status}")
    checks.check_in_slabs_exact(x, rows.a_mat, rows.lower, rows.upper, what)


class Workload:
    name = ""

    def __init__(self, mods, seed: int, out_dir: Path):
        self.mods = mods
        self.seed = seed
        self.out_dir = out_dir
        self.ops: list[Op] = []

    def build(self) -> Iterator[None]:
        raise NotImplementedError

    def check_round(self, outputs: list) -> RoundInfo:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class TwoCircles(Workload):
    """Table 1's two balls for the five set methods, plus 2-d hyperslab
    systems for ART3 and the extended ART: the n = 2 regime."""

    name = "two-circles"
    SLAB_SYSTEMS = 192
    SLABS = 8

    def build(self) -> Iterator[None]:
        mods = self.mods
        self.slabs = []
        for s in instance_seeds(self.seed, self.SLAB_SYSTEMS):
            self.slabs.append(slab_instance(mods, 2, self.SLABS, s))
            yield
        self.ops = [
            Op(m, 0, lambda m=m: mods.bench.run_two_circles(m))
            for m in ("bap-gi", "sip-gi", "map", "dykstra")
        ]
        self.ops.append(Op("haugazeau", 0, lambda: mods.bench.run_two_circles(
            "haugazeau", max_iter=TWO_CIRCLES_HAUGAZEAU_CAP)))
        self.ops += art_ops(mods, self.slabs, first_index=1)

    def check_round(self, outputs: list) -> RoundInfo:
        info = RoundInfo()
        x0 = np.array(checks.TWO_CIRCLES_X0)
        xbar = np.array(checks.TWO_CIRCLES_XBAR)
        for op, out in zip(self.ops, outputs):
            if out is None:
                continue
            if op.instance == 0:
                report, rows = out
                dists = [r.dist for r in rows]
                what = f"two-circles {op.method}"
                if op.method in ("bap-gi", "sip-gi"):
                    require(report.status == "solved", f"{what}: status {report.status}")
                    checks.check_table1(op.method, dists)
                    checks.check_close(report.x, xbar, 1e-12, what)
                    info.add_store(len(report.extras["active_set"]), report.extras["store_rhs"].shape[0])
                elif op.method == "map":
                    require(report.status == "solved", f"{what}: status {report.status}")
                    require(len(dists) > 200 and dists[200] <= 1e-12, f"{what}: x-bar not reached by row 200")
                    checks.check_close(report.x, xbar, 1e-12, what)
                elif op.method == "dykstra":
                    checks.check_close(report.x, xbar, 4e-9, what)
                else:
                    require(len(rows) == TWO_CIRCLES_HAUGAZEAU_CAP + 1, f"{what}: {len(rows) - 1} rows")
                    checks.check_haugazeau(report.x, x0, xbar)
                info.add_counts(report.counts)
            else:
                inst = self.slabs[op.instance - 1]
                check_art(out.status, out.x, inst.rows, f"2-d slabs #{op.instance} {op.method}")
                info.add_counts(out.counts)
        return info


# ---------------------------------------------------------------------------


class RandomSets(Workload):
    """``projqp gen`` files solved through ``projqp solve`` in-process."""

    name = "random-sets"
    UNITS = 32
    FEASIBLE = (("balls-with-common-point", 10, 6), ("balls-with-common-point", 50, 6),
                ("box-plus-ball", 10, 6), ("box-plus-ball", 50, 6))
    FEASIBLE_METHODS = ("map", "dykstra", "bap-gi", "sip-gi")
    # capped Haugazeau only gives its metric a value here: the n = 10 files suffice
    HAUGAZEAU_N = 10
    INFEASIBLE = (("infeasible-balls", 2, 2), ("infeasible-balls", 10, 2), ("infeasible-balls", 50, 2))
    SLABS = ("hyperslabs-with-interior", 10, 40)

    def _cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.mods.cli.main(argv)

    def _solve(self, argv: list[str], report: Path) -> tuple[int, Path]:
        """One ``projqp solve``; a report left by an earlier round is
        deleted first, so the one read is the one this solve wrote."""
        report.unlink(missing_ok=True)
        code = self._cli(argv)
        if code not in checks.STATUS_EXIT.values() or not report.is_file():
            raise RuntimeError(f"projqp solve exited {code}, report written: {report.is_file()}")
        return code, report

    def build(self) -> Iterator[None]:
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        self.out_dir.mkdir(parents=True)
        self.files = []  # (kind, problem path, document)
        self.ops = []
        for unit, s in enumerate(instance_seeds(self.seed, self.UNITS)):
            for kind, n, count in self.FEASIBLE + self.INFEASIBLE + (self.SLABS,):
                path = self.out_dir / f"{kind}-n{n}-{unit}.json"
                code = self._cli(["gen", "--kind", kind, "--n", str(n), "--count", str(count),
                                  "--seed", str(s), "--out", str(path)])
                require(code == 0, f"gen {kind} exited {code}")
                with open(path) as fh:
                    self.files.append((kind, path, json.load(fh)))
                yield
        for index, (kind, path, doc) in enumerate(self.files):
            if kind == "infeasible-balls":
                methods = ("bap-gi", "sip-gi")
            elif kind == "hyperslabs-with-interior":
                methods = ("art3", "ext-art")
            elif len(doc["x0"]) == self.HAUGAZEAU_N:
                methods = self.FEASIBLE_METHODS + ("haugazeau",)
            else:
                methods = self.FEASIBLE_METHODS
            for m in methods:
                cap = HAUGAZEAU_CAP if m == "haugazeau" else UNCAPPED
                report = self.out_dir / f"{path.stem}.{m}.report.json"
                argv = ["solve", "--problem", str(path), "--method", m, "--tol", repr(FEAS_TOL),
                        "--max-iter", str(cap), "--json", str(report)]
                self.ops.append(Op(m, index, lambda argv=argv, report=report: self._solve(argv, report)))

    def check_round(self, outputs: list) -> RoundInfo:
        info = RoundInfo()
        answers: dict[int, dict[str, dict]] = {}
        for op, out in zip(self.ops, outputs):
            if out is None:
                continue
            code, report_path = out
            with open(report_path) as fh:
                rep = json.load(fh)
            what = f"{self.files[op.instance][1].name} {op.method}"
            checks.check_exit_code(code, rep["status"], what)
            info.add_counts(rep["counts"])
            if "store_rhs" in rep:
                info.add_store(len(rep["active_set"]), len(rep["store_rhs"]))
            answers.setdefault(op.instance, {})[op.method] = rep
        for index, reps in answers.items():
            kind, path, doc = self.files[index]
            if kind == "infeasible-balls":
                for m, rep in reps.items():
                    what = f"{path.name} {m}"
                    require(rep["status"] == "infeasible", f"{what}: status {rep['status']}")
                    cert = rep["certificate"]
                    checks.check_certificate(cert["lambda"], cert["j"], rep["store_normals"],
                                             rep["store_rhs"], doc["sets"])
            elif kind == "hyperslabs-with-interior":
                rows = SlabRows.from_doc(doc)
                for m, rep in reps.items():
                    check_art(rep["status"], np.array(rep["x"]), rows, f"{path.name} {m}")
            else:
                self._check_feasible_file(path.name, doc, reps)
        return info

    @staticmethod
    def _check_feasible_file(name: str, doc: dict, reps: dict) -> None:
        x0 = np.array(doc["x0"])
        for m, rep in reps.items():
            if m != "haugazeau":
                require(rep["status"] == "solved", f"{name} {m}: status {rep['status']}")
            if rep["status"] == "solved":
                checks.check_feasible(rep["x"], doc["sets"], FEAS_TOL, f"{name} {m}")
        if "bap-gi" not in reps:
            return
        x_bap = np.array(reps["bap-gi"]["x"])
        tol = math.sqrt(FEAS_TOL) * (1.0 + checks.norm(x0))
        rivals = {m: rep["x"] for m, rep in reps.items() if m in ("sip-gi", "map", "dykstra")}
        rivals["witness"] = doc["witness"]
        checks.check_nearest(x_bap, x0, rivals, tol, f"{name} bap-gi")
        if "dykstra" in reps:
            checks.check_close(x_bap, reps["dykstra"]["x"], DYKSTRA_GAP, f"{name} BAP against Dykstra")
        if "haugazeau" in reps:
            checks.check_haugazeau(reps["haugazeau"]["x"], x0, x_bap, rel_tol=tol)


# ---------------------------------------------------------------------------


class Hyperslabs(Workload):
    """n = 50 systems of 200 slabs with an interior, solved through the
    library."""

    name = "hyperslabs"
    SYSTEMS = 80
    N = 50
    SLABS = 200

    def build(self) -> Iterator[None]:
        mods = self.mods
        self.systems = []
        self._replays = {}
        for s in instance_seeds(self.seed, self.SYSTEMS):
            self.systems.append(slab_instance(mods, self.N, self.SLABS, s))
            yield
        solved = mods.solvers.SolverOptions(feas_tol=FEAS_TOL, max_outer_iters=UNCAPPED)
        caps = {"dykstra": DYKSTRA_CAP, "haugazeau": HAUGAZEAU_CAP}
        self.ops = []
        for i, inst in enumerate(self.systems):
            self.ops += art_ops(mods, [inst], first_index=i)
            for m in ("bap-gi", "sip-gi", "map", "dykstra", "haugazeau"):
                opts = (mods.solvers.SolverOptions(feas_tol=FEAS_TOL, max_outer_iters=caps[m])
                        if m in caps else solved)
                self.ops.append(Op(m, i, lambda m=m, inst=inst, opts=opts:
                                   mods.solvers.solve(m, inst.x0, inst.sets, opts)))

    def check_round(self, outputs: list) -> RoundInfo:
        info = RoundInfo()
        answers: dict[int, dict[str, object]] = {}
        for op, out in zip(self.ops, outputs):
            if out is None:
                continue
            info.add_counts(out.counts)
            if op.method in ("bap-gi", "sip-gi") and "store_rhs" in out.extras:
                info.add_store(len(out.extras["active_set"]), out.extras["store_rhs"].shape[0])
            answers.setdefault(op.instance, {})[op.method] = out
        for i, reps in answers.items():
            inst = self.systems[i]
            name = f"slabs #{i}"
            for m, rep in reps.items():
                what = f"{name} {m}"
                if m in ("art3", "ext-art"):
                    check_art(rep.status, rep.x, inst.rows, what)
                elif m in ("bap-gi", "sip-gi", "map"):
                    require(rep.status == "solved", f"{what}: status {rep.status}")
                    checks.check_feasible(rep.x, inst.doc["sets"], FEAS_TOL, what)
            if "bap-gi" not in reps:
                continue
            x_bap = reps["bap-gi"].x
            checks.check_cone(x_bap, inst.x0, inst.rows.a_mat, inst.rows.lower, inst.rows.upper,
                              FEAS_TOL, f"{name} bap-gi")
            if "dykstra" in reps:
                self._check_dykstra(i, reps["dykstra"], f"{name} dykstra")
            if "haugazeau" in reps:
                tol = math.sqrt(FEAS_TOL) * (1.0 + checks.norm(inst.x0))
                checks.check_haugazeau(reps["haugazeau"].x, inst.x0, x_bap, rel_tol=tol)
        return info


    def _check_dykstra(self, i: int, rep, what: str) -> None:
        """Capped Dykstra against the benchmark's own replay of the same
        number of projections; the inputs repeat, so each replay is kept."""
        inst = self.systems[i]
        projections = int(rep.counts["projections"])
        key = (i, projections)
        if key not in self._replays:
            self._replays[key] = checks.dykstra_slabs(inst.x0, inst.rows.a_mat, inst.rows.lower,
                                                      inst.rows.upper, projections)
        checks.check_dykstra(rep.x, self._replays[key], inst.x0, what)


WORKLOADS = {w.name: w for w in (TwoCircles, RandomSets, Hyperslabs)}
