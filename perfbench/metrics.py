"""Metric names, units and how each is computed from a run's rounds.

Every timing is scaled by the host speed reference (``speed.py``), taken
per round and reported as the median over the run's rounds, so a value
does not depend on how many rounds fit in the run.  A
method's solve time in a round is the mean over that round's solves of the
method: the instances of a workload differ in size and difficulty, and the
per-solve median of such a mix jumps between its modes from one seed to
the next.  The median and 90th percentile over single solves are kept in the
run's record file.
"""

from __future__ import annotations

import statistics

from tracer import CALLS_ONLY, SELF_ONLY, traced_names
from workloads import COUNT_KEYS, METHODS


def _end_to_end_units() -> dict[str, str]:
    units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s"}
    units.update({f"solve_ms.{m}": "ms" for m in METHODS})
    units.update({key: "count" for key in COUNT_KEYS})
    units["peak_rss_mb"] = "MB"
    return units


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in traced_names():
        if name not in SELF_ONLY:
            units[f"{name}.calls"] = "count"
        if name not in CALLS_ONLY:
            units[f"{name}.self_s"] = "s"
    units.update({
        "solvers.store_max": "count",
        "solvers.active_ratio": "ratio",
        "activeset_qp.monitor_checks": "count",
        "activeset_qp.q_max": "count",
        "activeset_qp.drops_per_step": "ratio",
        "tracing.spans": "count",
        "tracing.overhead": "%",
    })
    return units


END_TO_END = _end_to_end_units()
PER_LAYER = _per_layer_units()


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _quantile(values, q: float) -> float:
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))] if s else 0.0


def _metric(name: str, value: float, units: dict) -> tuple[str, dict]:
    return name, {"value": value, "unit": units[name]}


def end_to_end(ops, rounds, setup_s, peak_rss_mb) -> tuple[dict, dict]:
    values = {
        "setup_s": median(setup_s),
        "wall_s": median([sum(r["wall"]) for r in rounds]),
        "cpu_s": median([sum(r["cpu"]) for r in rounds]),
    }
    detail = {"setup_s": setup_s, "rounds": len(rounds), "methods": {},
              "op_methods": [op.method for op in ops], "op_raw_wall_s": [r["raw_wall"] for r in rounds],
              "op_speed": [r["speed"] for r in rounds]}
    summary = [f"rounds {len(rounds)}, set-up median {values['setup_s']:.4f} s of {len(setup_s)}"]
    for m in METHODS:
        idx = [i for i, op in enumerate(ops) if op.method == m]
        per_round = [sum(r["wall"][i] for i in idx) / len(idx) for r in rounds] if idx else []
        solves = [r["wall"][i] * 1e3 for r in rounds for i in idx]
        values[f"solve_ms.{m}"] = median(per_round) * 1e3
        detail["methods"][m] = {
            "solves": len(solves),
            "round_means_ms": [v * 1e3 for v in per_round],
            "p50_ms": median(solves),
            "p90_ms": _quantile(solves, 0.9),
        }
        summary.append(f"{m}: {len(idx)} solves a round, {len(solves)} in all; round mean "
                       f"{values[f'solve_ms.{m}']:.4f} ms, per solve p50 {median(solves):.4f} "
                       f"p90 {_quantile(solves, 0.9):.4f} ms")
    counts = rounds[0]["info"].counts if rounds else dict.fromkeys(COUNT_KEYS, 0)
    values.update(counts)
    values["peak_rss_mb"] = peak_rss_mb
    detail["summary"] = summary
    return dict(_metric(k, values[k], END_TO_END) for k in END_TO_END), detail


def per_layer(tracer, rounds) -> tuple[dict, dict]:
    names = traced_names()
    values = {}
    for nid, name in enumerate(names):
        calls = [r["after"]["calls"][nid] - r["before"]["calls"][nid] for r in rounds]
        self_s = [(r["after"]["self_s"][nid] - r["before"]["self_s"][nid]) * median(r["speed"]) for r in rounds]
        if name not in SELF_ONLY:
            values[f"{name}.calls"] = median(calls)
        if name not in CALLS_ONLY:
            values[f"{name}.self_s"] = median(self_s)
    infos = [r["info"] for r in rounds]
    ratios = infos[0].active_ratios if infos else []
    steps = [r["after"]["steps"] - r["before"]["steps"] for r in rounds]
    drops = [r["after"]["drops"] - r["before"]["drops"] for r in rounds]
    untraced = median([sum(r["wall"]) for r in rounds])
    traced = median([sum(r["traced_wall"]) for r in rounds])
    values.update({
        "solvers.store_max": infos[0].store_max if infos else 0,
        "solvers.active_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
        "activeset_qp.monitor_checks": median([r["checks"] for r in rounds]),
        "activeset_qp.q_max": tracer.q_max,
        "activeset_qp.drops_per_step": median([d / s for d, s in zip(drops, steps) if s]),
        "tracing.spans": median([r["after"]["spans"] - r["before"]["spans"] for r in rounds]),
        "tracing.overhead": (traced / untraced - 1.0) * 100.0 if untraced else 0.0,
    })
    summary = [f"traced rounds {len(rounds)}: untraced {untraced:.4f} s, traced {traced:.4f} s a round "
               f"(overhead {values['tracing.overhead']:.1f} %)"]
    busiest = sorted((v, k) for k, v in values.items() if k.endswith(".self_s"))[::-1][:8]
    summary += [f"  {k}: {v:.4f} s a round" for v, k in busiest]
    detail = {"untraced_round_s": untraced, "traced_round_s": traced, "summary": summary}
    return dict(_metric(k, values[k], PER_LAYER) for k in PER_LAYER), detail
