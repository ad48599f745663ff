"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces each traced public function of ``projqp`` by a
wrapper wherever a calling module looks it up: module globals (``from .linalg
import qr_append_column`` binds a name in the importing module), dict
registries such as ``solvers._METHODS``, and the class attribute for a
method.  ``uninstall`` puts the originals back, so untraced executions run
the program exactly as shipped.

A wrapper records one span per call (name, start, end, parent span and the
benchmark operation it belongs to) and adds to per-name call counts and self
times.  A span's self time is its duration minus the durations of the spans
it directly encloses.  Spans stay in memory, up to ``SPAN_CAP``, and
``write`` dumps them at the end of a run.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

PACKAGE = "projqp"
# spans kept in memory; calls past the cap still count, their spans are dropped
SPAN_CAP = 50_000

# (module, attribute) of every traced function, in report order
TRACED = (
    ("convex_sets", "project_set"),
    ("convex_sets", "load_problem"),
    ("solvers", "solve_bap"),
    ("solvers", "solve_sip"),
    ("solvers", "solve_map"),
    ("solvers", "solve_dykstra"),
    ("solvers", "solve_haugazeau"),
    ("solvers", "fill_measures"),
    ("activeset_qp", "inner_gi_step"),
    ("activeset_qp", "degenerate_inner_gi_step"),
    ("activeset_qp", "gi_solve"),
    ("activeset_qp", "check_s_tuple"),
    ("activeset_qp", "verify_certificate"),
    ("linalg", "qr_append_column"),
    ("linalg", "qr_delete_column"),
    ("linalg", "solve_upper"),
    ("linalg", "qr_factorize"),
    ("linalg", "as_vector"),
    ("box_qp", "solve_box_qp"),
    ("art", "HyperslabSystem.contains"),
    ("art", "art3_update"),
    ("art", "extrapolate_plus"),
    ("art", "art3_solve"),
    ("art", "extended_art_solve"),
    ("bench", "compute_measures"),
    ("cli", "main"),
)

# the outer drivers and the CLI entry run once per solve: their self time
# is what they add around the layers below; a call count would only repeat
# the number of solves
SELF_ONLY = {
    "solvers.solve_bap", "solvers.solve_sip", "solvers.solve_map", "solvers.solve_dykstra",
    "solvers.solve_haugazeau", "art.art3_solve", "art.extended_art_solve", "cli.main",
}
CALLS_ONLY = {"activeset_qp.verify_certificate"}

STEP_FUNCTIONS = ("activeset_qp.inner_gi_step", "activeset_qp.degenerate_inner_gi_step")


def traced_names() -> list[str]:
    return [f"{mod}.{attr}" for mod, attr in TRACED]


def _resolve(mod: str, attr: str):
    obj = sys.modules[f"{PACKAGE}.{mod}"]
    owner = obj
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, attr.split(".")[-1], obj


class Tracer:
    def __init__(self):
        self.names = traced_names()
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.op_id = -1
        self.q_max = 0
        self.steps = 0
        self.drops = 0
        self._stack: list[list] = []
        self._sites = self._binding_sites()

    # -- installation ------------------------------------------------------

    def _binding_sites(self) -> list[tuple]:
        """(container, key, original, wrapper) for every place a traced
        function is looked up from."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        sites = []
        for nid, (mod, attr) in enumerate(TRACED):
            owner, key, original = _resolve(mod, attr)
            wrapper = self._wrap(nid, original)
            if isinstance(owner, type):  # a method: the class is the only site
                sites.append((owner, key, original, wrapper))
                continue
            for module in modules:
                for gname, value in list(vars(module).items()):
                    if value is original:
                        sites.append((module, gname, original, wrapper))
                    elif isinstance(value, dict):
                        for dkey, dval in value.items():
                            if dval is original:
                                sites.append((value, dkey, original, wrapper))
        return sites

    def install(self) -> None:
        for container, key, _, wrapper in self._sites:
            _set(container, key, wrapper)

    def uninstall(self) -> None:
        for container, key, original, _ in self._sites:
            _set(container, key, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, nid: int, fn):
        calls, self_s, stack, spans = self.calls, self.self_s, self._stack, self.spans
        tracer = self
        is_step = self.names[nid] in STEP_FUNCTIONS

        def traced(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, nid, t0, t1, tracer.op_id))
                else:
                    tracer.dropped += 1
            if is_step:
                tracer._record_step(result)
            return result

        return traced

    def _record_step(self, outcome) -> None:
        self.steps += 1
        self.drops += sum(1 for ev in outcome.events if ev.startswith("drop:"))
        s = getattr(outcome, "s_tuple", None)
        if s is not None:
            self.q_max = max(self.q_max, s.q)

    def snapshot(self) -> dict:
        """Totals so far, for differencing across a round."""
        return {
            "calls": list(self.calls),
            "self_s": list(self.self_s),
            "spans": self.next_id,
            "steps": self.steps,
            "drops": self.drops,
        }

    def write(self, path, extra: dict) -> None:
        doc = {
            "names": self.names,
            "fields": ["id", "parent", "name", "start_s", "end_s", "op"],
            "spans": self.spans,
            "dropped": self.dropped,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def _set(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)
