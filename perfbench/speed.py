"""Host speed reference for timings taken on a shared machine.

On a shared host the same computation can take twice as long for minutes
at a time, in wall and in process CPU time alike.  The benchmark therefore
times a fixed reference computation in the same process, close in time to
each operation, and reports every timing scaled by it:

    reported = measured * REFERENCE_S / (reference time measured just before)

The reference builds an ``argparse`` parser with subcommands: interpreted
Python that allocates objects, fills dicts and formats strings, the kind
of work that dominates ``projqp`` on small and mid-size problems.  On the
machine the README names, the program's times moved with it through the
host's slow phases more closely than with a plain arithmetic loop or with
small-array numpy calls, whose times swing about twice as far.  It takes
about ``REFERENCE_S`` on a quiet machine of that kind, so the reported
figures read as times on such a machine.  The program never runs the
reference, so a change to the program cannot move it; the raw times and
the reference samples are kept in the run's record.
"""

from __future__ import annotations

import argparse
import statistics
from time import perf_counter, process_time

REFERENCE_S = 1.4e-3
PROBE_EVERY_S = 0.05  # at most this much operation time between probes
CHUNKS = 3  # a probe keeps its fastest chunk: a stall only ever adds time
WINDOW = 5  # timings use the median of the latest probes


def _reference() -> int:
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command")
    for k in range(4):
        command = sub.add_parser(f"command{k}", help=f"command number {k}")
        for j in range(8):
            command.add_argument(f"--option{j}", type=float, default=j * 0.5, help=f"option {j} of {k}")
    return len(parser.format_usage())


class SpeedProbe:
    """The reference timing of the latest probes, refreshed when it gets old."""

    def __init__(self):
        self.wall = REFERENCE_S
        self.cpu = REFERENCE_S
        self.samples: list[tuple[float, float]] = []
        self._last = -float("inf")

    def probe(self) -> None:
        walls, cpus = [], []
        for _ in range(CHUNKS):
            c0, t0 = process_time(), perf_counter()
            _reference()
            t1, c1 = perf_counter(), process_time()
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
        self.samples.append((min(walls), min(cpus)))
        recent = self.samples[-WINDOW:]
        self.wall = statistics.median(w for w, _ in recent)
        self.cpu = max(statistics.median(c for _, c in recent), 1e-9)
        self._last = perf_counter()

    def refresh(self) -> None:
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def scale_wall(self, seconds: float) -> float:
        return seconds * REFERENCE_S / self.wall

    def scale_cpu(self, seconds: float) -> float:
        return seconds * REFERENCE_S / self.cpu
