"""Reflection methods for hyperslab systems L <= Ax <= U.

The classical scheme cycles the rows: inside a slab do nothing, close to a
face reflect across it, far away jump to the midplane; with a fat interior
it stops after finitely many sweeps, exactly inside.  The extended variant
tracks a projection point and its extrapolation, and may spend steps in
the QP engine to slide along several slab faces at once; the restart
subsequence stays Fejer monotone with respect to any interior point.

Run:  python demos/hyperslab_art.py
"""

import numpy as np

from projqp.art import art3_solve, extended_art_solve
from projqp.bench import generate_problem, hyperslab_system_from_sets
from projqp.convex_sets import problem_from_dict


def main():
    doc = generate_problem("hyperslabs-with-interior", n=6, count=14, seed=42)
    sets, x0, extras = problem_from_dict(doc)
    system = hyperslab_system_from_sets(sets)
    witness = np.asarray(extras["witness"])
    print(f"system: {system.m} slabs in R^{system.n}, start {np.round(x0, 3)}")
    print(f"recorded interior witness: {np.round(witness, 3)}")
    print()

    rep = art3_solve(x0, system)
    print(f"classical sweep:  {rep.status} after {rep.counts['iterations']} row checks,"
          f" exact membership: {system.contains(rep.x)}")

    rep = extended_art_solve(x0, system, witness=witness)
    c = rep.counts
    print(f"extended variant: {rep.status} after {c['iterations']} visits"
          f" ({c['p_circ']} slide refinements, {c['p_times']} projection restarts,"
          f" {c['p_plus']} reflection restarts, {c['inner_steps']} QP steps)")
    print(f"  exact membership: {system.contains(rep.x)}")
    print(f"  worst Fejer increase towards the witness: {rep.extras['fejer_max_increase']:.2e}")

    print()
    print("text format round-trip (header 'm n', rows, then L and U lines):")
    text = system.to_text().splitlines()
    for line in text[:3] + ["..."] + text[-2:]:
        print("  " + (line if len(line) < 72 else line[:69] + "..."))


if __name__ == "__main__":
    main()
