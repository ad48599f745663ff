"""projqp: projection algorithms integrated with a dual active-set QP engine.

Solves set intersection problems (find a point in an intersection of
convex sets) and best approximation problems (find the closest such point)
by accumulating supporting halfspaces from projections and projecting onto
their intersection with warmstarted active-set steps.  Includes an exact
box-plus-halfspace solver, ART3 and an extended ART for hyperslab systems,
classical baselines (alternating projections, Dykstra, Haugazeau), and a
benchmark harness.
"""

from .activeset_qp import (
    Advanced,
    Infeasible,
    InfeasibilityCertificate,
    IterationLimitError,
    MONITOR,
    PreconditionViolated,
    QpProblem,
    Solution,
    STuple,
    empty_s_tuple,
    gi_solve,
    project_polyhedron_reduced,
    verify_certificate,
)
from .art import HyperslabSystem, art3_solve, extended_art_solve
from .box_qp import BoxQp, BoxQpResult, solve_box_qp
from .convex_sets import (
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    Hyperslab,
    Polyhedron,
    load_problem,
    project_set,
    save_problem,
)
from .linalg import (
    DependentColumn,
    QrFactors,
    RankDeficient,
    qr_append_column,
    qr_delete_column,
    qr_factorize,
)
from .solvers import (
    HalfspaceStore,
    SolveReport,
    SolverOptions,
    TraceRow,
    solve,
    solve_bap,
    solve_dykstra,
    solve_haugazeau,
    solve_map,
    solve_sip,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
