"""Symbolic-numeric solvers for time-fractional initial-boundary value problems.

The package splits into a small expression engine (symx), a fractional power
series algebra on top of it (fracterm), the decomposition solvers with their
boundary correction (decomp), a registry of benchmark problems with a
manufactured-source audit (problems), numerical verification tools
(evaluation), an expression grammar for problem files (grammar), and the
self-check suite behind the CLI's verify command (acceptance).
"""

from .decomp import (
    BoundaryData,
    DecompError,
    IterationRecord,
    LinearOpSpec,
    LinearTerm,
    NonlinearFactor,
    NonlinearOpSpec,
    NonlinearProduct,
    SolveTrace,
    adomian_polys,
    boundary_correct,
    ladm_solve,
    mldm_solve,
)
from .evaluation import (
    EvalError,
    Grid,
    QuadratureError,
    convergence_report,
    default_grid,
    evaluate_series_grid,
    grid_error,
    make_grid,
    residual,
    rl_integral_quadrature,
)
from .fracterm import (
    CaputoRangeError,
    Series,
    SeriesError,
    caputo,
    eval_series,
    frac_integral,
    gamma,
    initial_value,
    series_add,
    series_equal,
    series_mul,
    series_scale,
    series_substitute,
    spatial_apply,
    to_series,
)
from .grammar import GrammarError, parse_expr, parse_series, parse_spatial
from .problems import (
    MODES,
    PROBLEM_IDS,
    ConsistencyReport,
    ProblemError,
    ProblemSpec,
    builtin,
    load_problem_file,
    manufacture_source,
    validate_consistency,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryData",
    "CaputoRangeError",
    "ConsistencyReport",
    "DecompError",
    "EvalError",
    "GrammarError",
    "Grid",
    "IterationRecord",
    "LinearOpSpec",
    "LinearTerm",
    "MODES",
    "NonlinearFactor",
    "NonlinearOpSpec",
    "NonlinearProduct",
    "PROBLEM_IDS",
    "ProblemError",
    "ProblemSpec",
    "QuadratureError",
    "Series",
    "SeriesError",
    "SolveTrace",
    "adomian_polys",
    "boundary_correct",
    "builtin",
    "caputo",
    "convergence_report",
    "default_grid",
    "eval_series",
    "evaluate_series_grid",
    "frac_integral",
    "gamma",
    "grid_error",
    "initial_value",
    "ladm_solve",
    "load_problem_file",
    "make_grid",
    "manufacture_source",
    "mldm_solve",
    "parse_expr",
    "parse_series",
    "parse_spatial",
    "residual",
    "rl_integral_quadrature",
    "series_add",
    "series_equal",
    "series_mul",
    "series_scale",
    "series_substitute",
    "spatial_apply",
    "to_series",
    "validate_consistency",
    "__version__",
]
