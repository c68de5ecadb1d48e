"""Symbolic-numeric solvers for time-fractional initial-boundary value problems.

The package splits into a small expression engine (symx), a fractional power
series algebra on top of it (fracterm), the decomposition solvers with their
boundary correction (decomp), a registry of benchmark problems with a
manufactured-source audit (problems), numerical verification tools
(evaluation), an expression grammar for problem files (grammar), and the
self-check suite behind the CLI's verify command (acceptance).

``import fracdecomp`` loads no submodule and no numpy: each name below, and
each submodule, is imported on first access (PEP 562). So ``python -m
fracdecomp.cli`` runs the CLI module's first lines before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("DecompError", "IterationRecord", "LinearOpSpec", "LinearTerm",
                     "NonlinearFactor", "NonlinearOpSpec", "NonlinearProduct",
                     "SolveTrace", "adomian_polys", "boundary_correct", "ladm_solve",
                     "mldm_solve"), "decomp"),
    **dict.fromkeys(("EvalError", "Grid", "QuadratureError", "convergence_report",
                     "default_grid", "evaluate_series_grid", "grid_error", "make_grid",
                     "residual", "rl_integral_quadrature"), "evaluation"),
    **dict.fromkeys(("CaputoRangeError", "Series", "SeriesError", "caputo",
                     "frac_integral", "gamma", "initial_value", "series_add",
                     "series_equal", "series_mul", "series_scale", "series_substitute",
                     "spatial_apply", "to_series"), "fracterm"),
    **dict.fromkeys(("GrammarError", "parse_expr", "parse_series", "parse_spatial"),
                    "grammar"),
    **dict.fromkeys(("MODES", "PROBLEM_IDS", "ConsistencyReport", "ProblemError",
                     "ProblemSpec", "builtin", "load_problem_file", "manufacture_source",
                     "validate_consistency"), "problems"),
}

_SUBMODULES = ("acceptance", "cli", "decomp", "evaluation", "fracterm", "grammar",
               "problems", "symx")

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
