"""Numerical verification surface: grids, error reports, residuals, quadrature.

Everything here treats a Series as data to be evaluated, never transformed;
the one genuinely numerical object is ``rl_integral_quadrature``, an oracle
for the fractional integral that shares no code path with the closed-form
power rule it cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .symx import evaluate
from .fracterm import (
    RESIDUAL_MAX_MU,
    RESIDUAL_MAX_TERMS,
    Series,
    caputo,
    series_add,
    series_scale,
)

__all__ = [
    "EvalError",
    "QuadratureError",
    "Grid",
    "ErrorReport",
    "ConvergenceRow",
    "make_grid",
    "default_grid",
    "evaluate_series_grid",
    "grid_error",
    "residual",
    "rl_integral_quadrature",
    "convergence_report",
]

QUAD_NODES = 64
QUAD_PANELS = 16
QUAD_SELF_CHECK_TOL = 1e-9

DEFAULT_NX = 41
DEFAULT_NY = 41
DEFAULT_NT = 21
DEFAULT_TMAX = 1.0


class EvalError(Exception):
    pass


class QuadratureError(EvalError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform evaluation lattice: space points by time points."""

    xs: np.ndarray
    ys: Optional[np.ndarray]
    ts: np.ndarray

    def __post_init__(self):
        for arr, name in ((self.xs, "x"), (self.ys, "y"), (self.ts, "t")):
            if arr is None:
                continue
            if arr.size < 2:
                raise EvalError(f"grid needs at least 2 {name}-points, got {arr.size}")

    @property
    def dimension(self) -> int:
        return 1 if self.ys is None else 2

    @property
    def shape(self) -> Tuple[int, ...]:
        if self.ys is None:
            return (self.xs.size, self.ts.size)
        return (self.xs.size, self.ys.size, self.ts.size)


def make_grid(domain: Tuple[float, float], domain_y: Optional[Tuple[float, float]] = None,
              nx: int = DEFAULT_NX, ny: int = DEFAULT_NY, nt: int = DEFAULT_NT,
              tmax: float = DEFAULT_TMAX) -> Grid:
    if nx < 2 or nt < 2 or (domain_y is not None and ny < 2):
        raise EvalError("grid counts must be at least 2")
    if tmax <= 0.0:
        raise EvalError(f"tmax must be positive, got {tmax}")
    xs = np.linspace(domain[0], domain[1], nx)
    ys = np.linspace(domain_y[0], domain_y[1], ny) if domain_y is not None else None
    ts = np.linspace(0.0, tmax, nt)
    return Grid(xs, ys, ts)


def default_grid(spec, nx: int = DEFAULT_NX, ny: int = DEFAULT_NY, nt: int = DEFAULT_NT,
                 tmax: float = DEFAULT_TMAX) -> Grid:
    return make_grid(spec.domain, spec.domain_y if spec.dimension == 2 else None,
                     nx=nx, ny=ny, nt=nt, tmax=tmax)


def evaluate_series_grid(series: Series, grid: Grid) -> np.ndarray:
    """Dense evaluation, shape (nx, nt) or (nx, ny, nt)."""
    if grid.ys is None:
        env = {"x": grid.xs}
        space_shape: Tuple[int, ...] = (grid.xs.size,)
    else:
        env = {"x": grid.xs[:, None], "y": grid.ys[None, :]}
        space_shape = (grid.xs.size, grid.ys.size)
    out = np.zeros(space_shape + (grid.ts.size,))
    for term in series.terms:
        coeff = np.broadcast_to(np.asarray(evaluate(term.coeff, env), dtype=float),
                                space_shape)
        # np.power(0.0, 0.0) is 1.0, which is the t -> 0+ convention here
        tpow = np.power(grid.ts, term.mu)
        out += coeff[..., None] * tpow
    return out


@dataclass(frozen=True)
class ErrorReport:
    """Pointwise |approx - exact| with sup and root-mean-square summaries."""

    table: np.ndarray
    max_abs: float
    l2: float
    method: str = ""
    alpha: float = float("nan")
    iterations: int = -1
    mode: str = ""
    residual: Optional[float] = None


def grid_error(approx: Series, exact: Series, grid: Grid, method: str = "",
               alpha: float = float("nan"), iterations: int = -1,
               mode: str = "") -> ErrorReport:
    table = np.abs(evaluate_series_grid(approx, grid) - evaluate_series_grid(exact, grid))
    max_abs = float(table.max())
    l2 = float(math.sqrt(float(np.mean(table ** 2))))
    return ErrorReport(table, max_abs, l2, method, alpha, iterations, mode)


def residual(approx: Series, spec, grid: Grid) -> float:
    """Sup-norm over the grid of D^alpha u + Qu + Nu - h at u = approx.

    The defect series is assembled under caps far above the solver defaults;
    a truncated defect would silently understate the residual, so that case
    raises instead of returning a number.
    """
    mt, mm = RESIDUAL_MAX_TERMS, RESIDUAL_MAX_MU
    res = caputo(approx, spec.alpha, mt, mm)
    res = series_add(res, spec.linear.apply(approx, mt, mm), mt, mm)
    if spec.nonlinear is not None:
        res = series_add(res, spec.nonlinear.apply(approx, mt, mm), mt, mm)
    res = series_add(res, series_scale(spec.h, -1.0, mt, mm), mt, mm)
    if res.truncated and not approx.truncated:
        raise EvalError(
            "residual series overflowed its caps; the reported sup-norm would be a lie")
    return float(np.abs(evaluate_series_grid(res, grid)).max())


# ---------------------------------------------------------------------------
# Quadrature oracle. Composite graded rule: the panel touching tau = t uses
# Gauss-Jacobi with weight (t - tau)^(alpha - 1), which absorbs the kernel
# singularity exactly; the rest of [0, t] is covered by Gauss-Legendre panels
# graded geometrically toward tau = 0 so that mild fractional-power behaviour
# of f at the origin cannot poison the fixed node budget.
# ---------------------------------------------------------------------------


def _call_on(f: Callable[[float], float], tau: np.ndarray) -> np.ndarray:
    try:
        arr = np.asarray(f(tau), dtype=float)
        if arr.shape == tau.shape:
            return arr
    except (TypeError, ValueError):
        pass
    return np.array([float(f(float(v))) for v in tau])


def _composite(f, alpha: float, t: float, n: int, panels: int) -> float:
    xj, wj = roots_jacobi(n, alpha - 1.0, 0.0)
    half = t / 4.0
    tau = t - half * (1.0 - xj)
    total = half ** alpha * float(wj @ _call_on(f, tau))
    xl, wl = roots_legendre(n)
    hi = t / 2.0
    for k in range(panels - 1):
        lo = hi / 2.0 if k < panels - 2 else 0.0
        mid, rad = (hi + lo) / 2.0, (hi - lo) / 2.0
        tau = mid + rad * xl
        total += rad * float(wl @ ((t - tau) ** (alpha - 1.0) * _call_on(f, tau)))
        hi = lo
    return total / math.gamma(alpha)


def rl_integral_quadrature(f: Callable[[float], float], alpha: float, t: float,
                           n: int = QUAD_NODES, panels: int = QUAD_PANELS,
                           self_check_tol: float = QUAD_SELF_CHECK_TOL) -> float:
    """(1/Gamma(alpha)) * integral_0^t (t - tau)^(alpha-1) f(tau) dtau.

    Runs the rule twice (n and n/2 nodes per panel) and refuses to return a
    value the two node counts disagree on, so an integrand beyond the fixed
    budget fails loudly instead of silently.
    """
    if not 0.0 < alpha <= 1.0:
        raise EvalError(f"alpha must lie in (0, 1], got {alpha}")
    if t < 0.0:
        raise EvalError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return 0.0
    value = _composite(f, alpha, t, n, panels)
    check = _composite(f, alpha, t, max(n // 2, 2), panels)
    spread = abs(value - check) / (1.0 + abs(value))
    if spread > self_check_tol:
        raise QuadratureError(
            f"quadrature self-check failed at alpha={alpha}, t={t}: "
            f"{n} nodes/panel give {value!r} but {n // 2} give {check!r} "
            f"(spread {spread:.3e} > {self_check_tol:.1e}); "
            "the integrand varies faster than the fixed node budget resolves")
    return value


# ---------------------------------------------------------------------------
# Convergence reports.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    method: str
    alpha: float
    iterations: int
    max_abs: Optional[float]
    l2: Optional[float]
    residual: float
    seconds: float


def convergence_report(traces: Sequence, spec, grid: Grid) -> List[ConvergenceRow]:
    """One row per (trace, iteration): errors vs exact plus PDE residual."""
    rows: List[ConvergenceRow] = []
    for trace in traces:
        seconds = 0.0
        for rec in trace.records:
            seconds += rec.seconds
            partial = rec.partial_sum
            if spec.exact is not None:
                rep = grid_error(partial, spec.exact, grid)
                max_abs, l2 = rep.max_abs, rep.l2
            else:
                max_abs, l2 = None, None
            rows.append(ConvergenceRow(trace.method, trace.alpha, rec.n,
                                       max_abs, l2, residual(partial, spec, grid),
                                       seconds))
    return rows
