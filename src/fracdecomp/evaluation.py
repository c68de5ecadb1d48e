"""Numerical verification surface: grids, error reports, residuals, quadrature.

Everything here treats a Series as data to be evaluated, never transformed;
the one genuinely numerical object is ``rl_integral_quadrature``, an oracle
for the fractional integral that shares no code path with the closed-form
power rule it cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .symx import Expr, _pow_value, evaluate, poly_rows, sorted_items
from .fracterm import (
    Series,
    caputo,
    series_add,
    series_scale,
    spatial_apply,
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
# Values per block of monomial rows in grid evaluation (8 bytes each).
ROW_BLOCK = 1 << 16


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
    if not 0.0 < tmax < math.inf:
        raise EvalError(f"tmax must be positive and finite, got {tmax}")
    xs = np.linspace(domain[0], domain[1], nx)
    ys = np.linspace(domain_y[0], domain_y[1], ny) if domain_y is not None else None
    ts = np.linspace(0.0, tmax, nt)
    return Grid(xs, ys, ts)


def default_grid(spec, nx: int = DEFAULT_NX, ny: int = DEFAULT_NY, nt: int = DEFAULT_NT,
                 tmax: float = DEFAULT_TMAX) -> Grid:
    return make_grid(spec.domain, spec.domain_y if spec.dimension == 2 else None,
                     nx=nx, ny=ny, nt=nt, tmax=tmax)


# overflow is reported once, by _finite, not as a RuntimeWarning per operation
@np.errstate(all="ignore")
def evaluate_series_grid(series: Series, grid: Grid) -> np.ndarray:
    """Dense evaluation, shape (nx, nt) or (nx, ny, nt).

    Coefficients are read from their polys through one factor table per
    call: (atom, k) -> values on the space grid, with each atom evaluated
    once by ``symx.evaluate`` and raised to k by ``symx._pow_value``. A
    coefficient is its ``symx.poly_rows`` in ``sorted_items`` order summed from
    +0.0, as ``evaluate(expr_of_poly(poly))`` sums them; a lone monomial is
    not summed there, which only turns a -0.0 into +0.0, and that sign is
    lost anyway when the term is added into the +0.0 output. So the output
    is bit for bit the tree evaluation's, and the same ``PowerDomainError``
    is raised on the same input. Rows are built ``ROW_BLOCK`` values at a
    time, so a poly of many monomials on a fine grid takes bounded memory.
    A value that is not finite raises ``EvalError``.
    """
    if grid.ys is None:
        env = {"x": grid.xs}
        space_shape: Tuple[int, ...] = (grid.xs.size,)
    else:
        env = {"x": grid.xs[:, None], "y": grid.ys[None, :]}
        space_shape = (grid.xs.size, grid.ys.size)
    size = math.prod(space_shape)
    ones = np.ones(size)
    atoms: Dict[Expr, object] = {}
    table: Dict[Tuple[Expr, float], np.ndarray] = {}

    def fill(items) -> None:
        # row by row, factor by factor: a domain error surfaces at the same
        # factor as in a term-by-term evaluation
        for mono, _ in items:
            for factor in mono:
                if factor not in table:
                    atom, k = factor
                    if atom not in atoms:
                        atoms[atom] = evaluate(atom, env)
                    v = atoms[atom] if k == 1.0 else _pow_value(atoms[atom], k)
                    table[factor] = np.broadcast_to(
                        np.asarray(v, dtype=float), space_shape).reshape(size)

    out = np.zeros(space_shape + (grid.ts.size,))
    block = max(1, ROW_BLOCK // size)
    for term in series.terms:
        items = sorted_items(term.poly)
        fill(items)
        # one running sum from +0.0 across blocks; a sum started from +0.0 is
        # never -0.0, so restarting each block from +0.0 keeps every bit
        coeff = np.zeros(size)
        for i in range(0, len(items), block):
            rows = poly_rows(items[i:i + block], table.__getitem__, ones)
            coeff = np.concatenate((coeff[None], rows)).sum(axis=0, initial=0.0)
        # np.power(0.0, 0.0) is 1.0, which is the t -> 0+ convention here
        tpow = np.power(grid.ts, term.mu)
        out += coeff.reshape(space_shape)[..., None] * tpow
    return _finite(out, "series")


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    bad = int(values.size - np.count_nonzero(np.isfinite(values)))
    if bad:
        raise EvalError(f"{what} is not finite at {bad} of {values.size} grid points "
                        "(inf or nan); the values overflow a float")
    return values


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


def _within_caps(series: Series, approx: Series) -> Series:
    # a truncated defect would silently understate the residual
    if series.truncated and not approx.truncated:
        raise EvalError(
            "residual series overflowed its caps; the reported sup-norm would be a lie")
    return series


def _nonlinear_grid(nonlinear, approx: Series, grid: Grid) -> np.ndarray:
    """N(approx) on the grid, pointwise and with no series product.

    Each distinct (order, var) derivative of approx is evaluated once; the
    arrays are multiplied in the product and power order of
    ``NonlinearOpSpec.apply``, then scaled by the product's coefficient and
    by the grid values of its series coefficient.
    """
    derivs: Dict[Tuple[int, str], np.ndarray] = {}
    out = np.zeros(grid.shape)
    for p in nonlinear.products:
        term = None
        for f in p.factors:
            key = (f.order, f.var)
            d = derivs.get(key)
            if d is None:
                d = _within_caps(spatial_apply(approx, f.order, f.var), approx)
                d = derivs[key] = evaluate_series_grid(d, grid)
            for _ in range(f.power):
                term = d if term is None else term * d
        term = term * p.coeff
        if p.series_coeff is not None:
            term = term * evaluate_series_grid(p.series_coeff, grid)
        out += term
    return out


@np.errstate(all="ignore")
def residual(approx: Series, spec, grid: Grid) -> float:
    """Sup-norm over the grid of D^alpha u + Qu + Nu - h at u = approx.

    D^alpha u + Qu - h is assembled as one series, and one truncated by the
    growth caps (when approx is not) raises instead of returning a number.
    No step here raises an exponent or multiplies series. Nu is added on
    the grid (``_nonlinear_grid``), so no series product is formed.
    """
    res = caputo(approx, spec.alpha)
    res = series_add(res, spec.linear.apply(approx))
    res = series_add(res, series_scale(spec.h, -1.0))
    values = evaluate_series_grid(_within_caps(res, approx), grid)
    if spec.nonlinear is not None:
        values += _nonlinear_grid(spec.nonlinear, approx, grid)
    return float(np.abs(_finite(values, "residual")).max())


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
    # imported here: only the quadrature oracle needs scipy, not a solve
    from scipy.special import roots_jacobi, roots_legendre
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
                                       max_abs, l2,
                                       residual(partial, spec, grid),
                                       seconds))
    return rows
