"""Numerical verification surface: grids, error reports, residuals, quadrature.

Everything here treats a Series as data to be evaluated, never transformed;
the one genuinely numerical object is ``rl_integral_quadrature``, an oracle
for the fractional integral that shares no code path with the closed-form
power rule it cross-checks. The spatial derivatives the residual's
nonlinearity needs are assembled on the grid by the product rule from the
value and derivative rows of each monomial factor, so no derivative series
is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .symx import (Expr, _pow_value, evaluate, factor_diff, poly_column, poly_rows,
                   sorted_items)
from .fracterm import (
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


class _FactorRows:
    """Values on the flattened space grid of monomial factors (atom, k), and
    of their first and second derivatives in x or y, each built once.

    An atom is evaluated once by ``symx.evaluate`` and raised to k by
    ``symx._pow_value``. A derivative row is the poly ``symx.factor_diff``
    gives, summed from its monomial rows as a coefficient is (``poly_row``),
    and is built only for the (var, order) a caller asks for.
    """

    def __init__(self, grid: Grid):
        if grid.ys is None:
            self.env = {"x": grid.xs}
            self.space_shape: Tuple[int, ...] = (grid.xs.size,)
        else:
            self.env = {"x": grid.xs[:, None], "y": grid.ys[None, :]}
            self.space_shape = (grid.xs.size, grid.ys.size)
        self.size = math.prod(self.space_shape)
        self.ones = np.ones(self.size)
        self.zeros = np.zeros(self.size)
        # monomials per block of rows: ROW_BLOCK values each
        self.block = max(1, ROW_BLOCK // self.size)
        self.values: Dict[Tuple[Expr, float], np.ndarray] = {}
        self._derivs: Dict[Tuple[str, int], Dict[Tuple[Expr, float], np.ndarray]] = {}
        self._atoms: Dict[Expr, object] = {}

    def fill(self, items) -> None:
        # row by row, factor by factor: a domain error surfaces at the same
        # factor as in a term-by-term evaluation
        for mono, _ in items:
            for factor in mono:
                if factor not in self.values:
                    atom, k = factor
                    if atom not in self._atoms:
                        self._atoms[atom] = evaluate(atom, self.env)
                    v = self._atoms[atom] if k == 1.0 else _pow_value(self._atoms[atom], k)
                    self.values[factor] = np.broadcast_to(
                        np.asarray(v, dtype=float), self.space_shape).reshape(self.size)

    def fill_derivs(self, items, var: str, order: int) -> Dict[Tuple[Expr, float], np.ndarray]:
        """The table of order-th var-derivative rows, holding every factor of items."""
        table = self._derivs.setdefault((var, order), {})
        for mono, _ in items:
            for factor in mono:
                if factor not in table:
                    p = factor_diff(factor[0], factor[1], var, order)
                    table[factor] = self.poly_row(sorted_items(p)) if p else self.zeros
        return table

    def poly_row(self, items) -> np.ndarray:
        """The sum of the items' monomial rows, in the given order, from +0.0."""
        self.fill(items)
        coeff = self.zeros
        for i in range(0, len(items), self.block):
            rows = poly_rows(items[i:i + self.block], self.values.__getitem__, self.ones)
            coeff = _add_rows(coeff, rows)
        return coeff


def _add_rows(running: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # one running sum from +0.0 across blocks; a sum started from +0.0 is
    # never -0.0, so restarting each block from +0.0 keeps every bit
    return np.concatenate((running[None], rows)).sum(axis=0, initial=0.0)


# overflow is reported once, by _finite, not as a RuntimeWarning per operation
@np.errstate(all="ignore")
def evaluate_series_grid(series: Series, grid: Grid) -> np.ndarray:
    """Dense evaluation, shape (nx, nt) or (nx, ny, nt).

    Coefficients are read from their polys through one factor table per
    call (``_FactorRows``). A coefficient is its ``symx.poly_rows`` in
    ``sorted_items`` order summed from +0.0, as
    ``evaluate(expr_of_poly(poly))`` sums them; a lone monomial is not summed
    there, which only turns a -0.0 into +0.0, and that sign is lost anyway
    when the term is added into the +0.0 output. So the output is bit for
    bit the tree evaluation's, and the same ``PowerDomainError`` is raised on
    the same input. Rows are built ``ROW_BLOCK`` values at a time, so a poly
    of many monomials on a fine grid takes bounded memory. A value that is
    not finite raises ``EvalError``. This is the order-0 grid of
    ``_derivative_grids``.
    """
    return _derivative_grids(series, [(0, "x")], grid)[0, "x"]


@np.errstate(all="ignore")
def _derivative_grids(series: Series, keys, grid: Grid) -> Dict[Tuple[int, str], np.ndarray]:
    """The grid of d^order u / d var^order at u = series for each (order,
    var) in keys, built from the monomials with no derivative series.

    Each monomial c * f_1 * ... * f_m is carried factor by factor with its
    first and second derivatives in every var a key asks for (forward
    mode): at factor f, u'' <- u'' f + 2 u' f' + u f'', then u' <- u' f +
    u f', then u <- u f, from u = c, u' = u'' = 0. That is the product rule
    c * sum_i f_i' prod_(j != i) f_j, plus for order 2 the f_i'' terms and
    the 2 f_i' f_j' cross terms. The factor rows f, f' and f'' come from
    ``_FactorRows``, and f'' only for a var that a key asks order 2 of, so
    no derivative past the ones asked for is evaluated. The rows are summed
    per term, ``ROW_BLOCK`` values at a time, and scaled by t^mu; the u
    rows are ``symx.poly_rows``, so the order-0 grid is the series'
    evaluation (``evaluate_series_grid``). A value that is not finite raises
    ``EvalError``.
    """
    orders: Dict[str, int] = {}
    for order, var in keys:
        if order:
            orders[var] = max(orders.get(var, 0), order)
    rows = _FactorRows(grid)
    ones, zeros = rows.ones, rows.zeros
    shape = rows.space_shape + (grid.ts.size,)
    value = np.zeros(shape)
    grids = {(var, n): np.zeros(shape) for var, top in orders.items()
             for n in range(1, top + 1)}
    for term in series.terms:
        items = sorted_items(term.poly)
        rows.fill(items)
        tables = {key: rows.fill_derivs(items, *key) for key in grids}
        coeff = zeros
        sums = dict.fromkeys(grids, zeros)
        for i in range(0, len(items), rows.block):
            chunk = items[i:i + rows.block]
            width = max(1, max(len(mono) for mono, _ in chunk))
            c = np.fromiter((c for _, c in chunk), float, len(chunk))[:, None]
            u = c * poly_column(chunk, rows.values.__getitem__, 0, ones)
            jet = {key: c * poly_column(chunk, table.__getitem__, 0, zeros)
                   for key, table in tables.items()}
            for j in range(1, width):
                f = poly_column(chunk, rows.values.__getitem__, j, ones)
                for var, top in orders.items():
                    d1 = poly_column(chunk, tables[var, 1].__getitem__, j, zeros)
                    if top == 2:
                        d2 = poly_column(chunk, tables[var, 2].__getitem__, j, zeros)
                        jet[var, 2] = jet[var, 2] * f + 2.0 * jet[var, 1] * d1 + u * d2
                    jet[var, 1] = jet[var, 1] * f + u * d1
                u *= f
            coeff = _add_rows(coeff, u)
            for key in grids:
                sums[key] = _add_rows(sums[key], jet[key])
        # np.power(0.0, 0.0) is 1.0, which is the t -> 0+ convention here
        tpow = np.power(grid.ts, term.mu)
        value += coeff.reshape(rows.space_shape)[..., None] * tpow
        for key, grid_values in grids.items():
            grid_values += sums[key].reshape(rows.space_shape)[..., None] * tpow
    out = {}
    for order, var in keys:
        out[order, var] = _finite(value if order == 0 else grids[var, order], "series")
    return out


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
    return ErrorReport(table, *_norms(table), method, alpha, iterations, mode)


def _norms(table: np.ndarray) -> Tuple[float, float]:
    """Sup and root-mean-square of a table of absolute errors."""
    return float(table.max()), float(math.sqrt(float(np.mean(table ** 2))))


def _within_caps(series: Series, approx: Series) -> Series:
    # a truncated defect would silently understate the residual
    if series.truncated and not approx.truncated:
        raise EvalError(
            "residual series overflowed its caps; the reported sup-norm would be a lie")
    return series


def _coeff_grids(nonlinear, grid: Grid) -> List[Optional[np.ndarray]]:
    """The grid of each product's series coefficient, in product order."""
    if nonlinear is None:
        return []
    return [None if p.series_coeff is None else evaluate_series_grid(p.series_coeff, grid)
            for p in nonlinear.products]


def _nonlinear_keys(nonlinear) -> List[Tuple[int, str]]:
    """The (order, var) derivatives of u the nonlinearity takes, in order."""
    products = nonlinear.products if nonlinear is not None else ()
    return list(dict.fromkeys((f.order, f.var) for p in products for f in p.factors))


def _nonlinear_grid(nonlinear, derivs: Dict[Tuple[int, str], np.ndarray], grid: Grid,
                    coeff_grids: Sequence[Optional[np.ndarray]]) -> np.ndarray:
    """N(approx) on the grid, pointwise and with no series product.

    ``derivs`` holds the grid of each (order, var) derivative of approx the
    products take, from ``_derivative_grids``, so no derivative series is
    built; the grids are multiplied in the product and power order of
    ``NonlinearOpSpec.apply``, then scaled by the product's coefficient and
    by its series coefficient's grid.
    """
    out = np.zeros(grid.shape)
    for p, coeff_grid in zip(nonlinear.products, coeff_grids):
        term = None
        for f in p.factors:
            d = derivs[f.order, f.var]
            for _ in range(f.power):
                term = d if term is None else term * d
        term = term * p.coeff
        if coeff_grid is not None:
            term = term * coeff_grid
        out += term
    return out


def residual(approx: Series, spec, grid: Grid) -> float:
    """Sup-norm over the grid of D^alpha u + Qu + Nu - h at u = approx.

    D^alpha u + Qu - h is assembled as one series, and one truncated by the
    growth caps (when approx is not) raises instead of returning a number.
    No step here raises an exponent or multiplies series. Nu is added on
    the grid (``_nonlinear_grid``): the spatial derivatives it needs are
    assembled by the product rule from the grid rows of approx's factors,
    so no derivative series and no series product is formed.
    """
    return _residual(approx, spec, grid, _coeff_grids(spec.nonlinear, grid))


@np.errstate(all="ignore")
def _residual(approx: Series, spec, grid: Grid,
              coeff_grids: Sequence[Optional[np.ndarray]],
              derivs: Optional[Dict[Tuple[int, str], np.ndarray]] = None) -> float:
    """``residual``, with the grids of the nonlinearity's series
    coefficients (``_coeff_grids`` of spec on grid) given, and optionally
    the ``_derivative_grids`` of approx that the nonlinearity takes, so
    that ``convergence_report`` evaluates each series once."""
    res = caputo(approx, spec.alpha)
    res = series_add(res, spec.linear.apply(approx))
    res = series_add(res, series_scale(spec.h, -1.0))
    values = evaluate_series_grid(_within_caps(res, approx), grid)
    if spec.nonlinear is not None:
        if derivs is None:
            derivs = _derivative_grids(approx, _nonlinear_keys(spec.nonlinear), grid)
        values += _nonlinear_grid(spec.nonlinear, derivs, grid, coeff_grids)
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
    total = half ** alpha * math.fsum(wj * _call_on(f, tau))
    xl, wl = roots_legendre(n)
    hi = t / 2.0
    for k in range(panels - 1):
        lo = hi / 2.0 if k < panels - 2 else 0.0
        mid, rad = (hi + lo) / 2.0, (hi - lo) / 2.0
        tau = mid + rad * xl
        total += rad * math.fsum(wl * ((t - tau) ** (alpha - 1.0) * _call_on(f, tau)))
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
    # the partial sum and the exact solution on the report's grid (exact is
    # None without one, and every row of a report shares its array)
    values: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    exact: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def convergence_report(traces: Sequence, spec, grid: Grid) -> List[ConvergenceRow]:
    """One row per (trace, iteration): errors vs exact plus PDE residual.

    Each series is evaluated on the grid once per call: the exact solution
    and the nonlinearity's series coefficients for all records, and each
    partial sum by one ``_derivative_grids`` pass that also gives the
    derivatives its residual takes. Rows keep those grids (``values``,
    ``exact``) for a caller that writes them.
    """
    exact = evaluate_series_grid(spec.exact, grid) if spec.exact is not None else None
    coeff_grids = _coeff_grids(spec.nonlinear, grid)
    keys = list(dict.fromkeys([(0, "x")] + _nonlinear_keys(spec.nonlinear)))
    rows: List[ConvergenceRow] = []
    for trace in traces:
        seconds = 0.0
        for rec in trace.records:
            seconds += rec.seconds
            partial = rec.partial_sum
            grids = _derivative_grids(partial, keys, grid)
            values = grids[0, "x"]
            if exact is not None:
                max_abs, l2 = _norms(np.abs(values - exact))
            else:
                max_abs, l2 = None, None
            rows.append(ConvergenceRow(trace.method, trace.alpha, rec.n,
                                       max_abs, l2,
                                       _residual(partial, spec, grid, coeff_grids, grids),
                                       seconds, values, exact))
    return rows
