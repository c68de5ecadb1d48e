"""Numerical verification surface: grids, error reports, residuals, quadrature.

Everything here treats a Series as data to be evaluated, never transformed;
the one genuinely numerical object is ``rl_integral_quadrature``, an oracle
for the fractional integral that shares no code path with the closed-form
power rule it cross-checks. A series is read on the grid through the
grid's own ``symx.FactorTable`` (``Grid.table``), which builds each factor
row once per grid and sums the rows into each term's values and, for the
residual's nonlinearity, its spatial derivatives by the product rule, so no
derivative series is built; this module only scales each term's sums by
t^mu and checks that they are finite. One grid reader, ``_series_grids``,
reads many series in one table read (``FactorTable.read``): each term is
one list of it, sorted on the monomial keys the table keeps. A report reads
all the partial sums of a trace, with their derivatives, in one such read,
and each derivative key's missing factor rows take one more read.
``_derivative_grids`` is the one-series case and ``evaluate_series_grid``
its order-0 case. ``residual`` is the one residual: ``convergence_report``
hands it the grids it already holds.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .symx import ExprError, FactorTable, sorted_items
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


class EvalError(Exception):
    pass


class QuadratureError(EvalError):
    pass


class Grid:
    """Uniform evaluation lattice: space points by time points.

    The points are read-only and no field can be assigned, and the grid
    owns the factor table its series are read through (``table``), so no
    table outlives or outgrows its grid.
    """

    def __init__(self, xs: np.ndarray, ys: Optional[np.ndarray], ts: np.ndarray):
        for arr, name in ((xs, "x"), (ys, "y"), (ts, "t")):
            if arr is None:
                continue
            if arr.size < 2:
                raise EvalError(f"grid needs at least 2 {name}-points, got {arr.size}")
            # the grid's table holds rows read from these points
            arr.flags.writeable = False
        vars(self).update(xs=xs, ys=ys, ts=ts)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def table(self) -> FactorTable:
        """The factor rows on the space grid: one table per grid, built on
        first read and dropped with the grid. A pickled grid carries none."""
        return FactorTable({"x": self.xs} if self.ys is None else
                           {"x": self.xs[:, None], "y": self.ys[None, :]})

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("table", None)
        return state

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
    return make_grid(spec.domain, spec.domain_y, nx=nx, ny=ny, nt=nt, tmax=tmax)


def evaluate_series_grid(series: Series, grid: Grid) -> np.ndarray:
    """Dense evaluation, shape (nx, nt) or (nx, ny, nt).

    Coefficients are read from their polys through the grid's factor table
    (``Grid.table``). A coefficient is its monomial rows in
    ``sorted_items`` order summed from +0.0, as
    ``evaluate(expr_of_poly(poly))`` sums them; a lone monomial is not summed
    there, which only turns a -0.0 into +0.0, and that sign is lost anyway
    when the term is added into the +0.0 output. So the output is bit for
    bit the tree evaluation's, and the same ``PowerDomainError`` is raised on
    the same input. A value that is not finite raises ``EvalError``. This is
    the order-0 grid of ``_derivative_grids``.
    """
    return _derivative_grids(series, [(0, "x")], grid)[0, "x"]


def _derivative_grids(series: Series, keys, grid: Grid) -> Dict[Tuple[int, str], np.ndarray]:
    """The grid of d^order u / d var^order at u = series for each (order,
    var) in keys, built from the monomials with no derivative series: the
    one-series case of ``_series_grids``, so one table read for all its
    terms, and one more per derivative key whose factor rows the grid's
    table does not hold yet. The order-0 grid is the series' evaluation
    (``evaluate_series_grid``). A value that is not finite raises
    ``EvalError``, checked key by key in the order of keys.
    """
    return _checked(_series_grids([series], keys, grid)[0])


# the t^mu scaling may overflow past the table's read too: overflow is
# reported once, by _finite, not as a RuntimeWarning per operation
@np.errstate(all="ignore")
def _series_grids(series_list: Sequence[Series], keys,
                  grid: Grid) -> List[Dict[Tuple[int, str], np.ndarray]]:
    """For each series, its grids keyed (order, var) for each key, as
    ``_derivative_grids`` gives them but not yet checked finite, all from
    one read of the grid's factor table (``Grid.table``).

    Every term of every series is one list of that read
    (``symx.FactorTable.read``, which carries each monomial's derivatives
    by the product rule), in ``symx.sorted_items`` order, asked for
    no derivative past the highest order a key takes in each var. A list
    sums the same bits read alone or with others, so each term's sums are
    those of a read of its series alone; they are scaled by t^mu and added
    into their series' grids in term order. The read sums or raises: a
    factor row the grid cannot build raises, and no series is left out.
    No keys ask for no grids, and nothing is read.
    """
    if not keys:
        return [{} for _ in series_list]
    orders: Dict[str, int] = {}
    for order, var in keys:
        if order:
            orders[var] = max(orders.get(var, 0), order)
    table = grid.table
    terms = [term for series in series_list for term in series.terms]
    sums, jets = table.read([sorted_items(term.poly) for term in terms], orders)
    space = table.space_shape
    out: List[Dict[Tuple[int, str], np.ndarray]] = []
    end = 0
    for series in series_list:
        first, end = end, end + len(series.terms)
        value = np.zeros(space + (grid.ts.size,))
        grids = {(var, n): np.zeros_like(value) for var, top in orders.items()
                 for n in range(1, top + 1)}
        for i in range(first, end):
            # np.power(0.0, 0.0) is 1.0, which is the t -> 0+ convention here
            tpow = np.power(grid.ts, terms[i].mu)
            value += sums[i].reshape(space)[..., None] * tpow
            for key, grid_values in grids.items():
                grid_values += jets[key][i].reshape(space)[..., None] * tpow
        out.append({(order, var): value if order == 0 else grids[var, order]
                    for order, var in keys})
    return out


def _checked(grids: Dict[Tuple[int, str], np.ndarray]) -> Dict[Tuple[int, str], np.ndarray]:
    """grids, each checked finite (``_finite``) in key order."""
    return {key: _finite(values, "series") for key, values in grids.items()}


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    bad = int(values.size - np.count_nonzero(np.isfinite(values)))
    if bad:
        raise EvalError(f"{what} is not finite at {bad} of {values.size} grid points "
                        "(inf or nan); the values overflow a float")
    return values


class ErrorReport(NamedTuple):
    """Pointwise |approx - exact| with sup and root-mean-square summaries."""

    table: np.ndarray
    max_abs: float
    l2: float


def grid_error(approx: Series, exact: Series, grid: Grid) -> ErrorReport:
    table = np.abs(evaluate_series_grid(approx, grid) - evaluate_series_grid(exact, grid))
    return ErrorReport(table, *_norms(table))


def _norms(table: np.ndarray) -> Tuple[float, float]:
    """Sup and root-mean-square of a table of absolute errors.

    The squares are taken of the table scaled by a power of two near its
    sup, so a finite table past 1e154 has a finite root-mean-square; the
    scaling is exact, so the value is the unscaled one wherever that is
    finite. A zero table has norms 0, and one holding an inf or a nan has its
    sup for both."""
    top = float(table.max())
    if top == 0.0 or not math.isfinite(top):
        return top, top
    scale = math.ldexp(1.0, math.frexp(top)[1] - 1)
    return top, scale * math.sqrt(float(np.mean((table / scale) ** 2)))


def _within_caps(series: Series, approx: Series) -> Series:
    # a truncated defect would silently understate the residual
    if series.truncated and not approx.truncated:
        raise EvalError(
            "residual series overflowed its caps; the reported sup-norm would be a lie")
    return series


def _coeff_grids(nonlinear, grid: Grid) -> List[Optional[np.ndarray]]:
    """The grid of each product's series coefficient, in product order."""
    return [None if p.series_coeff is None else evaluate_series_grid(p.series_coeff, grid)
            for p in nonlinear.products]


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


@np.errstate(all="ignore")
def residual(approx: Series, spec, grid: Grid,
             coeff_grids: Optional[Sequence[Optional[np.ndarray]]] = None,
             derivs: Optional[Dict[Tuple[int, str], np.ndarray]] = None) -> float:
    """Sup-norm over the grid of D^alpha u + Qu + Nu - h at u = approx.

    D^alpha u + Qu - h is assembled as one series, and one truncated by the
    growth caps (when approx is not) raises instead of returning a number.
    No step here raises an exponent or multiplies series. Nu is added on
    the grid (``_nonlinear_grid``): the spatial derivatives it needs are
    assembled by the product rule from the grid rows of approx's factors,
    so no derivative series and no series product is formed. A caller that
    holds the grids of the nonlinearity's series coefficients
    (``_coeff_grids``) or of approx's derivatives (``_derivative_grids``)
    passes them.
    """
    if coeff_grids is None:
        coeff_grids = _coeff_grids(spec.nonlinear, grid)
    res = caputo(approx, spec.alpha)
    res = series_add(res, spec.linear.apply(approx))
    res = series_add(res, series_scale(spec.h, -1.0))
    values = evaluate_series_grid(_within_caps(res, approx), grid)
    if derivs is None:
        derivs = _derivative_grids(approx, spec.nonlinear.factor_keys(), grid)
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


def _composite(f, alpha: float, t: float, n: int) -> float:
    # imported here: only the quadrature oracle needs scipy, not a solve
    from scipy.special import roots_jacobi, roots_legendre
    xj, wj = roots_jacobi(n, alpha - 1.0, 0.0)
    half = t / 4.0
    tau = t - half * (1.0 - xj)
    total = half ** alpha * math.fsum(wj * _call_on(f, tau))
    xl, wl = roots_legendre(n)
    hi = t / 2.0
    for k in range(QUAD_PANELS - 1):
        lo = hi / 2.0 if k < QUAD_PANELS - 2 else 0.0
        mid, rad = (hi + lo) / 2.0, (hi - lo) / 2.0
        tau = mid + rad * xl
        total += rad * math.fsum(wl * ((t - tau) ** (alpha - 1.0) * _call_on(f, tau)))
        hi = lo
    return total / math.gamma(alpha)


def rl_integral_quadrature(f: Callable[[float], float], alpha: float, t: float) -> float:
    """(1/Gamma(alpha)) * integral_0^t (t - tau)^(alpha-1) f(tau) dtau.

    Runs the rule twice (``QUAD_NODES`` and half as many nodes per panel)
    and refuses to return a value the two node counts disagree on beyond
    ``QUAD_SELF_CHECK_TOL``, so an integrand beyond the fixed budget fails
    loudly instead of silently.
    """
    if not 0.0 < alpha <= 1.0:
        raise EvalError(f"alpha must lie in (0, 1], got {alpha}")
    if t < 0.0:
        raise EvalError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return 0.0
    value = _composite(f, alpha, t, QUAD_NODES)
    check = _composite(f, alpha, t, QUAD_NODES // 2)
    spread = abs(value - check) / (1.0 + abs(value))
    if spread > QUAD_SELF_CHECK_TOL:
        raise QuadratureError(
            f"quadrature self-check failed at alpha={alpha}, t={t}: "
            f"{QUAD_NODES} nodes/panel give {value!r} but {QUAD_NODES // 2} give {check!r} "
            f"(spread {spread:.3e} > {QUAD_SELF_CHECK_TOL:.1e}); "
            "the integrand varies faster than the fixed node budget resolves")
    return value


# ---------------------------------------------------------------------------
# Convergence reports.
# ---------------------------------------------------------------------------


class ConvergenceRow(NamedTuple):
    method: str
    alpha: float
    iterations: int
    max_abs: Optional[float]
    l2: Optional[float]
    residual: float
    seconds: float
    # the partial sum and the exact solution on the report's grid (exact is
    # None without one, and every row of a report shares its array); ==,
    # hash and repr read only the seven summary fields above
    values: Optional[np.ndarray] = None
    exact: Optional[np.ndarray] = None

    def __eq__(self, other):
        if not isinstance(other, ConvergenceRow):
            return NotImplemented
        return self[:-2] == other[:-2]

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self[:-2])

    def __repr__(self):
        return "ConvergenceRow(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self[:-2])) + ")"


def convergence_report(traces: Sequence, spec, grid: Grid) -> List[ConvergenceRow]:
    """One row per (trace, iteration): errors vs exact plus PDE residual.

    Each series is evaluated on the grid once per call: the exact solution
    and the nonlinearity's series coefficients for all records, and every
    partial sum of a trace, with the derivatives its residual takes, by one
    ``_series_grids`` read, all through the grid's one factor table. Each
    row's grids are bit for bit those of ``_derivative_grids`` on its
    partial sum alone. Errors keep the per-record order: the read sums or
    raises, and when it raises an ``ExprError`` each partial sum is read
    alone in its turn, after the rows of the records before it, so the
    record that cannot be read raises the same line; a grid is checked
    finite in its turn. Rows keep those grids (``values``, ``exact``) for a
    caller that writes them.
    """
    exact = evaluate_series_grid(spec.exact, grid) if spec.exact is not None else None
    coeff_grids = _coeff_grids(spec.nonlinear, grid)
    keys = list(dict.fromkeys([(0, "x")] + spec.nonlinear.factor_keys()))
    rows: List[ConvergenceRow] = []
    for trace in traces:
        seconds = 0.0
        try:
            read = _series_grids([rec.partial_sum for rec in trace.records], keys, grid)
        except ExprError:
            read = [None] * len(trace.records)
        for rec, grids in zip(trace.records, read):
            seconds += rec.seconds
            partial = rec.partial_sum
            grids = (_derivative_grids(partial, keys, grid) if grids is None
                     else _checked(grids))
            values = grids[0, "x"]
            if exact is not None:
                max_abs, l2 = _norms(np.abs(values - exact))
            else:
                max_abs, l2 = None, None
            rows.append(ConvergenceRow(trace.method, trace.alpha, rec.n,
                                       max_abs, l2,
                                       residual(partial, spec, grid, coeff_grids, grids),
                                       seconds, values, exact))
    return rows
