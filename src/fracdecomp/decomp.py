"""Decomposition solvers for D^alpha u + Qu + Nu = h on a box.

Two iterations over the series class:

* ``ladm_solve`` -- the classical decomposition: u_0 = f + I^alpha h, then
  u_{j+1} = -I^alpha(Q u_j + A_j) with Adomian polynomials A_j. The minus
  sign encodes the PDE as D^alpha u = h - Qu - Nu, which is the orientation
  under which every benchmark converges.

* ``mldm_solve`` -- the boundary-corrected variant. After each new term the
  n-term partial sum is pulled onto the Dirichlet data by linear blending
  (``boundary_correct``), and the recursion advances through the corrected
  increments u*_n = S*_n - S*_{n-1}:

      u_{n+1} = -I^alpha(Q u*_n + B*_n),

  where the B*_n are the telescoping difference polynomials
  B*_0 = N(u*_0), B*_n = N(sum_{i<=n} u*_i) - N(sum_{i<=n-1} u*_i).
  Because the correction is affine, u*_0 is u_0 corrected against the full
  boundary data and every later u*_n is u_n corrected against zero residual
  data; each corrected partial sum interpolates the boundary exactly.

The returned approximation after n iterations is sum_{i<=n} u*_i.

Neither solver redoes what an earlier step already built: ``ladm_solve``
differentiates each u_k once, keeps the inner grades of a degree-3 product,
and forms A_n alone, each grade of a product in one ``series_dot`` call
(``adomian_polys`` returns A_0..A_n through the same grade-n routine). Nor
does either build what no later step reads: A_N and B*_N only feed
u_{N+1}, so the final record of an N-iteration solve carries no polynomial.

No solver takes a growth cap: every series is held to the one pair that
``fracterm`` fixes, so a library solve is the CLI's solve. A step whose
series meets a cap is still recorded, marked ``truncated``, and the solve
stops there with ``stopped_early`` set.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .symx import Const, Cos, Expr, Sin, Var, poly_of, poly_substitute, simplify
from .fracterm import (
    Series,
    frac_integral,
    series_add,
    series_dot,
    series_equal,
    series_mul,
    series_scale,
    series_substitute,
    spatial_apply,
)

__all__ = [
    "DecompError",
    "LinearTerm",
    "LinearOpSpec",
    "NonlinearFactor",
    "NonlinearProduct",
    "NonlinearOpSpec",
    "BoundaryData",
    "IterationRecord",
    "SolveTrace",
    "boundary_correct",
    "adomian_polys",
    "ladm_solve",
    "mldm_solve",
]

MAX_NONLINEAR_DEGREE = 3
CORNER_TOL = 1e-12
POLISH_TOL = 1e-13
POLISH_ROUNDS = 2


class DecompError(Exception):
    pass


# ---------------------------------------------------------------------------
# Operator specifications.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearTerm:
    """coeff * (d^order/d var^order) u; order 0 ignores var."""

    order: int
    var: str
    coeff: float

    def __post_init__(self):
        if self.order not in (0, 1, 2):
            raise DecompError(f"linear term order {self.order} unsupported")
        if self.var not in ("x", "y"):
            raise DecompError(f"linear term variable {self.var!r} unsupported")


@dataclass(frozen=True)
class LinearOpSpec:
    terms: Tuple[LinearTerm, ...] = ()

    @staticmethod
    def of(*triples) -> "LinearOpSpec":
        return LinearOpSpec(tuple(LinearTerm(o, v, float(c)) for o, v, c in triples))

    def is_empty(self) -> bool:
        return not self.terms

    def apply(self, u: Series) -> Series:
        out = Series.zero()
        for t in self.terms:
            d = spatial_apply(u, t.order, t.var)
            out = series_add(out, series_scale(d, t.coeff))
        return out

    def describe(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for t in self.terms:
            head = "u" if t.order == 0 else ("u_" + t.var * t.order)
            c = "" if t.coeff == 1.0 else ("-" if t.coeff == -1.0 else f"{t.coeff:g}*")
            bits.append(f"{c}{head}")
        return " + ".join(bits).replace("+ -", "- ")


@dataclass(frozen=True)
class NonlinearFactor:
    """(d^order/d var^order u)^power inside a product."""

    order: int
    var: str = "x"
    power: int = 1

    def __post_init__(self):
        if self.order not in (0, 1, 2):
            raise DecompError(f"nonlinear factor order {self.order} unsupported")
        if self.power < 1:
            raise DecompError("nonlinear factor power must be >= 1")


@dataclass(frozen=True)
class NonlinearProduct:
    coeff: float
    factors: Tuple[NonlinearFactor, ...]
    series_coeff: Optional[Series] = None

    def degree(self) -> int:
        return sum(f.power for f in self.factors)


@dataclass(frozen=True)
class NonlinearOpSpec:
    """Sum of products of spatial derivatives of u, total degree <= 3.

    A product may carry a multiplicative Series coefficient; a degree-1
    product with such a coefficient is exactly a time-dependent linear
    term, which the difference polynomials evaluate on the newest
    corrected increment (lagged).
    """

    products: Tuple[NonlinearProduct, ...]

    def __post_init__(self):
        if not self.products:
            raise DecompError("empty nonlinear operator; use None instead")
        for p in self.products:
            if p.degree() > MAX_NONLINEAR_DEGREE:
                raise DecompError(
                    f"nonlinearity degree {p.degree()} beyond supported {MAX_NONLINEAR_DEGREE}")

    def apply(self, u: Series) -> Series:
        # N(u) is grade 0 of the Adomian bookkeeping with u as the only grade
        return _adomian_grade(self, {k: [spatial_apply(u, *k)] for k in self.factor_keys()},
                              {}, 0)

    def factor_keys(self) -> List[Tuple[int, str]]:
        """The distinct (order, var) spatial derivatives the products multiply,
        in first-seen order."""
        return list(dict.fromkeys((f.order, f.var)
                                  for p in self.products for f in p.factors))

    def describe(self) -> str:
        bits = []
        for p in self.products:
            facs = []
            for f in p.factors:
                head = "u" if f.order == 0 else ("u_" + f.var * f.order)
                facs.append(head if f.power == 1 else f"{head}^{f.power}")
            body = "*".join(facs)
            if p.series_coeff is not None:
                body = f"({p.series_coeff})*{body}"
            c = "" if p.coeff == 1.0 else ("-" if p.coeff == -1.0 else f"{p.coeff:g}*")
            bits.append(f"{c}{body}")
        return " + ".join(bits).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Boundary data.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet data: (g0, g1) on a 1D interval or four faces on a box.

    2D face conventions: gx0/gx1 are functions of (y, t) on x = l_x / x = L_x;
    gy0/gy1 are functions of (x, t) on y = l_y / y = L_y.
    """

    dimension: int
    g0: Optional[Series] = None
    g1: Optional[Series] = None
    gx0: Optional[Series] = None
    gx1: Optional[Series] = None
    gy0: Optional[Series] = None
    gy1: Optional[Series] = None

    @staticmethod
    def interval(g0: Series, g1: Series) -> "BoundaryData":
        return BoundaryData(1, g0=g0, g1=g1)

    @staticmethod
    def box(gx0: Series, gx1: Series, gy0: Series, gy1: Series) -> "BoundaryData":
        return BoundaryData(2, gx0=gx0, gx1=gx1, gy0=gy0, gy1=gy1)

    def faces(self):
        if self.dimension == 1:
            return {"g0": self.g0, "g1": self.g1}
        return {"gx0": self.gx0, "gx1": self.gx1, "gy0": self.gy0, "gy1": self.gy1}


def check_corner_compatibility(bd: BoundaryData, domain_x, domain_y) -> None:
    """The four faces must agree where they meet (tol 1e-12), else correcting
    x then y cannot hit all faces."""
    if bd.dimension != 2:
        return
    lx, Lx = domain_x
    ly, Ly = domain_y
    corners = [
        (bd.gx0, "y", ly, bd.gy0, "x", lx),
        (bd.gx0, "y", Ly, bd.gy1, "x", lx),
        (bd.gx1, "y", ly, bd.gy0, "x", Lx),
        (bd.gx1, "y", Ly, bd.gy1, "x", Lx),
    ]
    for fa, va, pa, fb, vb, pb in corners:
        a = series_substitute(fa, va, pa)
        b = series_substitute(fb, vb, pb)
        if not series_equal(a, b, tol=CORNER_TOL):
            raise DecompError(
                f"incompatible corner data at ({vb}={pb}, {va}={pa}): {a} vs {b}")


def _weights(lo: float, hi: float, var: str, mode: str) -> Tuple[Expr, Expr]:
    if hi == lo:
        raise DecompError(f"degenerate domain [{lo}, {hi}]")
    v = Var(var)
    if mode == "normalized":
        span = hi - lo
        return simplify((Const(hi) - v) / span), simplify((v - Const(lo)) / span)
    if mode == "paper-literal":
        return simplify(Const(1.0) - v), v
    raise DecompError(f"unknown weight mode {mode!r}")


def _trace_gap(u: Series, g: Series, var: str, at: float) -> Series:
    tr = series_substitute(u, var, at)
    return series_add(g, series_scale(tr, -1.0))


def _gap_height(gap: Series) -> float:
    worst = 0.0
    for t in gap.terms:
        for c in t.poly.values():
            worst = max(worst, abs(c))
    return worst


def _max_trig_scale(u: Series, var: str) -> float:
    """Largest |d(arg)/d(var)| over the sin/cos atoms of u's coefficients."""
    key = ((Var(var), 1.0),)
    worst = 0.0
    for t in u.terms:
        for mono in t.poly:
            for atom, _ in mono:
                if isinstance(atom, (Sin, Cos)):
                    worst = max(worst, abs(poly_of(atom.arg).get(key, 0.0)))
    return worst


def _correct_1d(u: Series, g_lo: Series, g_hi: Series, lo: float, hi: float,
                var: str, mode: str) -> Series:
    w_lo, w_hi = _weights(lo, hi, var, mode)
    lo_gap = _trace_gap(u, g_lo, var, lo)
    hi_gap = _trace_gap(u, g_hi, var, hi)
    adj = series_add(series_scale(lo_gap, w_lo), series_scale(hi_gap, w_hi))
    out = series_add(u, adj)
    if mode != "normalized":
        # the paper-literal weights only interpolate on [0, 1]; polishing
        # their residue would hide that, so return the blend as computed
        return out
    return _polish_1d(out, g_lo, g_hi, lo, hi, var)


def _polish_1d(u: Series, g_lo: Series, g_hi: Series, lo: float, hi: float,
               var: str) -> Series:
    """Cancel the float residue the affine blend leaves at the endpoints.

    When the uncorrected iterate carries coefficients around 1e16 (the
    divergent benchmarks do by the fourth iterate), the measured-gap blend
    cannot land closer to the data than half an ulp of those coefficients,
    and a repeat of the same blend is absorbed into the large poly slots it
    collides with. Writing the residue onto cosine slots that the series
    does not contain keeps it exactly, so one re-measurement per round
    cancels it; coefficients of the polish terms are at the dust scale, so
    convergent runs are untouched (the gate below never trips for them).
    """
    span = hi - lo
    v = Var(var)
    q_step = _max_trig_scale(u, var) or math.pi
    q_next = 1.5
    for _ in range(POLISH_ROUNDS):
        lo_gap = _trace_gap(u, g_lo, var, lo)
        hi_gap = _trace_gap(u, g_hi, var, hi)
        if max(_gap_height(lo_gap), _gap_height(hi_gap)) <= POLISH_TOL:
            break
        # two fresh slots per round: f1 = cos(q1 (x-lo)) hits (1, v1) at the
        # endpoints and f2 = w_hi cos(q2 (x-lo)) hits (~0, v2); solving the
        # triangular pair pins both ends, and the realized endpoint values
        # come from the same substitution the re-measurement will use
        f1 = Cos(simplify(Const(q_step * q_next) * (v - Const(lo))))
        v1 = _endpoint_value(f1, var, hi)
        q_next += 0.5
        while True:
            f2 = simplify(((v - Const(lo)) / span)
                          * Cos(Const(q_step * q_next) * (v - Const(lo))))
            v2 = _endpoint_value(f2, var, hi)
            q_next += 0.5
            if abs(v2) >= 0.1:
                break
        d1 = lo_gap
        d2 = series_scale(series_add(hi_gap, series_scale(d1, -v1)), 1.0 / v2)
        u = series_add(u, series_scale(d1, f1))
        u = series_add(u, series_scale(d2, f2))
    return u


def _endpoint_value(f: Expr, var: str, at: float) -> float:
    return poly_substitute(poly_of(f), var, at).get((), 0.0)


def boundary_correct(u: Series, bd: BoundaryData, domain,
                     domain_y=None, weights: str = "normalized") -> Series:
    """Blend u onto the Dirichlet data with affine weights.

    1D: u* = u + w_l(x)[g0 - u(l,.)] + w_L(x)[g1 - u(L,.)], where the
    normalized weights are (L-x)/(L-l) and (x-l)/(L-l) (the paper-literal
    toggle keeps (1-x) and x, which only interpolate on [0,1]). In 2D the
    same blend runs in x, then in y on the x-corrected sum; with compatible
    corners the result matches all four faces exactly.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if bd.dimension == 1:
        return _correct_1d(u, bd.g0, bd.g1, lo, hi, "x", weights)
    if domain_y is None:
        raise DecompError("2D correction needs domain_y")
    out = _correct_1d(u, bd.gx0, bd.gx1, lo, hi, "x", weights)
    return _correct_1d(out, bd.gy0, bd.gy1, float(domain_y[0]), float(domain_y[1]),
                       "y", weights)


# ---------------------------------------------------------------------------
# Decomposition polynomials.
# ---------------------------------------------------------------------------


def _grade_product(a: Sequence[Series], b: Sequence[Series], g: int) -> Series:
    """Grade g of the product of two graded lists: sum_{ga=0..g} a[ga] b[g-ga].

    One ``series_dot`` call forms it: each exponent group of the grade is
    summed in one reduction over its term pairs, ga ascending, so a grade
    comes out of the same float operations however many other grades are
    built. Its rounding is not that of adding the g + 1 products one by one.
    """
    return series_dot(a[:g + 1], b[g::-1])


def _adomian_grade(nonlinear: NonlinearOpSpec,
                   derivs: Dict[Tuple[int, str], Sequence[Series]],
                   inner: Dict[tuple, List[Series]], n: int) -> Series:
    """A_n alone, from derivs[(order, var)][k] = d^order u_k / d var^order, k <= n.

    A product of degree d convolves its factors left to right; the last
    convolution forms only grade n. The inner ones keep their grades in
    inner, under the factor keys multiplied so far, and form only the grades
    missing up to n: grade g reads grades 0..g alone, so a kept grade is the
    one a fresh build would form.
    """
    acc = None
    for p in nonlinear.products:
        chain = [(f.order, f.var) for f in p.factors for _ in range(f.power)]
        graded = derivs[chain[0]]
        for i in range(1, len(chain) - 1):
            prev, graded = graded, inner.setdefault(tuple(chain[:i + 1]), [])
            for g in range(len(graded), n + 1):
                graded.append(_grade_product(prev, derivs[chain[i]], g))
        if len(chain) > 1:
            term = _grade_product(graded, derivs[chain[-1]], n)
        else:
            term = graded[n]
        term = series_scale(term, p.coeff)
        if p.series_coeff is not None:
            term = series_mul(term, p.series_coeff)
        acc = term if acc is None else series_add(acc, term)
    return acc


def adomian_polys(nonlinear: NonlinearOpSpec, u_list: Sequence[Series]) -> List[Series]:
    """A_0..A_n for N(sum_k lambda^k u_k) by grade bookkeeping.

    Each u_k carries grade k; products convolve grades, and A_j collects
    total grade j -- the coefficient of lambda^j, with no symbolic lambda.
    """
    if not u_list:
        raise DecompError("adomian_polys needs at least u_0")
    derivs = {(order, var): [spatial_apply(u, order, var) for u in u_list]
              for order, var in nonlinear.factor_keys()}
    inner: Dict[tuple, List[Series]] = {}
    return [_adomian_grade(nonlinear, derivs, inner, j) for j in range(len(u_list))]


# ---------------------------------------------------------------------------
# Traces and drivers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IterationRecord:
    """One step of a solve.

    ``poly`` is A_n (ladm) or B*_n (mldm), which only u_{n+1} needs: it is
    None on the final record, and for problems without a nonlinearity.
    """

    n: int
    u: Series                      # raw term from the recursion
    u_star: Series                 # corrected increment (ladm: == u)
    poly: Optional[Series]         # A_n or B*_n, when u_{n+1} needs it
    partial_sum: Series            # sum of u_star up to n
    seconds: float


@dataclass(frozen=True)
class SolveTrace:
    method: str
    alpha: float
    weights: Optional[str]
    records: Tuple[IterationRecord, ...]
    truncated: bool
    stopped_early: bool

    @property
    def approximation(self) -> Series:
        return self.records[-1].partial_sum

    def partial(self, n: int) -> Series:
        return self.records[n].partial_sum


def _any_truncated(*series: Series) -> bool:
    return any(s.truncated for s in series)


def ladm_solve(problem, iterations: int) -> SolveTrace:
    """Classical decomposition trace with iterations+1 records (n = 0..iterations)."""
    if iterations < 0:
        raise DecompError("iterations must be >= 0")
    alpha = problem.alpha
    records = []
    # per (order, var) factor, the derivatives of u_0..u_n: each u_k is
    # differentiated once, and A_n is built alone from them and from the
    # inner grades kept since A_0
    derivs: Dict[Tuple[int, str], List[Series]] = (
        {key: [] for key in problem.nonlinear.factor_keys()}
        if problem.nonlinear is not None else {})
    inner: Dict[tuple, List[Series]] = {}
    partial = Series.zero()
    truncated = False
    stopped = False
    u = series_add(problem.f, frac_integral(problem.h, alpha))
    for n in range(iterations + 1):
        t0 = time.perf_counter()
        partial = series_add(partial, u)
        poly = None
        if problem.nonlinear is not None and n < iterations:
            for (order, var), ds in derivs.items():
                ds.append(spatial_apply(u, order, var))
            poly = _adomian_grade(problem.nonlinear, derivs, inner, n)
        step_trunc = _any_truncated(u, partial) or (poly is not None and poly.truncated)
        truncated = truncated or step_trunc
        records.append(IterationRecord(n, u, u, poly, partial, time.perf_counter() - t0))
        if step_trunc:
            stopped = n < iterations
            break
        if n < iterations:
            rhs = problem.linear.apply(u)
            if poly is not None:
                rhs = series_add(rhs, poly)
            u = series_scale(frac_integral(rhs, alpha), -1.0)
    return SolveTrace("ladm", alpha, None, tuple(records), truncated, stopped)


def mldm_solve(problem, iterations: int, weights: str = "normalized") -> SolveTrace:
    """Boundary-corrected decomposition trace.

    Records hold the raw term u_n, the corrected increment u*_n and the
    corrected partial sum S*_n; S*_n interpolates the boundary data exactly
    at every n.
    """
    if iterations < 0:
        raise DecompError("iterations must be >= 0")
    if problem.bd is None:
        raise DecompError("mldm_solve needs boundary data")
    if problem.dimension == 2:
        check_corner_compatibility(problem.bd, problem.domain, problem.domain_y)
    alpha = problem.alpha
    records = []
    truncated = False
    stopped = False
    raw_sum = Series.zero()
    s_star_prev = Series.zero()
    n_star_prev = Series.zero()     # N(S*_{n-1}) for the difference polynomials
    ustar_prev: Optional[Series] = None
    u = series_add(problem.f, frac_integral(problem.h, alpha))
    for n in range(iterations + 1):
        t0 = time.perf_counter()
        if n > 0:
            rhs = problem.linear.apply(ustar_prev)
            if problem.nonlinear is not None:
                rhs = series_add(rhs, records[-1].poly)
            u = series_scale(frac_integral(rhs, alpha), -1.0)
        raw_sum = series_add(raw_sum, u)
        s_star = boundary_correct(raw_sum, problem.bd, problem.domain, problem.domain_y,
                                  weights)
        u_star = series_add(s_star, series_scale(s_star_prev, -1.0))
        poly = None
        if problem.nonlinear is not None and n < iterations:
            n_star = problem.nonlinear.apply(s_star)
            poly = series_add(n_star, series_scale(n_star_prev, -1.0))
            n_star_prev = n_star
        step_trunc = _any_truncated(u, raw_sum, s_star, u_star) or \
            (poly is not None and poly.truncated)
        truncated = truncated or step_trunc
        records.append(IterationRecord(n, u, u_star, poly, s_star,
                                       time.perf_counter() - t0))
        if step_trunc:
            stopped = n < iterations
            break
        s_star_prev = s_star
        ustar_prev = u_star
    return SolveTrace("mldm", alpha, weights, tuple(records), truncated, stopped)
