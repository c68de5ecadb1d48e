"""Decomposition solvers for D^alpha u + Qu + Nu = h on a box.

One loop, ``_decompose``, runs both methods: u_0 = f + I^alpha h, then
u_{n+1} = -I^alpha(Q u*_n + P_n). The minus sign encodes the PDE as
D^alpha u = h - Qu - Nu, under which every benchmark converges. A method
supplies only its step rule, making u*_n, the partial sum and P_n from u_n:

* ``ladm_solve`` -- the classical decomposition: u*_n = u_n, and P_n is the
  Adomian polynomial A_n.

* ``mldm_solve`` -- the boundary-corrected variant: the raw partial sum is
  pulled onto the Dirichlet data by linear blending (``boundary_correct``)
  into S*_n, u*_n = S*_n - S*_{n-1}, and P_n is the difference polynomial
  B*_n = N(S*_n) - N(S*_{n-1}) (B*_0 = N(u*_0)). The correction is affine,
  so u*_0 is u_0 corrected against the full boundary data, every later
  u*_n is u_n corrected against zero data, and each S*_n interpolates the
  boundary exactly.

The approximation after n iterations is sum_{i<=n} u*_i. The seed, the
recursion, the record, its timer and the growth-cap stop live in
``_decompose`` alone, so a per-step hook goes there, where record n is built.

Neither solver redoes what an earlier step already built: ``ladm_solve``
differentiates each u_k once, keeps the inner grades of a degree-3 product,
and forms A_n alone, each grade of a product in one ``series_dot`` call
(``adomian_polys`` pushes u_0..u_n through the same routine). Nor does
either build what no later step reads: A_N and B*_N only feed u_{N+1}, so
the final record of an N-iteration solve carries no polynomial.

No solver takes a growth cap: every series is held to the one pair that
``fracterm`` fixes, so a library solve is the CLI's solve. A step whose
series meets a cap is still recorded, marked ``truncated``, and the solve
stops there with ``stopped_early`` set.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

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
    "Face",
    "face_geometry",
    "check_corner_compatibility",
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


class _Checked:
    """Base of a record whose ``__new__`` checks its fields: ``_make``, and
    so ``_replace``, builds through that check too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class LinearTerm(_Checked, namedtuple("LinearTerm", "order var coeff")):
    """coeff * (d^order/d var^order) u; order 0 ignores var."""

    __slots__ = ()

    def __new__(cls, order: int, var: str, coeff: float):
        if order not in (0, 1, 2):
            raise DecompError(f"linear term order {order} unsupported")
        if var not in ("x", "y"):
            raise DecompError(f"linear term variable {var!r} unsupported")
        return super().__new__(cls, order, var, coeff)


class LinearOpSpec(NamedTuple):
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
        return _describe((t.coeff, "", ((t.order, t.var, 1),)) for t in self.terms)


class NonlinearFactor(_Checked, namedtuple("NonlinearFactor", "order var power")):
    """(d^order/d var^order u)^power inside a product."""

    __slots__ = ()

    def __new__(cls, order: int, var: str = "x", power: int = 1):
        if order not in (0, 1, 2):
            raise DecompError(f"nonlinear factor order {order} unsupported")
        if power < 1:
            raise DecompError("nonlinear factor power must be >= 1")
        return super().__new__(cls, order, var, power)


class NonlinearProduct(NamedTuple):
    coeff: float
    factors: Tuple[NonlinearFactor, ...]
    series_coeff: Optional[Series] = None

    def degree(self) -> int:
        return sum(f.power for f in self.factors)


class NonlinearOpSpec(_Checked, namedtuple("NonlinearOpSpec", "products")):
    """Sum of products of spatial derivatives of u, total degree <= 3; no
    products is N = 0, whose apply and Adomian polynomials are zero.

    A product may carry a multiplicative Series coefficient; a degree-1
    product with such a coefficient is exactly a time-dependent linear
    term, which the difference polynomials evaluate on the newest
    corrected increment (lagged).
    """

    __slots__ = ()

    def __new__(cls, products: Tuple[NonlinearProduct, ...] = ()):
        for p in products:
            if p.degree() > MAX_NONLINEAR_DEGREE:
                raise DecompError(
                    f"nonlinearity degree {p.degree()} beyond supported {MAX_NONLINEAR_DEGREE}")
        return super().__new__(cls, products)

    def is_empty(self) -> bool:
        return not self.products

    def apply(self, u: Series) -> Series:
        # N(u) is grade 0 of the Adomian bookkeeping with u as the only grade
        return _AdomianGrades(self).push(u)

    def factor_keys(self) -> List[Tuple[int, str]]:
        """The distinct (order, var) spatial derivatives the products multiply,
        in first-seen order."""
        return list(dict.fromkeys((f.order, f.var)
                                  for p in self.products for f in p.factors))

    def describe(self) -> str:
        return _describe((p.coeff, "" if p.series_coeff is None else f"({p.series_coeff})*",
                          tuple((f.order, f.var, f.power) for f in p.factors))
                         for p in self.products)


def _describe(terms: Iterable[Tuple[float, str, Sequence[Tuple[int, str, int]]]]) -> str:
    """Operator text of (coeff, lead, factors) terms: the coefficient ("" for
    1, "-" for -1, else "c*"), the lead, then the (order, var, power) factors
    u, u_x, u_xx (with ^power past 1) joined by "*"; "+ -" prints as "- "."""
    bits = []
    for coeff, lead, factors in terms:
        body = "*".join(("u" if order == 0 else "u_" + var * order)
                        + ("" if power == 1 else f"^{power}") for order, var, power in factors)
        c = "" if coeff == 1.0 else ("-" if coeff == -1.0 else f"{coeff:g}*")
        bits.append(c + lead + body)
    return " + ".join(bits).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Boundary data.
# ---------------------------------------------------------------------------


class Face(NamedTuple):
    """A Dirichlet face: the variable it fixes, its value, and the data on it."""

    var: str
    at: float
    g: Series


def face_geometry(domain, domain_y=None) -> Dict[str, Tuple[str, float]]:
    """The Dirichlet faces of an interval (``domain_y`` None) or a box:
    problem-file key -> (the variable the face fixes, its value), the low end
    of each axis first, x before y."""
    if domain_y is None:
        return {"bc.l": ("x", float(domain[0])), "bc.L": ("x", float(domain[1]))}
    return {"bc.x0": ("x", float(domain[0])), "bc.x1": ("x", float(domain[1])),
            "bc.y0": ("y", float(domain_y[0])), "bc.y1": ("y", float(domain_y[1]))}


def check_corner_compatibility(bd: Mapping[str, Face]) -> None:
    """Faces of different axes must agree where they meet (tol 1e-12), else
    correcting one axis after the other cannot hit them all. An interval has
    no corners."""
    for a, b in combinations(bd.values(), 2):
        if a.var == b.var:
            continue
        ga = series_substitute(a.g, b.var, b.at)
        gb = series_substitute(b.g, a.var, a.at)
        if not series_equal(ga, gb, tol=CORNER_TOL):
            raise DecompError(
                f"incompatible corner data at ({a.var}={a.at}, {b.var}={b.at}): {ga} vs {gb}")


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


def coeff_height(series: Series) -> float:
    """Largest |coefficient| over the monomials of every term (0 for none)."""
    worst = 0.0
    for t in series.terms:
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
    q_step = None
    q_next = 1.5
    for _ in range(POLISH_ROUNDS):
        lo_gap = _trace_gap(u, g_lo, var, lo)
        hi_gap = _trace_gap(u, g_hi, var, hi)
        if max(coeff_height(lo_gap), coeff_height(hi_gap)) <= POLISH_TOL:
            break
        if q_step is None:
            # the gate trips first in round 1, so this scans the u it was given
            span, v = hi - lo, Var(var)
            q_step = _max_trig_scale(u, var) or math.pi
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


def boundary_correct(u: Series, bd: Mapping[str, Face],
                     weights: str = "normalized") -> Series:
    """Blend u onto the Dirichlet data with affine weights, one axis at a time.

    bd maps each problem-file key to its Face, in ``face_geometry`` order, so
    the faces pair up as the low and the high end of each axis; a box's
    x-faces are functions of (y, t), its y-faces of (x, t).

    Along an axis [l, L]: u* = u + w_l[g_l - u(l,.)] + w_L[g_L - u(L,.)],
    where the normalized weights are (L-v)/(L-l) and (v-l)/(L-l) (the
    paper-literal toggle keeps (1-v) and v, which only interpolate on
    [0,1]). On a box the blend runs in x, then in y on the x-corrected sum;
    with compatible corners the result matches all four faces exactly.
    """
    faces = list(bd.values())
    for lo, hi in zip(faces[::2], faces[1::2]):
        u = _correct_1d(u, lo.g, hi.g, lo.at, hi.at, lo.var, weights)
    return u


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


class _AdomianGrades:
    """A_0, A_1, ... of one nonlinearity, A_n formed alone when u_n is pushed.

    Each u_k is differentiated once, into derivs[(order, var)][k]. A product
    of degree d convolves its factors left to right; the last convolution
    forms only grade n. The inner ones keep their grades in inner, under the
    factor keys multiplied so far, and form only the grades missing up to n:
    grade g reads grades 0..g alone, so a kept grade is the one a fresh
    build would form.
    """

    def __init__(self, nonlinear: NonlinearOpSpec):
        self.nonlinear = nonlinear
        self.derivs: Dict[Tuple[int, str], List[Series]] = {
            key: [] for key in nonlinear.factor_keys()}
        self.inner: Dict[tuple, List[Series]] = {}
        self.n = 0

    def push(self, u: Series) -> Series:
        """A_n, for u the n-th term pushed (u_0 first)."""
        n, derivs = self.n, self.derivs
        self.n += 1
        for (order, var), ds in derivs.items():
            ds.append(spatial_apply(u, order, var))
        acc = None
        for p in self.nonlinear.products:
            chain = [(f.order, f.var) for f in p.factors for _ in range(f.power)]
            graded = derivs[chain[0]]
            for i in range(1, len(chain) - 1):
                prev, graded = graded, self.inner.setdefault(tuple(chain[:i + 1]), [])
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
        return Series.zero() if acc is None else acc


def adomian_polys(nonlinear: NonlinearOpSpec, u_list: Sequence[Series]) -> List[Series]:
    """A_0..A_n for N(sum_k lambda^k u_k) by grade bookkeeping.

    Each u_k carries grade k; products convolve grades, and A_j collects
    total grade j -- the coefficient of lambda^j, with no symbolic lambda.
    """
    if not u_list:
        raise DecompError("adomian_polys needs at least u_0")
    grades = _AdomianGrades(nonlinear)
    return [grades.push(u) for u in u_list]


# ---------------------------------------------------------------------------
# Traces and drivers.
# ---------------------------------------------------------------------------


class IterationRecord(NamedTuple):
    """One step of a solve.

    ``poly`` is A_n (ladm) or B*_n (mldm), which only u_{n+1} needs: it is
    None on the final record alone. Without a nonlinearity it is the zero
    series.
    """

    n: int
    u: Series                      # raw term from the recursion
    u_star: Series                 # corrected increment (ladm: == u)
    poly: Optional[Series]         # A_n or B*_n; None on the final record
    partial_sum: Series            # sum of u_star up to n
    seconds: float


class SolveTrace(NamedTuple):
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


def _decompose(problem, iterations: int, method: str, weights: Optional[str],
               step: Callable[[Series, Series, bool], tuple]) -> SolveTrace:
    """The one decomposition loop: iterations+1 records, n = 0..iterations.

    It seeds u_0 and forms u_n = -I^alpha(Q u*_{n-1} + P_{n-1}) from the
    previous record; step(u_n, S_{n-1}, want_poly) returns the rest of
    record n, (u*_n, S_n, P_n), and wants P_n only if a u_{n+1} is to come
    (else P_n is None).
    A record whose series meets a growth cap ends the solve.
    """
    if iterations < 0:
        raise DecompError("iterations must be >= 0")
    alpha = problem.alpha
    records: List[IterationRecord] = []
    u = series_add(problem.f, frac_integral(problem.h, alpha))
    for n in range(iterations + 1):
        t0 = time.perf_counter()
        prev_sum = Series.zero()
        if n > 0:
            prev = records[-1]
            prev_sum = prev.partial_sum
            rhs = series_add(problem.linear.apply(prev.u_star), prev.poly)
            u = series_scale(frac_integral(rhs, alpha), -1.0)
        u_star, partial, poly = step(u, prev_sum, n < iterations)
        records.append(IterationRecord(n, u, u_star, poly, partial, time.perf_counter() - t0))
        # the truncated flag survives every series operation, so a cap met
        # inside a step shows on what the step returns
        if any(s is not None and s.truncated for s in (u, u_star, partial, poly)):
            return SolveTrace(method, alpha, weights, tuple(records), True, n < iterations)
    return SolveTrace(method, alpha, weights, tuple(records), False, False)


def ladm_solve(problem, iterations: int) -> SolveTrace:
    """Classical decomposition trace with iterations+1 records (n = 0..iterations)."""
    grades = _AdomianGrades(problem.nonlinear)

    def step(u, prev_sum, want_poly):
        return u, series_add(prev_sum, u), grades.push(u) if want_poly else None

    return _decompose(problem, iterations, "ladm", None, step)


def mldm_solve(problem, iterations: int, weights: str = "normalized") -> SolveTrace:
    """Boundary-corrected decomposition trace.

    Records hold the raw term u_n, the corrected increment u*_n and the
    corrected partial sum S*_n; S*_n interpolates the boundary data exactly
    at every n.
    """
    if problem.bd is None:
        raise DecompError("mldm_solve needs boundary data")
    check_corner_compatibility(problem.bd)
    raw_sum = Series.zero()
    n_star_prev = Series.zero()     # N(S*_{n-1}) for the difference polynomials

    def step(u, s_star_prev, want_poly):
        nonlocal raw_sum, n_star_prev
        raw_sum = series_add(raw_sum, u)
        s_star = boundary_correct(raw_sum, problem.bd, weights)
        u_star = series_add(s_star, series_scale(s_star_prev, -1.0))
        poly = None
        if want_poly:
            n_star = problem.nonlinear.apply(s_star)
            poly = series_add(n_star, series_scale(n_star_prev, -1.0))
            n_star_prev = n_star
        return u_star, s_star, poly

    return _decompose(problem, iterations, "mldm", weights, step)
