"""Finite series of spatial coefficients times real powers of t.

The whole solver runs on one closed term class::

    u(x[, y], t) = sum_k  c_k(x[, y]) * t^(mu_k),    mu_k >= 0

which is closed under addition, multiplication, spatial differentiation,
the Riemann-Liouville integral I^alpha and (for the residual check) the
Caputo derivative of order 0 < alpha <= 1. Both fractional operators act
termwise through the power rule, so the Laplace round trip
L^{-1}{s^{-alpha} L{.}} is realized exactly as I^alpha with no transform
objects. All gamma factors come from the Lanczos evaluator below.

Each term keeps its coefficient c_k as a symx normal-form poly, so the ring
and fractional operations run on polys from end to end. An ``Expr`` is built
only at the edges that need a tree: rendering, evaluation, ``diff``,
``series_equal`` and ``initial_value``, through the read-only
``TimeTerm.coeff``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Tuple, Union

from .symx import (
    Expr,
    Poly,
    contains,
    diff,
    equal_sampled,
    evaluate,
    expr_of_poly,
    is_zero_expr,
    poly_add,
    poly_of,
    poly_scale,
    poly_mul,
    poly_substitute,
    fmt_number,
    ZERO,
)

__all__ = [
    "GammaError",
    "GammaPoleError",
    "SeriesError",
    "CaputoRangeError",
    "gamma",
    "LANCZOS_G",
    "LANCZOS_COEFFS",
    "TimeTerm",
    "Series",
    "MAX_TERMS",
    "MAX_MU",
    "DEEP_TERMS",
    "DEEP_MU",
    "RESIDUAL_MAX_TERMS",
    "RESIDUAL_MAX_MU",
    "series_add",
    "series_scale",
    "series_mul",
    "spatial_apply",
    "series_substitute",
    "frac_integral",
    "caputo",
    "eval_series",
    "series_equal",
    "to_series",
    "initial_value",
]

MU_MERGE_TOL = 1e-12
# Growth caps, (term count, largest exponent). The defaults cover the
# convergent benchmarks at a few iterations.
MAX_TERMS = 512
MAX_MU = 64.0
# CLI solves and the verify suite share these so their traces agree; p7 at
# four iterations needs thousands of terms before truncation would set in.
DEEP_TERMS = 8192
DEEP_MU = 512.0
# The residual defect multiplies deep partial sums (degree <= 3), so its
# exponents and term count outgrow the deep caps.
RESIDUAL_MAX_TERMS = 16384
RESIDUAL_MAX_MU = 2048.0


class GammaError(Exception):
    pass


class GammaPoleError(GammaError):
    pass


class SeriesError(Exception):
    pass


class CaputoRangeError(SeriesError):
    """A term's exponent falls in (0, alpha): the result would need t^(mu-alpha) < t^0."""


# ---------------------------------------------------------------------------
# Gamma: Lanczos approximation, g = 7 with 9 coefficients (double precision).
# Relative error stays below 1e-13 on (0.5, 20]; arguments < 0.5 go through
# the reflection formula. Poles at 0, -1, -2, ... raise.
# ---------------------------------------------------------------------------

LANCZOS_G = 7.0
LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def gamma(z: float) -> float:
    z = float(z)
    if z != z:
        raise GammaError("gamma of nan")
    if z <= 0.0 and z == math.floor(z):
        raise GammaPoleError(f"gamma pole at non-positive integer {z}")
    if z < 0.5:
        # Reflection: gamma(z) gamma(1-z) = pi / sin(pi z).
        return math.pi / (math.sin(math.pi * z) * gamma(1.0 - z))
    w = z - 1.0
    acc = LANCZOS_COEFFS[0]
    for i in range(1, len(LANCZOS_COEFFS)):
        acc += LANCZOS_COEFFS[i] / (w + i)
    s = w + LANCZOS_G + 0.5
    return _SQRT_TWO_PI * s ** (w + 0.5) * math.exp(-s) * acc


# ---------------------------------------------------------------------------
# Terms and canonical series.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeTerm:
    """One series term: c(x[, y]) * t^mu with mu >= 0.

    ``poly`` is c in symx's multinomial normal form. Series share these dicts,
    so no operation may mutate one; ``coeff`` builds c as an ``Expr`` on
    every access, for the edges that need a tree.
    """

    mu: float
    poly: Poly

    @property
    def coeff(self) -> Expr:
        return expr_of_poly(self.poly)

    def __str__(self) -> str:
        c = str(self.coeff)
        if self.mu == 0.0:
            return f"({c})"
        if self.mu == 1.0:
            return f"({c})*t"
        return f"({c})*t^{fmt_number(self.mu)}"


TermLike = Union[TimeTerm, Tuple[float, Expr]]


class Series:
    """Canonical finite sum of TimeTerms.

    Terms are sorted by exponent; exponents within 1e-12 are merged; zero
    coefficients (decided by sampling the poly against 0) are dropped.
    Growth caps on the term count and the largest exponent truncate the high
    end and set ``truncated`` -- never silently. ``(mu, coeff)`` pairs given
    here are converted once with ``poly_of``; every operation after that
    reads and writes ``TimeTerm.poly``.
    """

    __slots__ = ("terms", "truncated")

    def __init__(self, terms: Iterable[TermLike] = (), truncated: bool = False,
                 max_terms: int = MAX_TERMS, max_mu: float = MAX_MU):
        pairs = []
        for item in terms:
            if isinstance(item, TimeTerm):
                pairs.append((item.mu, item.poly))
            else:
                mu, coeff = item
                pairs.append((float(mu), poly_of(Expr.wrap(coeff))))
        built = _from_pairs(pairs, truncated, max_terms, max_mu)
        self.terms = built.terms
        self.truncated = built.truncated

    @staticmethod
    def zero() -> "Series":
        return _raw_series((), False)

    @staticmethod
    def of(mu: float, coeff: Union[Expr, float]) -> "Series":
        return Series([(mu, Expr.wrap(coeff))])

    def is_zero(self) -> bool:
        return not self.terms

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.terms == other.terms and self.truncated == other.truncated

    def __add__(self, other):
        if isinstance(other, Series):
            return series_add(self, other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Series):
            return series_add(self, series_scale(other, -1.0))
        return NotImplemented

    def __neg__(self):
        return series_scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, Series):
            return series_mul(self, other)
        if isinstance(other, (int, float, Expr)):
            return series_scale(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, Expr)):
            return series_scale(self, other)
        return NotImplemented

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(t) for t in self.terms)

    def __repr__(self) -> str:
        return f"Series({str(self)!r}, truncated={self.truncated})"


def _raw_series(terms: Tuple[TimeTerm, ...], truncated: bool) -> Series:
    s = object.__new__(Series)
    s.terms = terms
    s.truncated = truncated
    return s


def _from_pairs(pairs, truncated: bool, max_terms: int, max_mu: float) -> Series:
    """Canonicalize (mu, poly) pairs: merge, drop zeros, apply caps."""
    if not pairs:
        return _raw_series((), truncated)
    pairs.sort(key=lambda p: p[0])
    merged = []
    cur_mu, cur_poly = pairs[0]
    for mu, p in pairs[1:]:
        if mu - cur_mu <= MU_MERGE_TOL:
            cur_poly = poly_add(cur_poly, p)
        else:
            merged.append((cur_mu, cur_poly))
            cur_mu, cur_poly = mu, p
    merged.append((cur_mu, cur_poly))

    terms = []
    for mu, p in merged:
        if is_zero_expr(p):
            continue
        if mu < 0.0:
            if mu < -MU_MERGE_TOL:
                raise SeriesError(f"negative time exponent {mu}")
            mu = 0.0
        terms.append(TimeTerm(mu, p))

    if terms and terms[-1].mu > max_mu:
        terms = [t for t in terms if t.mu <= max_mu]
        truncated = True
    if len(terms) > max_terms:
        terms = terms[:max_terms]
        truncated = True
    return _raw_series(tuple(terms), truncated)


# ---------------------------------------------------------------------------
# Ring operations.
# ---------------------------------------------------------------------------


def series_add(a: Series, b: Series, max_terms: int = MAX_TERMS,
               max_mu: float = MAX_MU) -> Series:
    pairs = [(t.mu, t.poly) for t in a.terms] + [(t.mu, t.poly) for t in b.terms]
    return _from_pairs(pairs, a.truncated or b.truncated, max_terms, max_mu)


def series_scale(a: Series, k: Union[float, int, Expr], max_terms: int = MAX_TERMS,
                 max_mu: float = MAX_MU) -> Series:
    if isinstance(k, (int, float)):
        pairs = [(t.mu, poly_scale(t.poly, float(k))) for t in a.terms]
    else:
        kp = poly_of(k)
        pairs = [(t.mu, poly_mul(t.poly, kp)) for t in a.terms]
    return _from_pairs(pairs, a.truncated, max_terms, max_mu)


def series_mul(a: Series, b: Series, max_terms: int = MAX_TERMS,
               max_mu: float = MAX_MU) -> Series:
    pairs = []
    for ta in a.terms:
        for tb in b.terms:
            pairs.append((ta.mu + tb.mu, poly_mul(ta.poly, tb.poly)))
    return _from_pairs(pairs, a.truncated or b.truncated, max_terms, max_mu)


def spatial_apply(a: Series, order: int, var: str = "x",
                  max_terms: int = MAX_TERMS, max_mu: float = MAX_MU) -> Series:
    """Differentiate every coefficient ``order`` times with respect to var."""
    if order not in (0, 1, 2):
        raise SeriesError(f"spatial derivative order {order} unsupported (0, 1, 2)")
    if order == 0:
        return a
    pairs = []
    for t in a.terms:
        c = t.coeff
        for _ in range(order):
            c = diff(c, var)
        pairs.append((t.mu, poly_of(c)))
    return _from_pairs(pairs, a.truncated, max_terms, max_mu)


def series_substitute(a: Series, name: str, value: float,
                      max_terms: int = MAX_TERMS, max_mu: float = MAX_MU) -> Series:
    """Restrict to a spatial hyperplane, e.g. x = l for boundary traces.

    Uses the exactly-rounded substitution so traces are order-independent.
    """
    pairs = [(t.mu, poly_substitute(t.poly, name, value)) for t in a.terms]
    return _from_pairs(pairs, a.truncated, max_terms, max_mu)


# ---------------------------------------------------------------------------
# Fractional operators (power rule, exact through gamma ratios).
# ---------------------------------------------------------------------------


def frac_integral(a: Series, alpha: float, max_terms: int = MAX_TERMS,
                  max_mu: float = MAX_MU) -> Series:
    """Riemann-Liouville integral: t^mu -> Gamma(mu+1)/Gamma(mu+1+alpha) t^(mu+alpha)."""
    if not alpha > 0.0:
        raise SeriesError(f"frac_integral needs alpha > 0, got {alpha}")
    pairs = []
    for t in a.terms:
        ratio = gamma(t.mu + 1.0) / gamma(t.mu + 1.0 + alpha)
        pairs.append((t.mu + alpha, poly_scale(t.poly, ratio)))
    return _from_pairs(pairs, a.truncated, max_terms, max_mu)


def caputo(a: Series, alpha: float, max_terms: int = MAX_TERMS,
           max_mu: float = MAX_MU) -> Series:
    """Caputo derivative of order 0 < alpha <= 1 on the term class.

    Constants in t are annihilated; t^mu with mu >= alpha maps to
    Gamma(mu+1)/Gamma(mu+1-alpha) t^(mu-alpha). Exponents strictly inside
    (0, alpha) would leave the class (negative exponent) and raise.
    """
    if not 0.0 < alpha <= 1.0:
        raise SeriesError(f"caputo implemented for 0 < alpha <= 1, got {alpha}")
    pairs = []
    for t in a.terms:
        if t.mu <= MU_MERGE_TOL:
            continue
        if t.mu < alpha - MU_MERGE_TOL:
            raise CaputoRangeError(
                f"caputo of t^{t.mu} with alpha={alpha}: result exponent would be negative")
        ratio = gamma(t.mu + 1.0) / gamma(t.mu + 1.0 - alpha)
        pairs.append((max(t.mu - alpha, 0.0), poly_scale(t.poly, ratio)))
    return _from_pairs(pairs, a.truncated, max_terms, max_mu)


def initial_value(a: Series) -> Expr:
    """The t = 0 trace of a series (its mu = 0 coefficient)."""
    for t in a.terms:
        if t.mu <= MU_MERGE_TOL:
            return t.coeff
    return ZERO


# ---------------------------------------------------------------------------
# Evaluation and comparison.
# ---------------------------------------------------------------------------


def eval_series(a: Series, point: Mapping[str, float], t: float) -> float:
    """Evaluate at one space point and one time; 0^0 := 1 at t = 0."""
    if t < 0.0:
        raise SeriesError(f"series defined for t >= 0, got t={t}")
    total = 0.0
    for term in a.terms:
        if term.mu == 0.0:
            tp = 1.0
        elif t == 0.0:
            tp = 0.0
        else:
            tp = t ** term.mu
        total += float(evaluate(term.coeff, point)) * tp
    return total


def series_equal(a: Series, b: Series, domain=None, tol: float = 1e-10,
                 n_samples: int = 64) -> bool:
    """Termwise comparison: exponents matched within 1e-12, coefficients sampled.

    A term missing on one side is compared against the zero function, so
    canonically dropped near-zero terms never produce spurious mismatches.
    """
    ta, tb = list(a.terms), list(b.terms)
    i = j = 0
    while i < len(ta) or j < len(tb):
        if i < len(ta) and j < len(tb) and abs(ta[i].mu - tb[j].mu) <= MU_MERGE_TOL:
            if not equal_sampled(ta[i].coeff, tb[j].coeff, domain, n_samples, tol):
                return False
            i += 1
            j += 1
        elif j >= len(tb) or (i < len(ta) and ta[i].mu < tb[j].mu):
            if not equal_sampled(ta[i].coeff, ZERO, domain, n_samples, tol):
                return False
            i += 1
        else:
            if not equal_sampled(tb[j].coeff, ZERO, domain, n_samples, tol):
                return False
            j += 1
    return True


# ---------------------------------------------------------------------------
# Conversion from parsed expressions over (x, y, t).
# ---------------------------------------------------------------------------


def to_series(e: Expr) -> Series:
    """Split an expression into sum of coeff(x, y) * t^mu terms.

    Fails if t is buried where the term class cannot express it (inside
    sin/cos/exp or under a non-monomial power base).
    """
    pairs = []
    for mono, c in poly_of(e).items():
        mu = 0.0
        rest = []
        for atom, k in mono:
            if hasattr(atom, "name") and getattr(atom, "name", None) == "t":
                mu += k
            elif contains(atom, "t"):
                raise SeriesError(
                    f"cannot express {atom} as a power of t times a spatial coefficient")
            else:
                rest.append((atom, k))
        if mu < -MU_MERGE_TOL:
            raise SeriesError(f"negative time exponent t^{mu}")
        pairs.append((max(mu, 0.0), {tuple(rest): c}))
    return _from_pairs(pairs, False, MAX_TERMS, MAX_MU)
