"""Finite series of spatial coefficients times real powers of t.

The whole solver runs on one closed term class::

    u(x[, y], t) = sum_k  c_k(x[, y]) * t^(mu_k),    mu_k >= 0

which is closed under addition, multiplication, spatial differentiation,
the Riemann-Liouville integral I^alpha and (for the residual check) the
Caputo derivative of order 0 < alpha <= 1. Both fractional operators act
termwise through the power rule, so the Laplace round trip
L^{-1}{s^{-alpha} L{.}} is realized exactly as I^alpha with no transform
objects. Each gamma ratio of the power rule comes from the Lanczos
evaluator below (``_gamma_ratio``), and through ``math.lgamma`` only where a
Lanczos factor overflows a float.

Each term keeps its coefficient c_k as a symx normal-form poly, so the ring,
spatial and fractional operations, boundary substitution, the initial trace
(``initial_value``, a Series) and every sampled read run on polys from end
to end: ``series_equal`` compares coefficients through one
``symx.FactorTable`` on the domain's sample points. An ``Expr`` is built
only to render a term and by ``eval_series``, which evaluates at one point
on the tree, through the read-only ``TimeTerm.coeff``.

Exponents merge by one rule, ``_mu_groups``. ``_from_pairs`` sums each
group's polys into a dict of its own, never into a poly a series holds, and
decides all its new terms with one ``symx.zero_decisions`` read; a term it
merged nothing into keeps its decision, and so does a negated term
(``series_scale`` by -1).
Every series product is a ``series_dot``, a sum of products sum_k xs[k] *
ys[k] formed in one pass: the term pairs of all k are grouped by the same
rule, and on Fourier coefficients one ``symx.fourier_sums`` call, a
fixed-order kernel, forms every group's sum of products, so a product is
the same whatever BLAS kernel runs. ``series_mul`` is its one-pair case; a
sum over several pairs is summed per group in one reduction, not product by
product, so its rounding differs from a chain of ``series_mul`` and
``series_add``.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Sequence, Tuple, Union

from .symx import (
    Expr,
    FactorTable,
    Poly,
    contains,
    diff,
    evaluate,
    expr_of_poly,
    fourier_sums,
    is_zero_expr,  # noqa: F401 -- the one-poly zero check, bound here for span tracing
    poly_add,
    poly_add_into,
    poly_of,
    poly_scale,
    poly_mul,
    poly_substitute,
    sample_points,
    zero_decisions,
    fmt_number,
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
    "series_add",
    "series_scale",
    "series_mul",
    "series_dot",
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
# Growth caps, (term count, largest exponent): the memory guard of the term
# class, read by ``_from_pairs`` alone, so every series -- a library solve, a
# CLI solve, verify and the residual -- is held to the same pair. A series
# that would outgrow them is cut at the high end and marked ``truncated``.
# The deepest builtin solves measured (four iterations, both methods) hold
# under 30 terms with exponents below 100; ``gamma`` overflows past mu ~ 141,
# where the power rule's ratio goes through ``math.lgamma`` instead, so
# MAX_MU is a bound on growth, not a working range.
MAX_TERMS = 8192
MAX_MU = 512.0


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


class TimeTerm(NamedTuple):
    """One series term: c(x[, y]) * t^mu with mu >= 0.

    ``poly`` is c in symx's multinomial normal form. Series share these dicts,
    so no operation may mutate one; ``coeff`` builds c as an ``Expr`` on
    every access, to render the term and for ``eval_series``.
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
    The growth caps ``MAX_TERMS`` and ``MAX_MU`` truncate the high end and
    set ``truncated`` -- never silently. ``(mu, coeff)`` pairs given
    here are converted once with ``poly_of``; every operation after that
    reads and writes ``TimeTerm.poly``.
    """

    __slots__ = ("terms", "truncated")

    def __init__(self, terms: Iterable[TermLike] = (), truncated: bool = False):
        pairs = []
        for item in terms:
            if isinstance(item, TimeTerm):
                pairs.append((item.mu, item.poly))
            else:
                mu, coeff = item
                pairs.append((float(mu), poly_of(Expr.wrap(coeff))))
        built = _from_pairs(pairs, truncated)
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

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.terms == other.terms and self.truncated == other.truncated

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


def _mu_groups(mus) -> list:
    """Indices of mus grouped as series merge exponents: stably sorted by mu,
    each group holding the mus within ``MU_MERGE_TOL`` of its first."""
    groups = []
    first = 0.0
    for i in sorted(range(len(mus)), key=mus.__getitem__):
        if groups and mus[i] - first <= MU_MERGE_TOL:
            groups[-1].append(i)
        else:
            first = mus[i]
            groups.append([i])
    return groups


def _from_pairs(pairs, truncated: bool) -> Series:
    """Canonicalize (mu, poly) pairs: merge, drop zeros, apply the growth caps.

    A group of ``_mu_groups`` takes the mu of its first pair and the sum of
    its polys. A pair may carry a third item, the ``TimeTerm`` of a series it
    was read from. Every term a series holds was built here after its poly
    passed the zero check, so such a term that no other pair merges into is
    kept as it is, with no second check. The new polys are decided together,
    by one ``zero_decisions`` read.
    """
    terms = []
    fresh = []   # the index in terms of each new (mu, poly)
    for group in _mu_groups([pair[0] for pair in pairs]):
        mu, p, *term = pairs[group[0]]
        if len(group) > 1:
            p = poly_add(p, pairs[group[1]][1])    # a dict of its own
            for i in group[2:]:
                if p:
                    poly_add_into(p, pairs[i][1])
                else:
                    p = poly_add(p, pairs[i][1])
        elif term:
            terms.append(term[0])
            continue
        fresh.append(len(terms))
        terms.append((mu, p))
    zero = zero_decisions([terms[i][1] for i in fresh])
    for i, dropped in zip(fresh, zero):
        mu, p = terms[i]
        if dropped:
            terms[i] = None
            continue
        if mu < 0.0:
            if mu < -MU_MERGE_TOL:
                raise SeriesError(f"negative time exponent {mu}")
            mu = 0.0
        terms[i] = TimeTerm(mu, p)
    terms = [t for t in terms if t is not None]

    if terms and terms[-1].mu > MAX_MU:
        terms = [t for t in terms if t.mu <= MAX_MU]
        truncated = True
    if len(terms) > MAX_TERMS:
        terms = terms[:MAX_TERMS]
        truncated = True
    return _raw_series(tuple(terms), truncated)


# ---------------------------------------------------------------------------
# Ring operations.
# ---------------------------------------------------------------------------


def series_add(a: Series, b: Series) -> Series:
    pairs = [(t.mu, t.poly, t) for t in a.terms] + [(t.mu, t.poly, t) for t in b.terms]
    return _from_pairs(pairs, a.truncated or b.truncated)


def series_scale(a: Series, k: Union[float, int, Expr]) -> Series:
    if isinstance(k, (int, float)) and k == -1.0:
        # negation is exact, so every |sample| is unchanged and each term
        # keeps its zero decision, with no second check
        return _raw_series(tuple(TimeTerm(t.mu, poly_scale(t.poly, -1.0)) for t in a.terms),
                           a.truncated)
    if isinstance(k, (int, float)):
        pairs = [(t.mu, poly_scale(t.poly, float(k))) for t in a.terms]
    else:
        kp = poly_of(k)
        pairs = [(t.mu, poly_mul(t.poly, kp)) for t in a.terms]
    return _from_pairs(pairs, a.truncated)


def series_mul(a: Series, b: Series) -> Series:
    """The product series: ``series_dot`` of one pair."""
    return series_dot((a,), (b,))


def series_dot(xs: Sequence[Series], ys: Sequence[Series]) -> Series:
    """sum_k xs[k] * ys[k] from one product pass. The term pairs of every k
    are grouped by exponent as ``_from_pairs`` merges them, pairs of a lower
    k first within a group; on Fourier coefficients one ``fourier_sums``
    call over the operands of every k forms each group's sum of products,
    otherwise each pair is multiplied by ``poly_mul`` and one
    ``_from_pairs`` merges. A k whose operands hold no terms adds nothing."""
    mus, ps, qs, index = [], [], [], []
    truncated = False
    for a, b in zip(xs, ys):
        truncated = truncated or a.truncated or b.truncated
        if not (a.terms and b.terms):
            continue
        i0, j0 = len(ps), len(qs)
        ps += [t.poly for t in a.terms]
        qs += [t.poly for t in b.terms]
        mus += [ta.mu + tb.mu for ta in a.terms for tb in b.terms]
        index += [(i, j) for i in range(i0, len(ps)) for j in range(j0, len(qs))]
    groups = _mu_groups(mus)
    flat = [i * len(qs) + j for i, j in index]
    sums = fourier_sums(ps, qs, [[flat[f] for f in group] for group in groups])
    if sums is None:
        pairs = [(mu, poly_mul(ps[i], qs[j])) for mu, (i, j) in zip(mus, index)]
    else:
        pairs = [(mus[group[0]], p) for group, p in zip(groups, sums)]
    return _from_pairs(pairs, truncated)


def spatial_apply(a: Series, order: int, var: str = "x") -> Series:
    """Differentiate every coefficient ``order`` times with respect to var."""
    if order not in (0, 1, 2):
        raise SeriesError(f"spatial derivative order {order} unsupported (0, 1, 2)")
    if order == 0:
        return a
    pairs = []
    for t in a.terms:
        p = t.poly
        for _ in range(order):
            p = diff(p, var)
        pairs.append((t.mu, p))
    return _from_pairs(pairs, a.truncated)


def series_substitute(a: Series, name: str, value: float) -> Series:
    """Restrict to a spatial hyperplane, e.g. x = l for boundary traces.

    Uses the exactly-rounded substitution so traces are order-independent.
    """
    pairs = [(t.mu, poly_substitute(t.poly, name, value)) for t in a.terms]
    return _from_pairs(pairs, a.truncated)


# ---------------------------------------------------------------------------
# Fractional operators (power rule, exact through gamma ratios).
# ---------------------------------------------------------------------------


def _gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for a, b > 0; through ``math.lgamma`` only where a
    Lanczos factor overflows a float, so every finite ratio is unchanged.
    ``gamma`` returns inf on z in about (142.22, 142.37) and raises past it."""
    try:
        num, den = gamma(a), gamma(b)
    except OverflowError:
        num = den = math.inf
    if math.isinf(num) or math.isinf(den):
        return math.exp(math.lgamma(a) - math.lgamma(b))
    return num / den


def frac_integral(a: Series, alpha: float) -> Series:
    """Riemann-Liouville integral: t^mu -> Gamma(mu+1)/Gamma(mu+1+alpha) t^(mu+alpha)."""
    if not alpha > 0.0:
        raise SeriesError(f"frac_integral needs alpha > 0, got {alpha}")
    pairs = []
    for t in a.terms:
        ratio = _gamma_ratio(t.mu + 1.0, t.mu + 1.0 + alpha)
        pairs.append((t.mu + alpha, poly_scale(t.poly, ratio)))
    return _from_pairs(pairs, a.truncated)


def caputo(a: Series, alpha: float) -> Series:
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
        ratio = _gamma_ratio(t.mu + 1.0, t.mu + 1.0 - alpha)
        pairs.append((max(t.mu - alpha, 0.0), poly_scale(t.poly, ratio)))
    return _from_pairs(pairs, a.truncated)


def initial_value(a: Series) -> Series:
    """The t = 0 trace of a series: its mu = 0 term, as a series."""
    head = a.terms[:1]
    if head and head[0].mu <= MU_MERGE_TOL:
        return _raw_series((TimeTerm(0.0, head[0].poly),), False)
    return Series.zero()


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


def series_equal(a: Series, b: Series, domain=None, tol: float = 1e-10) -> bool:
    """Termwise comparison: exponents matched within 1e-12, coefficients
    sampled as ``symx.equal_sampled`` samples them, through one factor table
    on the domain's sample points.

    A term missing on one side is compared against the zero function, so
    canonically dropped near-zero terms never produce spurious mismatches.
    """
    ta, tb = a.terms, b.terms
    table = FactorTable(sample_points(domain))
    i = j = 0
    while i < len(ta) or j < len(tb):
        if i < len(ta) and j < len(tb) and abs(ta[i].mu - tb[j].mu) <= MU_MERGE_TOL:
            pair = ta[i].poly, tb[j].poly
            i += 1
            j += 1
        elif j >= len(tb) or (i < len(ta) and ta[i].mu < tb[j].mu):
            pair = ta[i].poly, {}
            i += 1
        else:
            pair = tb[j].poly, {}
            j += 1
        if not table.close(*pair, tol):
            return False
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
    return _from_pairs(pairs, False)
