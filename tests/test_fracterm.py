"""Fractional calculus on the series class: gamma, I^alpha, Caputo D^alpha."""

import math
import random
import warnings

import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdecomp import fracterm
from fracdecomp.decomp import Face, boundary_correct
from fracdecomp.evaluation import evaluate_series_grid, make_grid
from fracdecomp.fracterm import (
    CaputoRangeError,
    GammaPoleError,
    Series,
    SeriesError,
    TimeTerm,
    caputo,
    frac_integral,
    gamma,
    initial_value,
    series_add,
    series_dot,
    series_equal,
    series_mul,
    series_scale,
    series_substitute,
    spatial_apply,
    to_series,
)
from fracdecomp.grammar import parse_expr, parse_series
from fracdecomp.symx import (Const, Cos, Exp, Pow, Sin, Var, evaluate, fourier_sums,
                             poly_add, poly_mul, poly_of, poly_scale)

X = Var("x")


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def test_gamma_small_integers():
    assert abs(gamma(1.0) - 1.0) <= 1e-14
    assert abs(gamma(5.0) - 24.0) <= 24.0 * 1e-14


def test_gamma_against_defining_integral():
    # Gamma(2.5) = integral_0^inf t^1.5 e^-t dt; the tail beyond 60 is
    # below 1e-23, and quad's reported error is conservative
    val, err = scipy.integrate.quad(lambda t: t ** 1.5 * math.exp(-t), 0.0,
                                    60.0, limit=200)
    assert err < 1e-6
    assert abs(gamma(2.5) - val) <= 1e-12


def test_gamma_against_math_gamma():
    zs = [0.1, 0.5, 0.9, 1.3, 2.5, 3.0, 4.7, 6.25, 10.0, 15.5, 20.0,
          -0.5, -1.5, -2.3, -6.7]
    for z in zs:
        ref = math.gamma(z)
        assert abs(gamma(z) - ref) <= 1e-13 * abs(ref), f"z={z}"


def test_gamma_poles():
    with pytest.raises(GammaPoleError):
        gamma(0.0)
    with pytest.raises(GammaPoleError):
        gamma(-3.0)


# ---------------------------------------------------------------------------
# frac_integral
# ---------------------------------------------------------------------------


def test_frac_integral_of_zero():
    assert frac_integral(Series.zero(), 0.5).is_zero()


def test_frac_integral_of_one_is_t():
    # Gamma(1)/Gamma(2) = 1
    s = frac_integral(Series.of(0.0, 1.0), 1.0)
    assert len(s) == 1
    assert s.terms[0].mu == 1.0
    assert abs(evaluate(s.terms[0].coeff, {}) - 1.0) <= 5e-15


def test_frac_integral_gamma_cancellation():
    # I^alpha [x^2 2 t^(2-alpha)/Gamma(3-alpha)] = x^2 t^2 for every alpha:
    # the Gamma(3-alpha) produced by the power rule cancels the one given
    for alpha in (0.3, 0.5, 0.8, 1.0):
        a = parse_series("x^2 * 2*t^(2 - alpha)/gamma(3 - alpha)", alpha)
        s = frac_integral(a, alpha)
        assert len(s) == 1
        assert abs(s.terms[0].mu - 2.0) <= 1e-12
        c = evaluate(s.terms[0].coeff, {"x": 1.0})
        assert abs(c - 1.0) <= 1e-14


def test_power_rule_ratio_past_gamma_overflow():
    # Gamma overflows a float past z ~ 171.6, so the ratio goes through
    # lgamma there; below the overflow it is the plain quotient of gamma's values
    ref = math.exp(math.lgamma(201.0) - math.lgamma(201.5))
    assert fracterm._gamma_ratio(201.0, 201.5) == ref
    with pytest.raises(OverflowError):
        gamma(172.0)
    assert fracterm._gamma_ratio(172.3, 171.8) == math.exp(math.lgamma(172.3)
                                                           - math.lgamma(171.8))
    assert fracterm._gamma_ratio(150.0, 150.5) == gamma(150.0) / gamma(150.5)
    assert fracterm._gamma_ratio(11.0, 11.5) == gamma(11.0) / gamma(11.5)
    s = frac_integral(Series.of(200.0, 1.0), 0.5)
    assert s.terms[0].mu == 200.5
    assert evaluate(s.terms[0].coeff, {}) == ref
    back = caputo(s, 0.5)
    assert back.terms[0].mu == 200.0
    assert abs(evaluate(back.terms[0].coeff, {}) - 1.0) <= 1e-12


def test_frac_integral_rejects_nonpositive_alpha():
    with pytest.raises(SeriesError):
        frac_integral(Series.of(1.0, 1.0), 0.0)
    with pytest.raises(SeriesError):
        frac_integral(Series.of(1.0, 1.0), -0.5)


def test_frac_integral_is_linear():
    rng = random.Random(408)
    for _ in range(20):
        alpha = rng.choice([0.4, 0.7, 1.0])
        a = Series([(rng.uniform(0.0, 3.0), rng.uniform(-2.0, 2.0) * X + 1.0)
                    for _ in range(3)])
        b = Series([(rng.uniform(0.0, 3.0), Const(rng.uniform(-2.0, 2.0)))
                    for _ in range(3)])
        lhs = frac_integral(series_add(a, b), alpha)
        rhs = series_add(frac_integral(a, alpha), frac_integral(b, alpha))
        assert series_equal(lhs, rhs, tol=1e-11)


# ---------------------------------------------------------------------------
# caputo
# ---------------------------------------------------------------------------


def test_caputo_annihilates_constants():
    assert caputo(Series.of(0.0, 7.0), 0.5).is_zero()
    assert caputo(Series.of(0.0, X * (Const(2.0) - X)), 0.9).is_zero()


def test_caputo_power_rule_quadratic():
    for alpha in (0.5, 0.75, 1.0):
        a = parse_series("x*(2 - x)*t^2", alpha)
        want = parse_series("2*t^(2 - alpha)/gamma(3 - alpha)*x*(2 - x)", alpha)
        assert series_equal(caputo(a, alpha), want, (0.0, 2.0), 1e-12)


def test_caputo_shifted_power():
    # D^alpha t^(3+alpha) = Gamma(4+alpha)/Gamma(4) t^3 = Gamma(4+alpha)/6 t^3
    alpha = 0.7
    a = parse_series("sin(x)*t^(3 + alpha)", alpha)
    want = parse_series("gamma(4 + alpha)/6*sin(x)*t^3", alpha)
    assert series_equal(caputo(a, alpha), want, (0.0, math.pi), 1e-12)


def test_caputo_range_error_inside_unit_gap():
    # t^0.3 with alpha = 0.7 would need t^-0.4
    with pytest.raises(CaputoRangeError):
        caputo(Series.of(0.3, 1.0), 0.7)


def test_caputo_alpha_domain():
    with pytest.raises(SeriesError):
        caputo(Series.of(2.0, 1.0), 1.5)
    with pytest.raises(SeriesError):
        caputo(Series.of(2.0, 1.0), 0.0)


def test_integral_inverts_caputo_up_to_initial_value():
    # I^alpha D^alpha f = f - f(t=0) on the term class
    alpha = 0.6
    f = parse_series("(1 + x) + (2 - x)*t^2 + x^2*t^(2 + alpha)", alpha)
    got = frac_integral(caputo(f, alpha), alpha)
    want = series_add(f, series_scale(Series.of(0.0, Const(1.0) + X), -1.0))
    assert series_equal(got, want, (0.0, 2.0), 1e-11)


def test_initial_value_reads_constant_term():
    s = parse_series("t^(3 + alpha)*sin(x) + 1", 0.7)
    iv = initial_value(s)
    assert iv == Series.of(0.0, 1.0)
    assert evaluate_series_grid(iv, make_grid((0.83, 1.0), nt=2))[0, 0] == 1.0
    assert initial_value(Series.of(0.5, X)) == Series.zero()


# ---------------------------------------------------------------------------
# canonical form and caps
# ---------------------------------------------------------------------------


def test_series_merges_nearby_exponents():
    s = Series([(1.0, X), (1.0 + 1e-13, Const(2.0))])
    assert len(s) == 1
    assert evaluate(s.terms[0].coeff, {"x": 3.0}) == 5.0


def test_series_sorts_exponents():
    s = Series([(2.0, 1.0), (0.5, 1.0), (1.0, 1.0)])
    assert [t.mu for t in s.terms] == [0.5, 1.0, 2.0]


def test_series_drops_zero_coefficients():
    assert Series([(1.0, Const(0.0))]).is_zero()
    assert Series([(1.0, X - X)]).is_zero()
    # the sampled test drops dust below 1e-12, constant or not
    assert Series([(1.0, Const(1e-17) * Sin(X))]).is_zero()
    assert Series([(1.0, Const(1e-13))]).is_zero()
    kept = Series([(1.0, Const(1e-9) * X)])
    assert len(kept) == 1
    assert evaluate(kept.terms[0].coeff, {"x": 2.0}) == 2e-9


def test_term_cap_sets_truncated_flag(monkeypatch):
    monkeypatch.setattr(fracterm, "MAX_TERMS", 3)
    s = Series([(float(k), 1.0) for k in range(10)])
    assert s.truncated
    assert len(s) <= 3


def test_mu_cap_sets_truncated_flag():
    s = Series([(0.0, 1.0), (700.0, 1.0)])
    assert s.truncated
    assert [t.mu for t in s.terms] == [0.0]


def test_frac_integral_threads_caps(monkeypatch):
    a = Series([(float(k), 1.0) for k in range(6)])
    monkeypatch.setattr(fracterm, "MAX_TERMS", 2)
    s = frac_integral(a, 0.5)
    assert s.truncated


def test_operations_share_polys_without_mutating_them():
    # terms hold normal-form polys that series share, so every operation must
    # build new dicts and leave its inputs' polys untouched
    a = parse_series("x*(2 - x)*t^2 + sin(x)*t^0.5 + 3", None)
    b = parse_series("cos(x)*t + x^2", None)
    g = Series.of(0.5, 1.0)
    # three terms at t^0.5, t^1 and t^1.5 each, so merges chain past two polys
    c = parse_series("x*t^0.5 + sin(x)*t + cos(2*x)*t^1.5 + 1", None)
    d = parse_series("2*x*t^0.5 - x*t + 3*sin(x)*t^1.5 + x^3", None)
    inputs = (a, b, g, c, d)
    before = [[dict(t.poly) for t in s.terms] for s in inputs]
    outputs = [
        series_add(a, b),
        series_scale(a, 2.5),
        series_scale(a, X + 1.0),
        series_mul(a, b),
        series_mul(c, d),
        Series([*c.terms, *d.terms, *g.terms, *series_scale(c, -1.0).terms]),
        spatial_apply(a, 2),
        series_substitute(a, "x", 1.0),
        frac_integral(a, 0.6),
        caputo(b, 0.6),
        boundary_correct(a, {"bc.l": Face("x", 0.0, g), "bc.L": Face("x", 1.0, g)}),
    ]
    assert [[dict(t.poly) for t in s.terms] for s in inputs] == before
    for s in outputs:
        assert s.terms
        for term in s.terms:
            assert poly_of(term.coeff) == term.poly


def test_merge_matches_chained_poly_add():
    # _from_pairs merges same-exponent polys in place; it must leave the same
    # dict, in the same order, as folding them with poly_add, including a
    # group that cancels to {} and then meets a poly holding an underflowed
    # 0.0 coefficient, which poly_add copies rather than pops
    x, s1 = poly_of(X), poly_of(Sin(X))
    tiny = poly_scale(poly_of(Const(3.0) * X + Sin(X)), 1e-320)
    tiny = poly_scale(tiny, 1e-10)
    assert 0.0 in tiny.values()
    groups = [
        [x, poly_scale(x, -1.0), tiny, s1],
        [s1, x, poly_scale(s1, 2.0), poly_of(Const(1.0) + X * X)],
        [poly_of(Const(2.0) * Sin(X) + X), poly_scale(s1, -2.0), poly_scale(x, -1.0)],
    ]
    for polys in groups:
        want = polys[0]
        for p in polys[1:]:
            want = poly_add(want, p)
        frozen = [dict(p) for p in polys]
        s = Series([TimeTerm(1.0, p) for p in polys])
        assert polys == frozen
        if not want:
            assert s.is_zero()
            continue
        (term,) = s.terms
        assert term.poly == want and list(term.poly) == list(want)


def test_series_add_keeps_unmerged_terms(monkeypatch):
    # a term that no other exponent merges into passed the zero check when it
    # was built, so series_add keeps the TimeTerm itself and checks nothing
    a = parse_series("x*t + sin(x)*t^2.5", None)
    b = parse_series("cos(x)*t^0.5 + x^2*t^3", None)
    d = parse_series("x^3*t", None)
    # every decision goes through the bulk entry; count the polys it decides
    checked, real = [], fracterm.zero_decisions
    monkeypatch.setattr(fracterm, "zero_decisions", lambda ps: checked.extend(ps) or real(ps))
    s = series_add(a, b)
    assert [t.mu for t in s.terms] == [0.5, 1.0, 2.5, 3.0]
    assert all(got is want for got, want in
               zip(s.terms, (b.terms[0], a.terms[0], a.terms[1], b.terms[1])))
    assert checked == []
    # a merged exponent is a new term, checked once
    c = series_add(a, d)
    assert c.terms[1] is a.terms[1] and c.terms[0] not in a.terms
    assert len(checked) == 1


def test_series_scale_by_one_is_its_series(monkeypatch):
    # scaling by exactly one changes no bit, so the series is its own
    # product and no term is checked again
    a = parse_series("x*t + sin(x)*t^2.5", None)
    checked, real = [], fracterm.zero_decisions
    monkeypatch.setattr(fracterm, "zero_decisions", lambda ps: checked.extend(ps) or real(ps))
    for one in (1.0, 1):
        assert series_scale(a, one) is a
    assert checked == []


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=50.0,
                                    allow_nan=False),
                          st.integers(min_value=-5, max_value=5)),
                max_size=10))
def test_series_canonical_invariants(pairs):
    s = Series([(mu, float(c)) for mu, c in pairs])
    mus = [t.mu for t in s.terms]
    assert mus == sorted(mus)
    for a, b in zip(mus, mus[1:]):
        assert b - a > 1e-12
    assert not s.truncated


def _reference_series_mul(a, b):
    # the product as it was formed before series_dot: the pairs of one
    # product grouped by exponent, one fourier_sums call, else poly_mul per
    # pair, and _from_pairs
    mus = [ta.mu + tb.mu for ta in a.terms for tb in b.terms]
    ps, qs = [t.poly for t in a.terms], [t.poly for t in b.terms]
    groups = fracterm._mu_groups(mus)
    sums = fourier_sums(ps, qs, groups)
    if sums is None:
        pairs = list(zip(mus, (poly_mul(p, q) for p in ps for q in qs)))
    else:
        pairs = [(mus[group[0]], p) for group, p in zip(groups, sums)]
    return fracterm._from_pairs(pairs, a.truncated or b.truncated)


def _bits(series):
    return series.truncated, [(t.mu.hex(), [(mono, c.hex()) for mono, c in t.poly.items()])
                              for t in series.terms]


_TWO_PI = 2.0 * math.pi


@st.composite
def _coeff(draw, kind):
    # a Fourier poly on the base 2 pi x, a polynomial in x, or x^k times sines
    # of incommensurate angles (the generic product); signed magnitudes in
    # [0.5, 2], so no product is dust
    e = Const(0.0)
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
        m = float(draw(st.integers(0, 3)))
        if kind == "fourier":
            trig = draw(st.sampled_from([Sin, Cos]))
            e = e + (Const(c) if m == 0.0 else Const(c) * trig(Const(m * _TWO_PI) * X))
        elif kind == "poly":
            e = e + Const(c) * Pow(X, m)
        else:
            e = e + Const(c) * Pow(X, m) * Sin(Const(draw(st.sampled_from([1.0, math.e]))) * X)
    return poly_of(e)


@st.composite
def _series_lists(draw):
    # one list kind per example, so the kernel path is taken when both lists
    # are Fourier; "mixed" draws a kind per term; empty series included
    kind = draw(st.sampled_from(["fourier", "poly", "mixed"]))
    n = draw(st.integers(1, 4))
    lists = []
    for _ in range(2):
        series = []
        for _ in range(n):
            terms = []
            for _ in range(draw(st.integers(0, 3))):
                k = draw(st.sampled_from(["fourier", "poly", "generic"])) \
                    if kind == "mixed" else kind
                terms.append(TimeTerm(draw(st.sampled_from([0.0, 0.5, 0.75, 1.0, 1.5])),
                                      draw(_coeff(k))))
            series.append(Series(terms))
        lists.append(series)
    return lists


@settings(max_examples=150, deadline=None)
@given(_series_lists())
def test_series_dot_is_the_chained_product_sum(lists):
    xs, ys = lists
    got = series_dot(xs, ys)
    want = Series.zero()
    for a, b in zip(xs, ys):
        want = series_add(want, _reference_series_mul(a, b))
    # the same exponents, and each monomial within 1e-14 of the largest
    # |coefficient| of its term: only the order of one grade's sums moved
    assert [t.mu for t in got.terms] == [t.mu for t in want.terms]
    for tg, tw in zip(got.terms, want.terms):
        scale = max(abs(c) for c in tw.poly.values())
        for mono in set(tg.poly) | set(tw.poly):
            gap = abs(tg.poly.get(mono, 0.0) - tw.poly.get(mono, 0.0))
            assert gap <= 1e-14 * scale, (tw.mu, mono, gap / scale)
    # one pair is the product as it was formed before, bit for bit
    assert _bits(series_dot(xs[:1], ys[:1])) == _bits(_reference_series_mul(xs[0], ys[0]))
    assert _bits(series_mul(xs[0], ys[0])) == _bits(_reference_series_mul(xs[0], ys[0]))


# ---------------------------------------------------------------------------
# evaluation and conversion
# ---------------------------------------------------------------------------


def test_to_series_splits_exponents():
    s = to_series(parse_expr("x^2*t^2 + sin(x)*t^0.5 + 3"))
    assert [t.mu for t in s.terms] == [0.0, 0.5, 2.0]


def test_to_series_rejects_buried_time():
    with pytest.raises(SeriesError):
        to_series(parse_expr("sin(t)"))
    with pytest.raises(SeriesError):
        to_series(parse_expr("exp(t)*x"))


def test_to_series_rejects_negative_exponent():
    with pytest.raises(SeriesError):
        to_series(parse_expr("t^(-1)*x"))


def test_series_equal_distinguishes():
    a = parse_series("sin(x)*t", None)
    b = parse_series("cos(x)*t", None)
    assert not series_equal(a, b)
    assert series_equal(a, a)


def test_series_equal_refuses_samples_that_are_not_finite():
    # exp(1000 x) overflows on (1, 2), and inf - 0 <= tol * (1 + inf) holds,
    # so a sample that is not finite must be refused apart
    big = Series.of(1.0, Exp(Const(1000.0) * X))
    neg = series_scale(big, -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((big, Series.zero()), (neg, Series.zero()), (Series.zero(), big),
                     (big, neg), (big, big)):
            assert not series_equal(a, b, domain=(1.0, 2.0))
