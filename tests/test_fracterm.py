"""Fractional calculus on the series class: gamma, I^alpha, Caputo D^alpha."""

import math
import random

import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdecomp.decomp import BoundaryData, boundary_correct
from fracdecomp.fracterm import (
    CaputoRangeError,
    GammaPoleError,
    Series,
    SeriesError,
    caputo,
    eval_series,
    frac_integral,
    gamma,
    initial_value,
    series_add,
    series_equal,
    series_mul,
    series_scale,
    series_substitute,
    spatial_apply,
    to_series,
)
from fracdecomp.grammar import parse_expr, parse_series
from fracdecomp.symx import Const, Sin, Var, evaluate, poly_of

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
    # Gamma(1)/Gamma(2) = 1 up to Lanczos noise in the last bit
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
    assert evaluate(iv, {"x": 0.83}) == 1.0
    assert evaluate(initial_value(Series.of(0.5, X)), {"x": 2.0}) == 0.0


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


def test_term_cap_sets_truncated_flag():
    s = Series([(float(k), 1.0) for k in range(10)], max_terms=3)
    assert s.truncated
    assert len(s) <= 3


def test_mu_cap_sets_truncated_flag():
    s = Series([(0.0, 1.0), (700.0, 1.0)])
    assert s.truncated
    assert [t.mu for t in s.terms] == [0.0]


def test_frac_integral_threads_caps():
    a = Series([(float(k), 1.0) for k in range(6)])
    s = frac_integral(a, 0.5, max_terms=2)
    assert s.truncated


def test_operations_share_polys_without_mutating_them():
    # terms hold normal-form polys that series share, so every operation must
    # build new dicts and leave its inputs' polys untouched
    a = parse_series("x*(2 - x)*t^2 + sin(x)*t^0.5 + 3", None)
    b = parse_series("cos(x)*t + x^2", None)
    g = Series.of(0.5, 1.0)
    inputs = (a, b, g)
    before = [[dict(t.poly) for t in s.terms] for s in inputs]
    outputs = [
        series_add(a, b),
        series_scale(a, 2.5),
        series_scale(a, X + 1.0),
        series_mul(a, b),
        spatial_apply(a, 2),
        series_substitute(a, "x", 1.0),
        frac_integral(a, 0.6),
        caputo(b, 0.6),
        boundary_correct(a, BoundaryData.interval(g, g), (0.0, 1.0)),
    ]
    assert [[dict(t.poly) for t in s.terms] for s in inputs] == before
    for s in outputs:
        assert s.terms
        for term in s.terms:
            assert poly_of(term.coeff) == term.poly


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


# ---------------------------------------------------------------------------
# evaluation and conversion
# ---------------------------------------------------------------------------


def test_eval_series_at_time_zero():
    # t^0 is 1 at t = 0; fractional powers vanish there
    s = Series.of(0.0, X)
    assert eval_series(s, {"x": 2.0}, 0.0) == 2.0
    assert eval_series(Series.of(0.5, X), {"x": 2.0}, 0.0) == 0.0


def test_eval_series_rejects_negative_time():
    with pytest.raises(SeriesError):
        eval_series(Series.of(1.0, 1.0), {"x": 0.0}, -0.1)


def test_eval_series_value():
    s = parse_series("x^2*t^2 + sin(x)*t^0.5 + 3", None)
    x0, t0 = 0.7, 1.3
    want = x0 ** 2 * t0 ** 2 + math.sin(x0) * math.sqrt(t0) + 3.0
    assert abs(eval_series(s, {"x": x0}, t0) - want) <= 1e-14


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
