"""Expression engine: differentiation, evaluation, simplification, grammar."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdecomp.grammar import GrammarError, parse_expr, parse_spatial
from fracdecomp.symx import (
    Const,
    Cos,
    Exp,
    ExprError,
    Pow,
    PowerDomainError,
    Sin,
    Var,
    diff,
    equal_sampled,
    evaluate,
    is_zero_expr,
    poly_of,
    poly_substitute,
    simplify,
    substitute,
)

X = Var("x")
Y = Var("y")


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------


def test_diff_constant_is_zero():
    assert is_zero_expr(poly_of(diff(Const(5.0), "x")))


def test_diff_quadratic_profile():
    e = X * (Const(2.0) - X)
    assert equal_sampled(diff(e, "x"), Const(2.0) - Const(2.0) * X, (0.0, 2.0))


def test_diff_sine_chain_rule():
    e = Sin(Const(2.0 * math.pi) * X)
    want = Const(2.0 * math.pi) * Cos(Const(2.0 * math.pi) * X)
    assert equal_sampled(diff(e, "x"), want, (0.0, 1.0))


def _random_expr(rng):
    """Small tree over x with bounded values; exp only of linear arguments."""
    kind = rng.randrange(5)
    a = round(rng.uniform(-2.0, 2.0), 3)
    b = round(rng.uniform(-2.0, 2.0), 3)
    if kind == 0:
        return Const(a) + Const(b) * X
    if kind == 1:
        return Const(a) * X * X + Const(b) * X
    if kind == 2:
        return Sin(Const(a) * X + Const(b))
    if kind == 3:
        return Cos(Const(a) * X) * (Const(b) + X)
    return Exp(Const(round(rng.uniform(-1.0, 1.0), 3)) * X)


def test_diff_matches_central_differences():
    # 32 random pairs, |symbolic - central| <= 1e-6 at h = 1e-5
    rng = random.Random(1405)
    h = 1e-5
    for _ in range(32):
        e = _random_expr(rng)
        x0 = round(rng.uniform(0.1, 1.9), 3)
        sym = evaluate(diff(e, "x"), {"x": x0})
        num = (evaluate(e, {"x": x0 + h}) - evaluate(e, {"x": x0 - h})) / (2 * h)
        assert abs(sym - num) <= 1e-6


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_quadratic_at_one():
    assert evaluate(X * (Const(2.0) - X), {"x": 1.0}) == 1.0


def test_evaluate_exp_identity():
    assert evaluate(Exp(X), {"x": 0.0}) == 1.0


def test_evaluate_sine_peak():
    v = evaluate(Sin(Const(2.0 * math.pi) * X), {"x": 0.25})
    assert abs(v - 1.0) <= 1e-15


def test_evaluate_unbound_variable():
    with pytest.raises(ExprError):
        evaluate(X + Y, {"x": 1.0})


def test_evaluate_negative_base_fractional_power():
    with pytest.raises(PowerDomainError):
        evaluate(Pow(X, 0.5), {"x": -1.0})


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------


def test_simplify_zero_annihilation():
    s = simplify(Const(0.0) * Sin(X) + X)
    assert s == X


def test_simplify_polynomial_collection():
    expanded = simplify(X * (Const(2.0) - X))
    want = Const(2.0) * X - X * X
    assert equal_sampled(expanded, want, (0.0, 2.0))


def test_simplify_unit_factor():
    assert simplify(Const(1.0) * Exp(X)) == Exp(X)


def _tree_strategy():
    base = st.one_of(
        st.integers(min_value=-3, max_value=3).map(lambda v: Const(float(v))),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                  allow_infinity=False).map(lambda v: Const(round(v, 3))),
        st.just(X),
        st.just(Y),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: p[0] + p[1]),
            st.tuples(children, children).map(lambda p: p[0] * p[1]),
            st.tuples(children, children).map(lambda p: p[0] - p[1]),
            children.map(Sin),
            children.map(Cos),
            st.tuples(children, st.sampled_from([0.0, 1.0, 2.0, 3.0]))
              .map(lambda p: Pow(p[0], p[1])),
        )

    return st.recursive(base, extend, max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(_tree_strategy())
def test_simplify_idempotent_and_value_preserving(e):
    s = simplify(e)
    assert simplify(s) == s
    for env in ({"x": 0.37, "y": 1.21}, {"x": 1.73, "y": 0.49}):
        try:
            before = evaluate(e, env)
        except OverflowError:
            continue
        after = evaluate(s, env)
        assert abs(after - before) <= 1e-9 * (1.0 + abs(before))


# ---------------------------------------------------------------------------
# equal_sampled
# ---------------------------------------------------------------------------


def test_equal_sampled_algebraic_identity():
    assert equal_sampled(Const(2.0) * X - X * X, X * (Const(2.0) - X),
                         (0.0, 2.0), 64, 1e-10)


def test_equal_sampled_distinguishes():
    assert not equal_sampled(Sin(X), Cos(X), (0.0, 1.0), 64, 1e-10)


def test_equal_sampled_reflexive_symmetric():
    a = Sin(X) * Exp(X) + X
    b = Cos(X) - X * X
    assert equal_sampled(a, a, (0.0, 1.0))
    assert equal_sampled(a, b, (0.0, 1.0)) == equal_sampled(b, a, (0.0, 1.0))


def test_trig_products_keep_their_values():
    # products of commensurate sines/cosines are rewritten onto a
    # multiple-angle basis; the rewrite must not move the function
    w = Const(2.0 * math.pi)
    e = Sin(w * X) * Cos(w * X) * Sin(Const(2.0) * w * X)
    s = simplify(e)
    for x0 in (0.0, 0.131, 0.25, 0.5, 0.77, 1.0):
        assert abs(evaluate(s, {"x": x0}) - evaluate(e, {"x": x0})) <= 1e-12


def test_pythagorean_identity_collapses():
    e = Sin(X) * Sin(X) + Cos(X) * Cos(X) - Const(1.0)
    assert is_zero_expr(poly_of(simplify(e)))


# ---------------------------------------------------------------------------
# exact substitution
# ---------------------------------------------------------------------------


def test_poly_substitute_matches_evaluate():
    rng = random.Random(77)
    for _ in range(50):
        e = simplify(_random_expr(rng) + _random_expr(rng) * _random_expr(rng))
        x0 = round(rng.uniform(0.1, 1.9), 3)
        got = poly_substitute(poly_of(e), "x", x0).get((), None)
        if got is None:
            got = 0.0
        want = evaluate(e, {"x": x0})
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_poly_substitute_boundary_folds_exactly():
    # sin(2 pi k x) vanishes identically at x = 0 and x = 1, and the fold
    # must be the empty polynomial, not dust coefficients
    w = Const(2.0 * math.pi)
    for k in (1.0, 3.0, 17.0):
        p = poly_of(Const(0.8125) * Sin(Const(k) * w * X))
        assert poly_substitute(p, "x", 0.0) == {}
        assert poly_substitute(p, "x", 1.0) == {}


def test_substitute_binds_one_variable():
    e = X * Y + Sin(X)
    s = substitute(e, "x", 1.0)
    assert equal_sampled(s, Y + Const(math.sin(1.0)), ((0.0, 2.0), (0.0, 2.0)))


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def test_parse_round_trip_value():
    e = parse_expr("2*x + sin(pi*x)^2 - exp(-x)", alpha=0.5)
    x0 = 0.3
    want = 2 * x0 + math.sin(math.pi * x0) ** 2 - math.exp(-x0)
    assert abs(evaluate(e, {"x": x0}) - want) <= 1e-14


def test_parse_alpha_and_gamma_fold_to_constants():
    e = parse_expr("t^(2 - alpha) / gamma(3 - alpha)", alpha=0.5)
    v = evaluate(e, {"t": 2.0})
    assert abs(v - 2.0 ** 1.5 / math.gamma(2.5)) <= 1e-14


def test_parse_error_carries_position():
    with pytest.raises(GrammarError) as err:
        parse_expr("2 +* x")
    assert err.value.pos == 3
    assert "^" in err.value.pointer()


def test_parse_unclosed_paren():
    with pytest.raises(GrammarError):
        parse_expr("sin(x")


def test_parse_gamma_needs_constant_argument():
    with pytest.raises(GrammarError):
        parse_expr("gamma(x)")


def test_parse_spatial_rejects_time():
    with pytest.raises(GrammarError):
        parse_spatial("t^2", alpha=1.0)
