"""Expression engine: differentiation, evaluation, simplification, grammar."""

import copy
import math
import pickle
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdecomp import symx
from fracdecomp.fracterm import Series, gamma
from fracdecomp.grammar import GrammarError, parse_expr, parse_spatial
from fracdecomp.problems import builtin
from fracdecomp.symx import (
    Const,
    Cos,
    Exp,
    ExprError,
    FactorTable,
    Pow,
    PowerDomainError,
    Prod,
    Sin,
    Sum,
    Var,
    contains,
    diff,
    equal_sampled,
    evaluate,
    expr_of_poly,
    is_zero_expr,
    poly_of,
    poly_substitute,
    sample_points,
    simplify,
    sorted_items,
)
from test_poly_reads import _random_coeff

X = Var("x")
Y = Var("y")


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------


def _d(e, var="x"):
    return expr_of_poly(diff(poly_of(e), var))


def test_diff_constant_is_zero():
    assert is_zero_expr(diff(poly_of(Const(5.0)), "x"))


def test_diff_quadratic_profile():
    e = X * (Const(2.0) - X)
    assert equal_sampled(diff(poly_of(e), "x"), poly_of(Const(2.0) - Const(2.0) * X), (0.0, 2.0))


def test_diff_sine_chain_rule():
    e = Sin(Const(2.0 * math.pi) * X)
    want = Const(2.0 * math.pi) * Cos(Const(2.0 * math.pi) * X)
    assert equal_sampled(diff(poly_of(e), "x"), poly_of(want), (0.0, 1.0))


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
        sym = evaluate(_d(e), {"x": x0})
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


def test_zero_check_keeps_a_poly_it_cannot_sample():
    # the zero check samples the box (0, 2)^2, where 1 - x and x - 3 go
    # negative: such a coefficient is kept, not raised on
    for e in (Pow(Const(1.0) - X, 0.5) * X, Pow(X - Const(3.0), 0.5)):
        with pytest.raises(PowerDomainError):
            evaluate(e, sample_points(None))
        assert is_zero_expr(poly_of(e)) is False
        assert len(Series([(1.0, e)]).terms) == 1


def test_zero_check_never_calls_a_non_finite_sample_zero():
    # inf <= 1e-12 * (1 + inf) holds, so an infinite coefficient, or an atom
    # whose value overflows on the zero-check box, once read as zero and the
    # term was dropped from its series; 1e300 * x^200 overflows on that box
    # (0, 2), whatever the problem's domain, and warns nothing
    for p in ({((X, 1.0),): math.inf}, {((X, 1.0),): -math.inf},
              poly_of(Exp(Const(800.0) * X)), {((X, 1.0),): math.nan},
              poly_of(Const(1e300) * Pow(X, 200.0))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_zero_expr(p) is False, p
    assert len(Series([(1.0, Const(math.inf) * X)]).terms) == 1
    # finite samples decide as before: dust is zero, a small term is not
    assert is_zero_expr(poly_of(Const(1e-14) * X + Const(1e-14) * Sin(X))) is True
    assert is_zero_expr(poly_of(Const(1e-9) * X)) is False


def test_a_read_that_overflows_warns_nothing():
    # every read runs under one overflow policy: a product that overflows is
    # an inf sample, with the bits of a plain loop, and never a RuntimeWarning
    table = FactorTable(sample_points((0.0, 2.0)))
    big = poly_of(Const(1e300) * Pow(X, 200.0) + X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (value,), jets, _ = table.read((sorted_items(big),), {"x": 2})
    xs = sample_points((0.0, 2.0))["x"]
    with np.errstate(over="ignore"):
        want = (1e300 * xs ** 200.0 + xs, 1e300 * (200.0 * xs ** 199.0) + 1.0,
                1e300 * (39800.0 * xs ** 198.0))
    assert np.isinf(want[0]).any() and np.isfinite(want[0]).any()
    assert np.array_equal(value, want[0])
    assert np.array_equal(jets["x", 1][0], want[1]) and np.array_equal(jets["x", 2][0], want[2])
    # 1e200 * x^150 and exp(100 x) are finite on (0, 2), their product is not
    two = poly_of(Const(1e200) * Pow(X, 150.0) * Exp(Const(100.0) * X))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (row,), _, _ = FactorTable(sample_points((0.0, 2.0))).read((sorted_items(two),))
    assert np.isinf(row).any() and np.isfinite(row).any()


def test_folding_a_constant_that_overflows_names_the_function():
    with pytest.raises(ExprError) as err:
        poly_of(Exp(Const(800.0)))
    assert str(err.value) == "exp(800) overflows a float"
    # folded where a substitution makes the argument constant
    with pytest.raises(ExprError, match=r"exp\(800\) overflows"):
        poly_substitute(poly_of(Exp(Const(800.0) * X)), "x", 1.0)
    assert poly_of(Exp(Const(700.0))) == {(): math.exp(700.0)}


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------


def test_each_structure_is_one_node():
    # a constructor returns the node built before from equal normalized
    # fields, so equal expressions are one object
    assert Const(2) is Const(2.0)
    assert Var("x") is X
    assert Pow(X, 2 + 1e-13) is Pow(X, 2.0)             # the exponent snap
    assert Sum((X, Const(1.0))) is Sum([X, Const(1.0)])
    assert Prod((Const(2.0), X)) is Const(2.0) * X
    for fn in (Sin, Cos, Exp):
        assert fn(Const(math.pi) * X) is fn(Const(math.pi) * X)
    assert parse_spatial("sin(pi*x)*(1+x)^0.5") is parse_spatial("sin(pi*x)*(1+x)^0.5")
    # -0.0 == 0.0, but a node keeps the fields it was built from
    neg = Const(-0.0)
    assert neg is not Const(0.0) and neg is Const(-0.0)
    assert math.copysign(1.0, neg.value) == -1.0
    assert math.copysign(1.0, Const(0.0).value) == 1.0
    for bad in (lambda: Var("z"), lambda: Sum(()), lambda: Prod(())):
        with pytest.raises(ExprError):
            bad()


def _spec_atoms(spec):
    # every atom of every monomial of the spec's series, in dict order
    series = [spec.f, spec.h, spec.exact, *(face.g for face in spec.bd.faces.values())]
    series += [p.series_coeff for p in spec.nonlinear.products if p.series_coeff is not None]
    return [atom for s in series for t in s.terms for mono in t.poly for atom, _ in mono]


def test_a_copied_or_unpickled_node_is_the_node():
    # copy and pickle rebuild a node through its constructor, which hands
    # back the one node of that structure
    neg = Const(-0.0)
    assert copy.copy(neg) is neg and copy.deepcopy(neg) is neg
    assert math.copysign(1.0, pickle.loads(pickle.dumps(neg)).value) == -1.0
    e = parse_spatial("sin(pi*x)*(1+x)^0.5 + exp(-x)")
    for node in (Sin(X), Var("y"), e, Pow(X, -1.5)):
        assert copy.copy(node) is node and copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node
    spec = builtin("p7", 0.75)
    atoms = _spec_atoms(spec)
    assert atoms and all(a is b for a, b in zip(_spec_atoms(copy.deepcopy(spec)), atoms,
                                                strict=True))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.integers(1, 12))
def test_random_trees_built_twice_are_one_node(seed, two_d, monomials):
    first = _random_coeff(random.Random(seed), two_d, monomials)
    assert _random_coeff(random.Random(seed), two_d, monomials) is first


def test_simplify_zero_annihilation():
    s = simplify(Const(0.0) * Sin(X) + X)
    assert s == X


def test_simplify_polynomial_collection():
    expanded = simplify(X * (Const(2.0) - X))
    want = Const(2.0) * X - X * X
    assert equal_sampled(poly_of(expanded), poly_of(want), (0.0, 2.0))


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
    assert equal_sampled(poly_of(Const(2.0) * X - X * X), poly_of(X * (Const(2.0) - X)),
                         (0.0, 2.0), 1e-10)
    # two normal forms of one function: exp(x)^2 and exp(2 x)
    a, b = poly_of(Exp(X) * Exp(X)), poly_of(Exp(Const(2.0) * X))
    assert a != b
    assert equal_sampled(a, b, (0.0, 2.0), 1e-10)


def test_equal_sampled_distinguishes():
    assert not equal_sampled(poly_of(Sin(X)), poly_of(Cos(X)), (0.0, 1.0), 1e-10)


def test_equal_sampled_reflexive_symmetric():
    a = poly_of(Sin(X) * Exp(X) + X)
    b = poly_of(Cos(X) - X * X)
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
    # 50 random inputs in x alone; the whole substituted poly is evaluated
    rng = random.Random(77)
    cases = [(simplify(_random_expr(rng) + _random_expr(rng) * _random_expr(rng)),
              round(rng.uniform(0.1, 1.9), 3)) for _ in range(50)]
    ys = np.linspace(0.0, 2.0, 9)
    for e, x0 in cases:
        got = evaluate(expr_of_poly(poly_substitute(poly_of(e), "x", x0)), {"y": ys})
        want = evaluate(e, {"x": x0, "y": ys})
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


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
    s = expr_of_poly(poly_substitute(poly_of(e), "x", 1.0))
    assert not contains(s, "x")
    assert equal_sampled(poly_of(s), poly_of(Y + Const(math.sin(1.0))),
                         ((0.0, 2.0), (0.0, 2.0)))


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def test_parse_round_trip_value():
    e = parse_expr("2*x + sin(pi*x)^2 - exp(-x)", alpha=0.5)
    x0 = 0.3
    want = 2 * x0 + math.sin(math.pi * x0) ** 2 - math.exp(-x0)
    assert abs(evaluate(e, {"x": x0}) - want) <= 1e-14


def test_parse_expands_powers_of_sums_and_trig_products():
    # problem-file text reaches the integer power of a sum and, through the
    # generic product, the rewrite of a trig power times another factor
    assert str(simplify(parse_expr("(1 + x)^3", alpha=0.5))) == "1 + 3*x + 3*x^2 + x^3"
    assert str(simplify(parse_expr("(x*sin(pi*x))^2", alpha=0.5))) == \
        "0.5*x^2 - 0.5*x^2*cos(6.283185307179586*x)"


def test_parse_alpha_and_gamma_fold_to_constants():
    e = parse_expr("t^(2 - alpha) / gamma(3 - alpha)", alpha=0.5)
    v = evaluate(e, {"t": 2.0})
    assert abs(v - 2.0 ** 1.5 / math.gamma(2.5)) <= 1e-14


def test_gamma_folds_past_the_lanczos_overflow():
    # the Lanczos gamma overflows from z ~ 142.2, Gamma itself only past 171.6
    for z in (150.0, 142.3):
        got = parse_spatial(f"gamma({z!r})")
        assert isinstance(got, Const) and math.isfinite(got.value), z
        assert abs(got.value - math.gamma(z)) <= 1e-13 * math.gamma(z), z
    # below the overflow the fold is the Lanczos value, bit for bit
    for z in (0.3, 5.5, 100.5, 142.2):
        assert parse_spatial(f"gamma({z!r})").value == gamma(z), z
    with pytest.raises(GrammarError, match=r"gamma\(172\) overflows a float"):
        parse_spatial("gamma(172)")


def test_gamma_folds_large_negative_arguments():
    # past z ~ -141.2 the reflection divides by a Lanczos value that
    # overflows, though Gamma there is tiny and finite
    for z in (-141.3, -141.5, -150.5):
        got = parse_spatial(f"gamma({z!r})").value
        assert got != 0.0 and abs(got - math.gamma(z)) <= 1e-13 * abs(math.gamma(z)), z
    # Gamma(-180.5) underflows to -0.0 in the C library too
    assert parse_spatial("gamma(-180.5)").value == 0.0
    with pytest.raises(GrammarError, match=r"gamma\(172\) overflows a float"):
        parse_spatial("gamma(172)")
    # wherever the Lanczos value is finite and nonzero, the fold is that value
    for z in (k / 7 for k in range(-986, 994) if k % 7):
        assert parse_spatial(f"gamma({z!r})").value == gamma(z), z


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
